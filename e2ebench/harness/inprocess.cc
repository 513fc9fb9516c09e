// exact_mix, scale_sketch and spilled_scan: one caller drives an Engine in
// this process, one operation at a time.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness/data.h"
#include "harness/query.h"
#include "harness/replay.h"
#include "harness/trace.h"
#include "harness/workloads.h"

namespace e2e {

namespace {

// ------------------------------------------------------------ query terms

Pred Cmp(const HTable& t, const std::string& col, Pred::Op op, double v) {
  Pred p;
  p.col = t.Col(col);
  p.op = op;
  p.num = Literal(v);
  return p;
}
Constraint Count(double lo, double hi) { return {-1, Literal(lo), Literal(hi)}; }
Constraint Sum(const HTable& t, const std::string& col, double lo, double hi) {
  return {t.Col(col), std::isfinite(lo) ? Literal(lo) : lo,
          std::isfinite(hi) ? Literal(hi) : hi};
}

QuerySpec Spec(const HTable& t, std::vector<Pred> where,
               std::vector<Constraint> such_that, const std::string& objective,
               int repeat = 1) {
  QuerySpec q;
  q.table = &t;
  q.repeat = repeat;
  q.where = std::move(where);
  q.such_that = std::move(such_that);
  q.objective = t.Col(objective);
  return q;
}

// ------------------------------------------------------------------ plans

struct Op {
  int family = -1;   ///< query family, -1 for an append
  QuerySpec query;   ///< valid when family >= 0
  HTable* table = nullptr;  ///< append target
  size_t rows = 0;          ///< append batch size
};

/// Everything that makes one in-process workload.
struct Plan {
  std::vector<std::unique_ptr<HTable>> tables;
  std::vector<std::string> family_names;
  pb::engine::EngineOptions options;
  pb::engine::QueryBudget budget;
  std::string spill_table;  ///< spilled with Engine::SpillTable ("" = none)
  bool exact = true;        ///< answers must come back proven optimal
  double tail = 0.9;        ///< query_tail_ms percentile
  std::function<std::vector<Op>(int round)> round;
  /// Appends that follow the clock instead of the rounds: `timed_append`
  /// once per `append_period_ns` of the measured phase, between two
  /// operations, so the table grows by the same rows in every run however
  /// fast the engine answers. 0 = none.
  Op timed_append;
  int64_t append_period_ns = 0;

  HTable* Add(HTable t, size_t rows, Rng* rng) {
    tables.push_back(std::make_unique<HTable>(std::move(t)));
    GenerateRows(tables.back().get(), rows, rng);
    return tables.back().get();
  }
};

Op Query(int family, QuerySpec q) {
  Op op;
  op.family = family;
  op.query = std::move(q);
  return op;
}
Op Append(HTable* t, size_t rows) {
  Op op;
  op.table = t;
  op.rows = rows;
  return op;
}

/// The paper's meal, portfolio and vacation scenarios plus lineitem, at
/// tens of thousands of rows, on the default exact path. Round r issues
/// every family once; new travel offers arrive every 100 ms. Each family walks through its table's categories
/// (cuisines, sectors, destinations, ship modes), so a run samples many
/// candidate sets; a category's next visit tightens the SUCH THAT literal,
/// as a user refining one constraint would. The same structure then
/// warm-starts from the last visit, while the text is new, so the result
/// cache (fewer entries than a round-trip through the categories) never
/// hits. Texts recur only every 40 rounds, as a warm re-solve of a text
/// first solved cold. One family (meals_fresh) never returns to a candidate
/// set, so every round adds a cold query to cold_query_ms.
Plan ExactMix(uint64_t seed) {
  Plan p;
  Rng rng(seed);
  HTable* recipes = p.Add(NewRecipes(), 40000, &rng);
  HTable* stocks = p.Add(NewStocks(), 40000, &rng);
  HTable* travel = p.Add(NewTravel(), 8000, &rng);
  HTable* lineitem = p.Add(NewLineitem(), 60000, &rng);
  p.family_names = {"meals", "portfolio", "vacation", "lineitem",
                    "meals_small", "meals_fresh"};
  p.options.num_threads = 1;
  p.options.result_cache_capacity = 16;
  p.budget.max_nodes = 100000;
  p.budget.time_limit_s = 60.0;

  auto vocab = [](const HTable* t, const std::string& col) {
    return t->vocab[t->Col(col)];
  };
  const std::vector<std::string> cuisines = vocab(recipes, "cuisine");
  const std::vector<std::string> sectors = vocab(stocks, "sector");
  const std::vector<std::string> dests = vocab(travel, "dest");
  const std::vector<std::string> modes = vocab(lineitem, "shipmode");
  // meals_small: per cuisine, a calorie ceiling leaving 22 candidates, few
  // enough that the harness enumerates every package to check the proven
  // optimum, and a cost budget three of them always meet.
  std::vector<std::vector<Pred>> small_where;
  std::vector<double> small_cost;
  for (const std::string& c : cuisines) {
    std::vector<Pred> where = {Eq(*recipes, "cuisine", c)};
    where.push_back(Cmp(*recipes, "calories", Pred::kLe,
                        KthSmallest(*recipes, where, "calories", 22)));
    small_where.push_back(where);
    small_cost.push_back(KthSmallest(*recipes, where, "cost", 1) +
                         KthSmallest(*recipes, where, "cost", 2) +
                         KthSmallest(*recipes, where, "cost", 3));
  }

  p.round = [=](int round) {
    auto pick = [&](const std::vector<std::string>& v) {
      return v[static_cast<size_t>(round) % v.size()];
    };
    // The literal step: the same category comes back with a tighter
    // constraint; every 40 rounds the steps start over.
    const double j = (round / 10) % 4;
    const size_t small = static_cast<size_t>(round + 5) % cuisines.size();
    // meals_fresh: a rating floor that no earlier round used (1000 distinct
    // floors in [4.2, 4.6), visited in a scattered order), so every query
    // is a user's first look at a candidate set.
    const double rating_floor = 4.2 + 0.0004 * ((round * 619) % 1000);
    return std::vector<Op>{
        Query(0, Spec(*recipes,
                      {Eq(*recipes, "gluten", "free"),
                       Eq(*recipes, "cuisine", pick(cuisines)),
                       Cmp(*recipes, "rating", Pred::kGe, 4.5)},
                      {Count(3, 3),
                       Sum(*recipes, "calories", 1200 + 50 * j, 1500 + 50 * j)},
                      "protein")),
        Query(1, Spec(*stocks,
                      {Eq(*stocks, "sector", pick(sectors)),
                       Eq(*stocks, "term", "short"),
                       Cmp(*stocks, "risk", Pred::kLe, 0.1)},
                      {Count(3, 6),
                       Sum(*stocks, "price", -kInf, 12000 - 1000 * j)},
                      "expected_gain", 2)),
        Query(2, Spec(*travel,
                      {Eq(*travel, "dest", pick(dests)),
                       Cmp(*travel, "comfort", Pred::kGe, 9)},
                      {Sum(*travel, "is_flight", 2, 2),
                       Sum(*travel, "is_hotel", 1, 1),
                       Sum(*travel, "is_car", -kInf, 1),
                       Sum(*travel, "price", -kInf, 2100 - 100 * j)},
                      "comfort")),
        Query(3, Spec(*lineitem,
                      {Eq(*lineitem, "shipmode", pick(modes)),
                       Eq(*lineitem, "returnflag", "R"),
                       Cmp(*lineitem, "discount", Pred::kGe, 0.1)},
                      {Count(10, 10),
                       Sum(*lineitem, "tax", -kInf, 0.2 - 0.02 * j)},
                      "revenue")),
        Query(4, Spec(*recipes, small_where[small],
                      {Count(3, 3), Sum(*recipes, "cost", -kInf,
                                        small_cost[small] + 3.5 - 0.5 * j)},
                      "protein")),
        Query(5, Spec(*recipes,
                      {Eq(*recipes, "gluten", "free"),
                       Eq(*recipes, "cuisine", pick(cuisines)),
                       Cmp(*recipes, "rating", Pred::kGe, rating_floor)},
                      {Count(3, 3), Sum(*recipes, "calories", 1200, 1500)},
                      "protein")),
    };
  };
  p.timed_append = Append(travel, 5);
  p.append_period_ns = 100000000;
  return p;
}

/// lineitem resident at a million rows with incremental maintenance on, so
/// queries take the maintained SketchRefine route. Every round appends a
/// batch, then re-issues a fixed set of families, which revalidates each
/// through its maintained partition.
Plan ScaleSketch(uint64_t seed) {
  Plan p;
  Rng rng(seed);
  HTable* lineitem = p.Add(NewLineitem(), 1000000, &rng);
  p.family_names = {"mode_revenue", "flag_price", "tax_revenue"};
  p.options.num_threads = 1;
  p.options.incremental_maintenance = true;
  p.options.sketch_partition_size = 256;
  p.options.maintenance_cache_capacity = 32;
  p.budget.max_nodes = 100000;
  p.budget.time_limit_s = 60.0;
  p.exact = false;
  p.tail = 0.75;  // 50-80 queries a run: p90 would keep fewer than ten
  // Each family walks through the categories of one column, so a run
  // builds a fresh partition for every category once (the cold queries)
  // and maintains it on every later visit. A round's three queries fall in
  // three cost bands, tax (~111K candidates, 5 values) below ship mode
  // (~143K, 7 modes) below return flag (~182K, 3 flags), so the medians of
  // the queries and of the 15 cold queries fall inside the middle band
  // rather than on the edge between two.
  const std::vector<std::string> modes =
      lineitem->vocab[lineitem->Col("shipmode")];
  const std::vector<std::string> flags =
      lineitem->vocab[lineitem->Col("returnflag")];
  p.round = [=](int round) {
    const size_t r = static_cast<size_t>(round);
    return std::vector<Op>{
        Append(lineitem, 1000),
        Query(0, Spec(*lineitem, {Eq(*lineitem, "shipmode", modes[r % 7])},
                      {Count(10, 10), Sum(*lineitem, "quantity", -kInf, 250)},
                      "revenue")),
        Query(1, Spec(*lineitem,
                      {Eq(*lineitem, "returnflag", flags[r % 3]),
                       Cmp(*lineitem, "discount", Pred::kGe, 0.05)},
                      {Count(20, 20), Sum(*lineitem, "quantity", -kInf, 400)},
                      "extendedprice")),
        Query(2, Spec(*lineitem,
                      {Cmp(*lineitem, "tax", Pred::kEq, 0.01 * (r % 5))},
                      {Count(5, 15), Sum(*lineitem, "quantity", -kInf, 150)},
                      "revenue")),
    };
  };
  return p;
}

/// lineitem spilled to a segment file behind a block cache smaller than
/// its numeric bytes. Queries take the exact path with selective WHERE
/// clauses, so the scan dominates and the ILP stays small. Every 100 ms a
/// small batch goes to a resident side table: spilled tables are
/// append-frozen.
Plan SpilledScan(uint64_t seed) {
  Plan p;
  Rng rng(seed);
  HTable* lineitem = p.Add(NewLineitem(), 1000000, &rng);
  HTable t = NewLineitem();
  t.name = "lineitem_recent";
  HTable* recent = p.Add(std::move(t), 10000, &rng);
  p.family_names = {"discounted_small", "untaxed_bulk", "undiscounted_pricey"};
  p.options.num_threads = 1;
  p.budget.max_nodes = 100000;
  p.budget.time_limit_s = 60.0;
  p.spill_table = "lineitem";
  p.tail = 0.5;
  // Each family moves to another ship mode or return flag every round, so
  // a run sees many candidate sets. The SUM constraints rarely bind, so the
  // ILPs stay easy and the scan sets the pace; their literal moves a little
  // every round, so no text repeats and the result cache never hits.
  const std::vector<std::string> modes =
      lineitem->vocab[lineitem->Col("shipmode")];
  const std::vector<std::string> flags =
      lineitem->vocab[lineitem->Col("returnflag")];
  p.round = [=](int round) {
    const size_t r = static_cast<size_t>(round);
    const double j = 0.01 * round;
    return std::vector<Op>{
        Query(0, Spec(*lineitem,
                      {Eq(*lineitem, "shipmode", modes[r % modes.size()]),
                       Cmp(*lineitem, "discount", Pred::kGe, 0.1),
                       Cmp(*lineitem, "quantity", Pred::kLe, 10)},
                      {Count(5, 5), Sum(*lineitem, "quantity", 20 - j, kInf)},
                      "revenue")),
        Query(1, Spec(*lineitem,
                      {Eq(*lineitem, "returnflag", flags[r % flags.size()]),
                       Cmp(*lineitem, "tax", Pred::kLe, 0.0),
                       Cmp(*lineitem, "quantity", Pred::kGe, 45)},
                      {Count(8, 8),
                       Sum(*lineitem, "extendedprice", 8000 - j, kInf)},
                      "revenue")),
        Query(2, Spec(*lineitem,
                      {Eq(*lineitem, "shipmode",
                          modes[(r + 3) % modes.size()]),
                       Cmp(*lineitem, "discount", Pred::kLe, 0.0),
                       Cmp(*lineitem, "extendedprice", Pred::kGe, 3000)},
                      {Count(3, 6), Sum(*lineitem, "quantity", -kInf, 300 + j)},
                      "revenue")),
    };
  };
  p.timed_append = Append(recent, 10);
  p.append_period_ns = 100000000;
  return p;
}

// ---------------------------------------------------------------- records

struct QueryRecord {
  int family = 0;
  /// The first query in this process with its family and WHERE clause:
  /// no engine cache can hold anything for its candidate set yet.
  bool first = false;
  QuerySpec spec;
  std::string text;
  size_t rows = 0;  ///< rows of the queried table when it ran
  double seconds = 0.0;
  pb::engine::QueryResponse resp;
  ReplayOutcome replay;
  double replay_seconds = 0.0;
};

struct AppendRecord {
  std::string table;
  size_t expected_rows = 0;
  double seconds = 0.0;
  pb::Result<pb::engine::Engine::AppendOutcome> outcome =
      pb::Status::Internal("not run");
};

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) * 1e-9;
}

void TracedMetrics(const Tracer& tracer,
                   const LayerReplay& replay,
                   const std::vector<QueryRecord>& queries,
                   const std::vector<AppendRecord>& appends,
                   RunResult* result) {
  LayerInputs in;
  in.self_seconds = tracer.SelfSeconds();
  in.counters = replay.counters();
  in.appends = static_cast<int64_t>(appends.size());
  double hits = 0.0;
  double revalidated = 0.0;
  double solved = 0.0;
  for (const QueryRecord& rec : queries) {
    hits += rec.resp.result_cache_hit;
    revalidated += rec.resp.revalidated;
    if (rec.resp.result_cache_hit) continue;
    solved += 1.0;
    in.engine_overhead_s += rec.resp.total_seconds - rec.resp.parse_seconds -
                            rec.resp.solve_seconds;
    in.engine_total_s += rec.resp.total_seconds;
  }
  const double nq = std::max<double>(1.0, static_cast<double>(queries.size()));
  in.result_cache_hit_ratio = hits / nq;
  in.revalidation_ratio = revalidated / nq;
  if (solved > 0.0) {
    in.engine_overhead_s /= solved;
    in.engine_total_s /= solved;
  }
  EmitLayerMetrics(in, result);
}

}  // namespace

RunResult RunInProcess(const RunConfig& config) {
  Plan plan = config.workload == "exact_mix"      ? ExactMix(config.seed)
              : config.workload == "scale_sketch" ? ScaleSketch(config.seed)
                                                  : SpilledScan(config.seed);
  RunResult result;
  pb::engine::Engine engine(plan.options);
  for (const auto& t : plan.tables) {
    pb::Status s = engine.RegisterTable(ToDbTable(*t, 0, t->rows));
    if (!s.ok()) {
      result.Wrong("register " + t->name + ": " + s.ToString());
      return result;
    }
  }
  if (!plan.spill_table.empty()) {
    pb::Status s = engine.SpillTable(plan.spill_table, config.work_dir);
    if (!s.ok()) {
      result.Wrong("spill: " + s.ToString());
      return result;
    }
  }

  // The traced run replays every operation over its own copy of the
  // tables, with the solver configuration the engine uses.
  Tracer tracer;
  pb::solver::MilpOptions milp = plan.options.defaults.milp;
  milp.max_nodes = plan.budget.max_nodes;
  milp.time_limit_s = plan.budget.time_limit_s;
  LayerReplay replay(&tracer, plan.options.incremental_maintenance,
                     plan.options.sketch_partition_size, milp);
  if (config.trace) {
    for (const auto& t : plan.tables) {
      pb::Status s = replay.catalog()->Register(ToDbTable(*t, 0, t->rows));
      if (s.ok() && t->name == plan.spill_table) {
        s = (*replay.catalog()->GetMutable(t->name))
                ->SpillToDisk(config.work_dir + "/replay_" + t->name + ".seg");
      }
      if (!s.ok()) {
        result.Wrong("replay catalog: " + s.ToString());
        return result;
      }
    }
  }
  const double setup_s = static_cast<double>(NowNs()) * 1e-9 - config.start_ns * 1e-9;

  // ------------------------------------------------------ measured phase
  std::vector<QueryRecord> queries;
  std::vector<AppendRecord> appends;
  std::set<std::string> seen;
  Rng append_rng(config.seed ^ 0x5eed0fa99e9dULL);
  RssSampler rss("self");
  const int64_t phase_start = NowNs();
  const int64_t phase_end =
      phase_start + static_cast<int64_t>(config.seconds * 1e9);
  int64_t op_id = 0;
  auto run = [&](Op& op) {
    ++op_id;
    if (op.family < 0) {
      const size_t begin = op.table->rows;
      GenerateRows(op.table, op.rows, &append_rng);
      std::vector<pb::db::Tuple> tuples =
          ToTuples(*op.table, begin, op.table->rows);
      std::vector<pb::db::Tuple> copy;
      if (config.trace) copy = tuples;
      AppendRecord rec;
      rec.table = op.table->name;
      rec.expected_rows = op.table->rows;
      const int64_t t0 = NowNs();
      rec.outcome = engine.AppendRows(op.table->name, std::move(tuples));
      rec.seconds = Seconds(t0);
      if (config.trace) {
        const std::string err =
            replay.Append(op.table->name, std::move(copy), op_id);
        if (!err.empty()) result.Wrong("replay append: " + err);
      }
      appends.push_back(std::move(rec));
      return;
    }
    QueryRecord rec;
    rec.family = op.family;
    rec.text = op.query.Paql();
    rec.first = seen
                    .insert(std::to_string(op.family) + ":" +
                            rec.text.substr(0, rec.text.find(" SUCH THAT")))
                    .second;
    rec.rows = op.query.table->rows;
    const int64_t t0 = NowNs();
    rec.resp = engine.ExecuteQuery(0, rec.text, plan.budget);
    rec.seconds = Seconds(t0);
    rec.spec = std::move(op.query);
    if (config.trace) {
      const int64_t r0 = NowNs();
      rec.replay = replay.Query(rec.text, op_id);
      rec.replay_seconds = Seconds(r0);
    }
    rec.resp.rendered.clear();
    queries.push_back(std::move(rec));
  };
  int64_t next_append = phase_start;
  size_t timed_appends = 0;  // not counted in ops_per_s: the clock sets their rate
  for (int round = 0; NowNs() < phase_end; ++round) {
    for (Op& op : plan.round(round)) {
      while (plan.append_period_ns > 0 && next_append < phase_end &&
             NowNs() >= next_append) {
        Op append = plan.timed_append;
        run(append);
        ++timed_appends;
        next_append += plan.append_period_ns;
      }
      run(op);
    }
  }
  const double phase_s = Seconds(phase_start);
  const double peak_rss = rss.Stop();

  // --------------------------------------------------------------- checks
  AnswerChecker checker;
  std::vector<double> latencies;
  std::vector<double> cold;
  for (const QueryRecord& rec : queries) {
    ++result.attempted;
    latencies.push_back(rec.seconds * 1e3);
    // Cold: a first visit that reused no engine state (no warm-start basis
    // from a same-shaped model, no maintained partition).
    if (rec.first && !rec.resp.warm_start_hit) {
      cold.push_back(rec.seconds * 1e3);
    }
    const std::string family = plan.family_names[rec.family];
    if (!rec.resp.ok()) {
      result.Failed(family + ": " + rec.resp.status.ToString());
      continue;
    }
    if (plan.exact && !rec.resp.proven_optimal) {
      result.Failed(family + ": not proven optimal within " +
                    std::to_string(plan.budget.max_nodes) + " nodes [" +
                    rec.text + "]");
      continue;
    }
    if (rec.resp.table_rows != rec.rows) {
      result.Wrong(family + ": answered over " +
                   std::to_string(rec.resp.table_rows) + " rows, expected " +
                   std::to_string(rec.rows));
      continue;
    }
    Answer a;
    a.rows = rec.resp.package.rows;
    a.mult = rec.resp.package.multiplicity;
    a.objective = rec.resp.objective;
    a.num_candidates = rec.resp.num_candidates;
    const std::string err =
        checker.Check(rec.spec, rec.text, rec.rows, a,
                      rec.resp.proven_optimal, rec.resp.result_cache_hit);
    if (!err.empty()) result.Wrong(family + ": " + err);
    if (config.trace) {
      const double tol = 1e-6 * std::max(1.0, std::fabs(rec.resp.objective));
      if (!rec.replay.found ||
          std::fabs(rec.replay.objective - rec.resp.objective) > tol) {
        result.Wrong(family + ": traced replay reached objective " +
                     std::to_string(rec.replay.objective) + " " +
                     rec.replay.error + ", the engine " +
                     std::to_string(rec.resp.objective));
      }
    }
  }
  for (const std::string& e : checker.CheckCacheHits()) result.Wrong(e);
  std::vector<double> append_ms;
  for (const AppendRecord& rec : appends) {
    ++result.attempted;
    append_ms.push_back(rec.seconds * 1e3);
    if (!rec.outcome.ok()) {
      result.Failed("append: " + rec.outcome.status().ToString());
    } else if (rec.outcome->table_rows != rec.expected_rows) {
      result.Wrong("append acknowledged " +
                   std::to_string(rec.outcome->table_rows) + " rows, expected " +
                   std::to_string(rec.expected_rows));
    }
  }
  for (const auto& info : engine.Tables()) {
    for (const auto& t : plan.tables) {
      if (t->name == info.name && t->rows != info.rows) {
        result.Wrong(t->name + " holds " + std::to_string(info.rows) +
                     " rows after the appends, expected " +
                     std::to_string(t->rows));
      }
    }
  }

  // -------------------------------------------------------------- metrics
  if (config.trace) {
    TracedMetrics(tracer, replay, queries, appends, &result);
    const std::string path = config.trace_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".csv";
    if (!tracer.Write(path)) result.Wrong("cannot write " + path);
    return result;
  }
  result.Metric("setup_s", setup_s, "s");
  result.Metric("query_p50_ms", Median(latencies), "ms");
  result.Metric("query_tail_ms", Percentile(latencies, plan.tail), "ms");
  result.Metric("ops_per_s",
                static_cast<double>(queries.size() + appends.size() -
                                    timed_appends) /
                    phase_s,
                "ops/s");
  result.Metric("cold_query_ms", Median(cold), "ms");
  result.Metric("append_p50_ms", Median(append_ms), "ms");
  result.Metric("approx_objective_ratio", checker.ObjectiveRatio(), "ratio");
  result.Metric("peak_rss_mb", peak_rss, "MB");
  return result;
}

}  // namespace e2e
