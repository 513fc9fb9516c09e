#include "harness/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

namespace {
constexpr int kMaxPrinted = 10;
}

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (printed_++ < kMaxPrinted) {
    std::fprintf(stderr, "e2ebench: WRONG: %s\n", what.c_str());
  }
}

void RunResult::Failed(const std::string& what) {
  ++failed;
  if (printed_++ < kMaxPrinted) {
    std::fprintf(stderr, "e2ebench: FAILED: %s\n", what.c_str());
  }
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

RssSampler::RssSampler(std::string pid)
    : path_("/proc/" + pid + "/status") {
  Sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Sample();
    }
  });
}

void RssSampler::Sample() {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      peak_kib_ = std::max(peak_kib_, std::strtod(line.c_str() + 6, nullptr));
      return;
    }
  }
}

double RssSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    Sample();
  }
  return peak_kib_ / 1024.0;
}

std::string Fingerprint(const Answer& a) {
  std::string s;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    s += std::to_string(a.rows[i]) + "x" + std::to_string(a.mult[i]) + ",";
  }
  return s;
}

AnswerChecker::Instance& AnswerChecker::Get(const QuerySpec& q,
                                            const std::string& text,
                                            size_t rows,
                                            double exhaustive_limit) {
  auto [it, inserted] = instances_.try_emplace({text, rows});
  Instance& inst = it->second;
  if (!inserted) return inst;
  // Appends only add rows at the end, so an instance's candidates are a
  // prefix of the candidates over every row the harness generated.
  auto [all, fresh] = all_cands_.try_emplace(text);
  if (fresh) all->second = Candidates(q, q.table->rows);
  const std::vector<size_t>& full = all->second;
  inst.cands.assign(full.begin(),
                    std::lower_bound(full.begin(), full.end(), rows));
  auto [m, first] = multiplier_.try_emplace(text, 0.0);
  if (first) m->second = BestMultiplier(q, inst.cands);
  inst.bound = UpperBoundAt(q, inst.cands, m->second);
  inst.optimum = ExhaustiveOptimum(q, inst.cands, exhaustive_limit);
  return inst;
}

std::string AnswerChecker::Check(const QuerySpec& q, const std::string& text,
                                 size_t table_rows, const Answer& a,
                                 bool proven, bool cache_hit,
                                 double exhaustive_limit) {
  Instance& inst = Get(q, text, table_rows, exhaustive_limit);
  const std::string where = " [" + text + " over " +
                            std::to_string(table_rows) + " rows]";
  std::string err = CheckAnswer(q, inst.cands, a);
  if (!err.empty()) return err + where;
  const double tol = 1e-6 * std::max(1.0, std::fabs(a.objective));
  if (a.objective > inst.bound + tol) {
    return "objective " + std::to_string(a.objective) +
           " exceeds the harness upper bound " + std::to_string(inst.bound) +
           where;
  }
  if (inst.bound > 0.0 && a.objective > 0.0) {
    log_ratio_sum_ += std::log(a.objective / inst.bound);
    ++ratio_n_;
  }
  if (proven) {
    if (inst.optimum && std::fabs(*inst.optimum - a.objective) > tol) {
      return "proven-optimal objective " + std::to_string(a.objective) +
             " but exhaustive search finds " + std::to_string(*inst.optimum) +
             where;
    }
    if (inst.proven_objective &&
        std::fabs(*inst.proven_objective - a.objective) > tol) {
      return "proven-optimal objective " + std::to_string(a.objective) +
             " differs from an earlier proven " +
             std::to_string(*inst.proven_objective) + where;
    }
    inst.proven_objective = a.objective;
  }
  if (cache_hit) {
    hits_.push_back({{text, table_rows}, Fingerprint(a)});
  } else {
    inst.miss_packages.push_back(Fingerprint(a));
  }
  return "";
}

std::vector<std::string> AnswerChecker::CheckCacheHits() const {
  std::vector<std::string> out;
  for (const auto& [key, fp] : hits_) {
    const auto& misses = instances_.at(key).miss_packages;
    if (std::find(misses.begin(), misses.end(), fp) == misses.end()) {
      out.push_back("result-cache hit returned a package no miss returned [" +
                    key.first + " over " + std::to_string(key.second) +
                    " rows]");
    }
  }
  return out;
}

double AnswerChecker::ObjectiveRatio() const {
  return ratio_n_ == 0 ? 0.0
                       : std::exp(log_ratio_sum_ / static_cast<double>(ratio_n_));
}

void EmitLayerMetrics(const LayerInputs& in, RunResult* r) {
  const LayerCounters& c = in.counters;
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto self = [&](const std::string& name) {
    auto it = in.self_seconds.find(name);
    return it == in.self_seconds.end() ? 0.0 : it->second;
  };
  const double q = static_cast<double>(c.queries);
  const double solves = static_cast<double>(c.ilp_solves);
  const double sketches = static_cast<double>(c.sketch_refines);
  const double pins = static_cast<double>(c.block_pins);
  r->Metric("paql.parse_analyze_us", per(self("paql"), q) * 1e6, "us");
  r->Metric("db.filter_ms", per(self("db.filter"), q) * 1e3, "ms");
  r->Metric("db.filter_pins_per_candidate",
            per(static_cast<double>(c.filter_pins),
                static_cast<double>(c.candidates)),
            "ratio");
  r->Metric("db.append_ms",
            per(self("db.append"), static_cast<double>(in.appends)) * 1e3,
            "ms");
  r->Metric("core.prune_ms", per(self("core.prune"), q) * 1e3, "ms");
  r->Metric("core.zone_map_skipped_blocks",
            per(static_cast<double>(c.zone_map_skipped_blocks), q), "count");
  r->Metric("core.translate_ms", per(self("core.translate"), solves) * 1e3,
            "ms");
  r->Metric("core.ilp_nonzeros", per(static_cast<double>(c.ilp_nonzeros), solves),
            "count");
  r->Metric("core.sketch_partition_ms",
            per(c.partition_seconds, sketches) * 1e3, "ms");
  r->Metric("core.sketch_ms", per(c.sketch_seconds, sketches) * 1e3, "ms");
  r->Metric("core.refine_ms", per(c.refine_seconds, sketches) * 1e3, "ms");
  r->Metric("core.dirty_groups", per(static_cast<double>(c.dirty_groups), sketches),
            "count");
  r->Metric("core.groups_reused",
            per(static_cast<double>(c.groups_reused), sketches), "count");
  r->Metric("core.group_reuse_ratio",
            per(static_cast<double>(c.groups_reused),
                static_cast<double>(c.groups_reused + c.dirty_groups)),
            "ratio");
  r->Metric("solver.milp_ms", per(self("solver.milp"), solves) * 1e3, "ms");
  r->Metric("solver.nodes", per(static_cast<double>(c.nodes), solves), "count");
  r->Metric("solver.lp_iterations", per(static_cast<double>(c.lp_iterations), q),
            "count");
  r->Metric("solver.lp_iterations_per_node",
            per(static_cast<double>(c.ilp_lp_iterations),
                static_cast<double>(c.nodes)),
            "ratio");
  r->Metric("solver.refactorizations",
            per(static_cast<double>(c.refactorizations), q), "count");
  r->Metric("solver.warm_start_hit_ratio",
            per(static_cast<double>(c.warm_hits), solves), "ratio");
  r->Metric("solver.warm_vs_cold_lp_iterations",
            per(static_cast<double>(c.warm_lp_iterations),
                static_cast<double>(c.cold_lp_iterations)),
            "ratio");
  r->Metric("engine.result_cache_hit_ratio", in.result_cache_hit_ratio,
            "ratio");
  r->Metric("engine.overhead_us", in.engine_overhead_s * 1e6, "us");
  r->Metric("engine.revalidations", in.revalidation_ratio, "ratio");
  r->Metric("engine.append_wait_ms", in.append_wait_s * 1e3, "ms");
  r->Metric("engine.total_ms", in.engine_total_s * 1e3, "ms");
  r->Metric("trace.replay_total_ms", per(c.query_seconds, q) * 1e3, "ms");
  r->Metric("storage.block_cache_hit_ratio",
            per(pins - static_cast<double>(c.block_misses), pins), "ratio");
  r->Metric("storage.block_misses", per(static_cast<double>(c.block_misses), q),
            "count");
  r->Metric("storage.evictions", per(static_cast<double>(c.block_evictions), q),
            "count");
  r->Metric("storage.pins_per_query", per(pins, q), "count");
  r->Metric("storage.peak_pinned_bytes",
            static_cast<double>(c.peak_pinned_bytes), "bytes");
  r->Metric("server.protocol_us", in.protocol_s * 1e6, "us");
  r->Metric("server.transport_us", in.transport_s * 1e6, "us");
  r->Metric("server.response_bytes", in.response_bytes, "bytes");
}

}  // namespace e2e
