#include "harness/replay.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/pruning.h"
#include "core/translator.h"
#include "db/ops.h"
#include "paql/analyzer.h"
#include "storage/block_cache.h"
#include "storage/storage_budget.h"

namespace e2e {

namespace {

/// Block pins of the process-wide block cache so far: every pin is a hit
/// or a miss.
uint64_t Pins() {
  const pb::storage::BlockCacheStats s =
      pb::storage::BlockCache::Default()->stats();
  return s.hits + s.misses;
}

}  // namespace

LayerReplay::LayerReplay(Tracer* tracer, bool maintained_sketch,
                         size_t partition_size, pb::solver::MilpOptions milp)
    : tracer_(tracer),
      maintained_sketch_(maintained_sketch),
      partition_size_(partition_size),
      milp_(std::move(milp)) {}

ReplayOutcome LayerReplay::Query(const std::string& paql, int64_t op) {
  ReplayOutcome out;
  ++counters_.queries;
  const int64_t start_ns = NowNs();
  const pb::storage::BlockCacheStats before =
      pb::storage::BlockCache::Default()->stats();
  pb::storage::StorageBudget budget = pb::storage::StorageBudget::Limited(0);
  {
    pb::storage::StorageBudgetScope scope(budget);
    ScopedSpan root(tracer_, "op", op);

    pb::Result<pb::paql::AnalyzedQuery> aq_or = [&] {
      ScopedSpan s(tracer_, "paql", op);
      return pb::paql::ParseAndAnalyze(paql, catalog_);
    }();
    if (!aq_or.ok()) {
      out.error = aq_or.status().ToString();
      return out;
    }
    const pb::paql::AnalyzedQuery& aq = *aq_or;

    const uint64_t pins_before = Pins();
    pb::Result<std::vector<size_t>> cands_or = [&] {
      ScopedSpan s(tracer_, "db.filter", op);
      return pb::db::FilterIndices(*aq.table, aq.query.where);
    }();
    if (!cands_or.ok()) {
      out.error = cands_or.status().ToString();
      return out;
    }
    counters_.filter_pins += static_cast<int64_t>(Pins() - pins_before);
    counters_.candidates += static_cast<int64_t>(cands_or->size());

    pb::Result<pb::core::CardinalityBounds> bounds_or = [&] {
      ScopedSpan s(tracer_, "core.prune", op);
      return pb::core::DeriveCardinalityBounds(aq, *cands_or);
    }();
    if (!bounds_or.ok()) {
      out.error = bounds_or.status().ToString();
      return out;
    }
    counters_.zone_map_skipped_blocks += bounds_or->zone_map_skipped_blocks;
    if (bounds_or->infeasible) {
      out.error = "pruning proves the query infeasible";
      return out;
    }

    if (maintained_sketch_ && aq.extreme_constraints.empty() &&
        !aq.table->spilled()) {
      std::unique_ptr<pb::core::SketchRefineState>& state =
          states_[std::string(pb::StripAsciiWhitespace(paql))];
      if (!state) state = std::make_unique<pb::core::SketchRefineState>();
      pb::core::SketchRefineOptions sro;
      sro.partition_size = partition_size_;
      sro.compute = milp_.compute;
      sro.milp = milp_;
      sro.state = state.get();
      pb::Result<pb::core::SketchRefineResult> r_or = [&] {
        ScopedSpan s(tracer_, "core.sketch_refine", op);
        return pb::core::SketchRefine(aq, sro);
      }();
      if (r_or.ok() && r_or->found) {
        ++counters_.sketch_refines;
        counters_.partition_seconds += r_or->partition_seconds;
        counters_.sketch_seconds += r_or->sketch_seconds;
        counters_.refine_seconds += r_or->refine_seconds;
        counters_.dirty_groups += r_or->dirty_groups;
        counters_.groups_reused += r_or->groups_reused;
        counters_.lp_iterations += r_or->lp_iterations;
        counters_.refactorizations += r_or->lp_refactorizations;
        counters_.zone_map_skipped_blocks += r_or->zone_map_skipped_blocks;
        out.found = true;
        out.objective = r_or->objective;
        out.package = r_or->package;
      } else if (!r_or.ok() &&
                 r_or.status().code() != pb::StatusCode::kUnimplemented) {
        out.error = r_or.status().ToString();
      } else {
        // The engine falls back to the exact route here too.
        out = SolveIlp(aq, *bounds_or, op);
      }
    } else {
      out = SolveIlp(aq, *bounds_or, op);
    }
  }
  counters_.query_seconds += static_cast<double>(NowNs() - start_ns) * 1e-9;
  const pb::storage::BlockCacheStats after =
      pb::storage::BlockCache::Default()->stats();
  counters_.block_pins += static_cast<int64_t>(
      (after.hits + after.misses) - (before.hits + before.misses));
  counters_.block_misses += static_cast<int64_t>(after.misses - before.misses);
  counters_.block_evictions +=
      static_cast<int64_t>(after.evictions - before.evictions);
  counters_.peak_pinned_bytes =
      std::max(counters_.peak_pinned_bytes, budget.peak_pinned_bytes());
  if (cold_reference_) {
    pb::Result<pb::solver::MilpResult> cold =
        pb::solver::SolveMilp(cold_reference_->model, milp_);
    if (cold.ok()) counters_.cold_lp_iterations += cold->lp_iterations;
    cold_reference_.reset();
  }
  return out;
}

ReplayOutcome LayerReplay::SolveIlp(const pb::paql::AnalyzedQuery& aq,
                                    const pb::core::CardinalityBounds& bounds,
                                    int64_t op) {
  ReplayOutcome out;
  pb::core::TranslateOptions topts;
  topts.bounds = &bounds;
  pb::Result<pb::core::IlpTranslation> tr_or = [&] {
    ScopedSpan s(tracer_, "core.translate", op);
    return pb::core::TranslateToIlp(aq, topts);
  }();
  if (!tr_or.ok()) {
    out.error = tr_or.status().ToString();
    return out;
  }
  const pb::core::IlpTranslation& tr = *tr_or;
  ++counters_.ilp_solves;

  // The engine's warm-start cache, keyed the same way.
  const uint64_t signature = tr.model.StructuralSignature();
  WarmSlot& slot = warm_[signature];
  const bool warm_hit = slot.used && slot.warm.model_signature == signature;
  pb::solver::MilpOptions milp = milp_;
  milp.warm = &slot.warm;
  pb::Result<pb::solver::MilpResult> r_or = [&] {
    ScopedSpan s(tracer_, "solver.milp", op);
    return pb::solver::SolveMilp(tr.model, milp);
  }();
  if (!r_or.ok()) {
    out.error = r_or.status().ToString();
    return out;
  }
  slot.used = true;
  const pb::solver::MilpResult& r = *r_or;
  counters_.ilp_nonzeros += tr.model.csc().nnz();
  counters_.nodes += r.nodes;
  counters_.lp_iterations += r.lp_iterations;
  counters_.ilp_lp_iterations += r.lp_iterations;
  counters_.refactorizations += r.lp_refactorizations;
  if (warm_hit) {
    ++counters_.warm_hits;
    counters_.warm_lp_iterations += r.lp_iterations;
  }
  if (!r.has_solution()) {
    out.error = std::string("solver stopped with status ") +
                pb::solver::MilpStatusToString(r.status);
    return out;
  }
  {
    ScopedSpan s(tracer_, "core.decode", op);
    out.package = pb::core::DecodeSolution(tr, r.x);
  }
  out.found = true;
  out.objective = r.objective;
  // The base of warm_vs_cold_lp_iterations: Query solves this model again
  // cold, after the operation's spans have closed.
  if (warm_hit) cold_reference_ = std::move(*tr_or);
  return out;
}

std::string LayerReplay::Append(const std::string& table,
                                std::vector<pb::db::Tuple> rows, int64_t op) {
  pb::Result<pb::db::Table*> t_or = catalog_.GetMutable(table);
  if (!t_or.ok()) return t_or.status().ToString();
  ScopedSpan root(tracer_, "op", op);
  ScopedSpan s(tracer_, "db.append", op);
  pb::Status st = (*t_or)->AppendRows(std::move(rows));
  return st.ok() ? "" : st.ToString();
}

}  // namespace e2e
