// The traced replay: runs one query or append by calling each layer's
// public functions in the order Engine::Run does, with a span around each
// call, over a catalog the harness holds itself.

#ifndef E2EBENCH_HARNESS_REPLAY_H_
#define E2EBENCH_HARNESS_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/package.h"
#include "core/sketch_refine.h"
#include "core/translator.h"
#include "db/catalog.h"
#include "harness/trace.h"
#include "solver/milp.h"

namespace e2e {

/// Work counted at the layer boundaries the replay crosses.
struct LayerCounters {
  int64_t queries = 0;
  double query_seconds = 0.0;  ///< replayed queries, end to end
  int64_t filter_pins = 0;  ///< block-cache pins inside db::FilterIndices
  int64_t candidates = 0;   ///< rows it returned
  int64_t zone_map_skipped_blocks = 0;
  int64_t ilp_solves = 0;
  int64_t ilp_nonzeros = 0;
  int64_t warm_hits = 0;
  int64_t nodes = 0;
  int64_t lp_iterations = 0;      ///< every solve, SketchRefine's too
  int64_t ilp_lp_iterations = 0;  ///< direct ILP solves only
  int64_t refactorizations = 0;
  /// LP iterations of warm-started solves, and of a cold SolveMilp on the
  /// same models (the base of warm_vs_cold_lp_iterations).
  int64_t warm_lp_iterations = 0;
  int64_t cold_lp_iterations = 0;
  int64_t sketch_refines = 0;
  double partition_seconds = 0.0;
  double sketch_seconds = 0.0;
  double refine_seconds = 0.0;
  int64_t dirty_groups = 0;
  int64_t groups_reused = 0;
  int64_t block_pins = 0;
  int64_t block_misses = 0;
  int64_t block_evictions = 0;
  int64_t peak_pinned_bytes = 0;
};

struct ReplayOutcome {
  bool found = false;
  std::string error;  ///< non-empty when a layer call failed
  double objective = 0.0;
  pb::core::Package package;
};

class LayerReplay {
 public:
  /// `maintained_sketch` mirrors EngineOptions::incremental_maintenance;
  /// `partition_size` its sketch_partition_size. `milp` is the solver
  /// configuration the engine's queries run with.
  LayerReplay(Tracer* tracer, bool maintained_sketch, size_t partition_size,
              pb::solver::MilpOptions milp);

  pb::db::Catalog* catalog() { return &catalog_; }

  ReplayOutcome Query(const std::string& paql, int64_t op);
  std::string Append(const std::string& table, std::vector<pb::db::Tuple> rows,
                     int64_t op);
  const LayerCounters& counters() const { return counters_; }

 private:
  struct WarmSlot {
    pb::solver::MilpWarmStart warm;
    bool used = false;
  };
  ReplayOutcome SolveIlp(const pb::paql::AnalyzedQuery& aq,
                         const pb::core::CardinalityBounds& bounds, int64_t op);

  Tracer* tracer_;
  bool maintained_sketch_;
  size_t partition_size_;
  pb::solver::MilpOptions milp_;
  pb::db::Catalog catalog_;
  std::map<uint64_t, WarmSlot> warm_;
  std::map<std::string, std::unique_ptr<pb::core::SketchRefineState>> states_;
  LayerCounters counters_;
  /// A warm-started model waiting for its cold reference solve.
  std::optional<pb::core::IlpTranslation> cold_reference_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_REPLAY_H_
