// What one run reports, and the answer checks shared by every workload.

#ifndef E2EBENCH_HARNESS_REPORT_H_
#define E2EBENCH_HARNESS_REPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/query.h"
#include "harness/replay.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pbserve;    ///< path of the pbserve binary (serve_mixed)
  std::string work_dir;   ///< temporary directory, removed at exit
  std::string trace_dir;  ///< where the traced run writes its spans
  double start_ns = 0.0;  ///< process start, for setup_s
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed correctness check (prints the first few).
  void Wrong(const std::string& what);
  /// Records a failed operation (counted in `failed`; prints the first few).
  void Failed(const std::string& what);

 private:
  int printed_ = 0;
};

/// Nearest-rank percentile (p in (0, 1]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
/// The peak resident set of a process over one phase: samples VmRSS of
/// /proc/<pid>/status ("self" for this process) every 2 ms on a thread of
/// its own, from construction until Stop(). VmHWM would keep the peak of
/// the process's whole life, set-up included.
class RssSampler {
 public:
  explicit RssSampler(std::string pid);
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Ends sampling (idempotent); returns the largest sample in MiB.
  double Stop();

 private:
  void Sample();

  std::string path_;
  std::atomic<bool> stop_{false};
  double peak_kib_ = 0.0;  ///< written by the sampling thread until joined
  std::thread thread_;
};

/// Checks answers against the harness's own rows and remembers what it
/// needs to check answers against each other: proven objectives of one
/// instance must agree, and a result-cache hit must return a package some
/// miss of the same instance returned. An instance is the query text over
/// the first `table_rows` rows.
class AnswerChecker {
 public:
  /// Empty when the answer passes; otherwise why not. `exhaustive_limit`
  /// is the largest number of packages the harness enumerates to check a
  /// proven optimum.
  std::string Check(const QuerySpec& q, const std::string& text,
                    size_t table_rows, const Answer& a, bool proven,
                    bool cache_hit, double exhaustive_limit = 3e5);
  /// Compares every cache hit with the misses; returns the mismatches.
  std::vector<std::string> CheckCacheHits() const;
  /// Geometric mean of objective / upper bound over checked answers.
  double ObjectiveRatio() const;

 private:
  using Key = std::pair<std::string, size_t>;
  struct Instance {
    std::vector<size_t> cands;
    std::optional<double> optimum;
    double bound = 0.0;
    std::optional<double> proven_objective;
    std::vector<std::string> miss_packages;
  };
  Instance& Get(const QuerySpec& q, const std::string& text, size_t rows,
                double exhaustive_limit);

  std::map<Key, Instance> instances_;
  std::map<std::string, std::vector<size_t>> all_cands_;  ///< by text
  std::map<std::string, double> multiplier_;              ///< by text
  std::vector<std::pair<Key, std::string>> hits_;
  double log_ratio_sum_ = 0.0;
  int64_t ratio_n_ = 0;
};

/// What the traced run measured, for the per-layer metrics. Times are
/// seconds; means are per operation of the kind named.
struct LayerInputs {
  std::map<std::string, double> self_seconds;  ///< span self time by name
  LayerCounters counters;
  int64_t appends = 0;
  double result_cache_hit_ratio = 0.0;  ///< base: queries
  double engine_overhead_s = 0.0;       ///< mean over solved queries
  double revalidation_ratio = 0.0;      ///< base: queries
  double engine_total_s = 0.0;          ///< mean over solved queries
  double append_wait_s = 0.0;           ///< serve_mixed only
  double protocol_s = 0.0;              ///< serve_mixed only
  double transport_s = 0.0;             ///< serve_mixed only
  double response_bytes = 0.0;          ///< serve_mixed only
};

/// Emits every per-layer metric, in BENCHMARK.json order. A layer the
/// workload does not reach reads 0.
void EmitLayerMetrics(const LayerInputs& in, RunResult* result);

/// "row x mult" fingerprint of a package, for cache-hit comparisons.
std::string Fingerprint(const Answer& a);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_REPORT_H_
