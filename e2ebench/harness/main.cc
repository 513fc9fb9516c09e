// e2ebench — the end-to-end PaQL benchmark.
//
//   pbbench --workload NAME --seed N --seconds S --trace 0|1
//           --pbserve PATH --build-dir DIR
//
// Runs one workload (exact_mix, scale_sketch, spilled_scan, serve_mixed)
// for S seconds of whole rounds, checks every answer with the harness's
// own arithmetic, and prints one JSON object as the last line of stdout:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{NAME:{"value":V,
//    "unit":U},...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 replays every
// operation through each layer's public functions and reports the
// per-layer metrics. See README.md for what each number means. The exit
// code is 0 when every answer passed the harness's checks and 1 when one
// did not (the JSON line is printed either way).

#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "harness/report.h"
#include "harness/trace.h"
#include "harness/workloads.h"

namespace {

/// Block-cache budget for spilled_scan: 8 MiB, far below the spilled
/// table's numeric bytes (see README.md).
constexpr const char* kSpilledCacheBytes = "8388608";

/// A temporary directory inside the build directory, removed with
/// everything in it (spill files, server logs, CSV) when the run ends.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/tmp-XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "pbbench: %s\nusage: pbbench --workload "
               "exact_mix|scale_sketch|spilled_scan|serve_mixed --seed N "
               "--seconds S --trace 0|1 --pbserve PATH --build-dir DIR\n",
               why);
  return 2;
}

void Print(const e2e::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, value] = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(value.first) ? value.first : 0.0);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num +
           ", \"unit\": \"" + value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  config.start_ns = static_cast<double>(e2e::NowNs());
  std::string build_dir;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--pbserve") {
      config.pbserve = value;
    } else if (flag == "--build-dir") {
      build_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::string& w = config.workload;
  if (w != "exact_mix" && w != "scale_sketch" && w != "spilled_scan" &&
      w != "serve_mixed") {
    return Usage("unknown workload");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  if (build_dir.empty()) return Usage("--build-dir is required");
  config.trace = trace == 1;
  if (w == "spilled_scan") {
    // Before anything touches the process-wide block cache.
    setenv("PB_BLOCK_CACHE_BYTES", kSpilledCacheBytes, 1);
  }
  TempDir tmp(build_dir);
  if (tmp.path().empty()) {
    std::fprintf(stderr, "pbbench: cannot create a directory in %s\n",
                 build_dir.c_str());
    return 1;
  }
  config.work_dir = tmp.path();
  config.trace_dir = build_dir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(config.trace_dir, ec);

  const e2e::RunResult result = w == "serve_mixed"
                                    ? e2e::RunServeMixed(config)
                                    : e2e::RunInProcess(config);
  Print(result);
  return result.correct ? 0 : 1;
}
