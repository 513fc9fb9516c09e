// The four workloads. Each runs whole rounds of operations in a closed
// loop until the run's seconds are up, then checks every answer.

#ifndef E2EBENCH_HARNESS_WORKLOADS_H_
#define E2EBENCH_HARNESS_WORKLOADS_H_

#include "harness/report.h"

namespace e2e {

/// exact_mix, scale_sketch and spilled_scan: an Engine in this process.
RunResult RunInProcess(const RunConfig& config);
/// serve_mixed: pbserve on loopback, driven by client connections.
RunResult RunServeMixed(const RunConfig& config);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_WORKLOADS_H_
