// The three workloads of the end-to-end benchmark, driven through the public
// xdb::Engine / xdb::Collection API by one client thread with serial query
// execution. See README.md in this directory for what each one loads, its
// sizes, its seed handling and its flush policy.
#ifndef XDB_BENCH_E2E_WORKLOADS_H_
#define XDB_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace bench_e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: alternating traced and untraced blocks of operations.
  bool trace = false;
  /// Scratch directory for file-backed engines and the span dump.
  std::string work_dir;
};

struct RunReport {
  /// False when an answer was wrong outside the known-defect shapes.
  bool correct = true;
  uint64_t attempted = 0;
  /// Operations that returned an error status or a wrong answer.
  uint64_t failed = 0;
  std::vector<MetricOut> metrics;
  /// Human-readable lines printed before the result: repros, sample counts,
  /// the self-time report.
  std::vector<std::string> notes;
  /// Non-empty when the load broke or an acknowledged write was lost; the
  /// run then reports no numbers.
  std::string fatal;
};

const std::vector<std::string>& WorkloadNames();
RunReport RunWorkload(const RunConfig& config);

}  // namespace bench_e2e

#endif  // XDB_BENCH_E2E_WORKLOADS_H_
