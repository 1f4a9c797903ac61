#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer numbers, spans, and no end-to-end claims.
  bool trace = false;
  /// Where the traced run writes its span CSV (empty: not written).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunOutcome {
  /// Names of the correctness checks that failed (empty: all passed).
  std::vector<std::string> failed_checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every metric the run computed, end-to-end and per-layer alike.
  std::vector<Metric> metrics;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Metric names reported in the result line: end-to-end for untraced
/// runs, per-layer for traced runs.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

/// Generate the inputs from the seed, set up, run, check and measure one
/// workload. Human-readable report lines go to stdout as the run goes.
RunOutcome RunWorkload(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
