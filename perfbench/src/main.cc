// End-to-end benchmark program. Usage:
//
//   perfbench --workload <slide|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-dir <dir>]
//
// Prints human-readable report lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1. Exits 1 (after naming the
// failed checks) when an answer is wrong, 2 on a usage or run error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (key == "--trace-dir") {
      o->trace_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !have_workload) return false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    if (w == o->workload) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <slide|serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <d>]\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunOutcome out;
  try {
    out = perfbench::RunWorkload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }

  const auto& names = opts.trace ? perfbench::PerLayerMetricNames()
                                 : perfbench::EndToEndMetricNames();
  std::string metrics;
  for (const std::string& name : names) {
    const perfbench::Metric* m = nullptr;
    for (const perfbench::Metric& x : out.metrics) {
      if (x.name == name) m = &x;
    }
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   name.c_str());
      return 2;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m->value,
                  m->unit.c_str());
    metrics += buf;
  }
  const bool correct = out.failed_checks.empty();
  for (const std::string& check : out.failed_checks) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", check.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
