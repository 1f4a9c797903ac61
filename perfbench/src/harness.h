#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement helpers of the end-to-end benchmark: percentiles, input
// digests, the open-loop pacing loop and the in-memory span log. They carry
// no engine logic, so tests/harness_test.cc checks them in isolation.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "data/schema.h"
#include "data/workload.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

/// Percentile of an ascending sample by linear interpolation at rank
/// p/100*(n-1): the type-7 estimator of janus::Percentile, without the copy
/// and sort, so several percentiles of one large sample share one sort.
double SortedPercentile(const std::vector<double>& sorted, double p);

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double mean = 0;
};

/// Sorts `v` in place and summarizes it (all zeros for an empty sample).
Summary Summarize(std::vector<double>* v);

/// One measurement window: its length, the updates and queries completed
/// in it, and the latencies of the timed requests that started in it (a
/// request may carry several updates, like an insert frame).
struct Window {
  double seconds = 0;
  uint64_t updates = 0;
  uint64_t queries = 0;
  std::vector<double> update_ns;
  std::vector<double> query_ns;
};

/// Rates and latency percentiles computed per window, then the median
/// across windows, so a disturbance confined to a few windows (another
/// tenant of the machine, a page-cache flush) does not move the result.
struct WindowedStats {
  size_t windows = 0;
  double update_rate = 0;  ///< updates per second
  double query_rate = 0;
  double update_p50_ns = 0;
  double update_p99_ns = 0;
  double query_p50_ns = 0;
  double query_p99_ns = 0;
};
WindowedStats MedianOverWindows(std::vector<Window>* windows);

// --- input digests -----------------------------------------------------------

/// FNV-1a over the exact bits of the generated inputs, so two runs can be
/// shown to have consumed identical rows and op streams.
class Digest {
 public:
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  /// Id plus the first `columns` values of the row.
  void Row(const janus::Tuple& t, int columns);
  void Query(const janus::AggQuery& q);

  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// --- deterministic per-id values ---------------------------------------------

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x);

/// Uniform double in [0, 1) that depends only on (seed, id, stream).
double UnitAt(uint64_t seed, uint64_t id, uint64_t stream);

/// Normal draw (Box-Muller over two UnitAt values) that depends only on
/// (seed, id, stream).
double NormalAt(uint64_t seed, uint64_t id, uint64_t stream, double mean,
                double stddev);

// --- open-loop pacing --------------------------------------------------------

/// Wall clock of the open loop in seconds since construction. Waits sleep
/// until shortly before the deadline, then yield until it passes, so a
/// 10 µs schedule is kept without pinning a core.
class PacingClock {
 public:
  PacingClock() : origin_(SteadyClock::now()) {}
  double Now() const {
    return std::chrono::duration<double>(SteadyClock::now() - origin_).count();
  }
  void SleepUntil(double t) const {
    double now = Now();
    if (t - now > 200e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(t - now - 100e-6));
    }
    while (Now() < t) std::this_thread::yield();
  }

 private:
  SteadyClock::time_point origin_;
};

/// Latency and lateness samples of one open-loop generator, in seconds.
struct OpenLoopSamples {
  std::vector<double> latency;   ///< completion minus scheduled send time
  std::vector<double> lateness;  ///< actual minus scheduled send time
};

/// Issues op(i) at scheduled times start + i * interval for i < max_ops,
/// stopping at the first op scheduled at or after `deadline`. Each op is
/// timed from its scheduled time, so one slow op charges every op queued
/// behind it (no coordinated omission). prepare(i) builds the op's input
/// before the wait, outside the timed part. Returns the number of ops
/// issued.
template <typename Clock, typename Prepare, typename Op>
size_t RunOpenLoop(const Clock& clock, double start, double interval,
                   size_t max_ops, double deadline, Prepare&& prepare,
                   Op&& op, OpenLoopSamples* out) {
  size_t i = 0;
  for (; i < max_ops; ++i) {
    const double due = start + static_cast<double>(i) * interval;
    if (due >= deadline) break;
    prepare(i);
    clock.SleepUntil(due);
    const double sent = clock.Now();
    op(i);
    const double done = clock.Now();
    out->lateness.push_back(sent - due);
    out->latency.push_back(done - due);
  }
  return i;
}

// --- spans -------------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` is the id of the span
/// that caused it (0 for a root); spans of one request share `request`.
struct Span {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store, written out once when the run ends. Recording is
/// a mutex-guarded append, so callers sample which requests they trace.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  /// Name table index for `name` (interned on first use).
  uint32_t Intern(const std::string& name);
  std::string NameOf(uint32_t name) const;

  /// Fresh span id (never 0).
  uint64_t NextId();

  /// Append a finished span; spans beyond the capacity are counted, not
  /// kept.
  void Record(const Span& s);

  std::vector<Span> spans() const;
  size_t dropped() const;

  /// CSV dump: name,request,id,parent,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  const size_t capacity_;
  mutable janus::Mutex mu_;
  std::vector<std::string> names_ GUARDED_BY(mu_);
  std::vector<Span> spans_ GUARDED_BY(mu_);
  size_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

/// RAII span: opens at construction, records at destruction. Spans nest
/// per thread: a span opened while another is open on the same thread
/// takes it as parent. A null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint32_t name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Per-name totals over a span set. A span's self time is its duration
/// minus the part of its interval covered by the union of its children.
struct SelfTime {
  uint32_t name = 0;
  size_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
