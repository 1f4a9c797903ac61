#ifndef JANUS_DATA_EXEC_CONTEXT_H_
#define JANUS_DATA_EXEC_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace janus {

class ThreadPool;

namespace scan {

/// Telemetry of the parallel execution layer: how many scans chose the
/// morsel-parallel path vs stayed serial, and how the work-stealing
/// scheduler behaved. Engines own one instance each and surface the numbers
/// through EngineStats.
struct ScanCounters {
  std::atomic<uint64_t> parallel_scans{0};
  /// Scans that stayed serial for a top-level reason: cost cutoff, no pool,
  /// or a one-thread plan.
  std::atomic<uint64_t> serial_scans{0};
  /// Scans issued from *inside* a morsel worker (a consumer callback that
  /// itself scans). They always run serial — a nested fan-out could never be
  /// scheduled on a saturated pool — but they are a distinct signal: a high
  /// count means a hot path hides a fan-out opportunity behind another scan,
  /// not that the planner chose serial.
  std::atomic<uint64_t> nested_serial_scans{0};
  /// Morsels claimed by pool helpers rather than the calling thread — the
  /// direct measure of how much work stealing actually moved.
  std::atomic<uint64_t> stolen_morsels{0};
};

/// Default cost cutoff: scans below this many rows stay serial. Dispatching
/// a worker costs roughly a queue push + wakeup (~µs); a 4096-row block
/// filters in ~1µs, so parallelism only pays once a scan spans many blocks.
inline constexpr size_t kDefaultParallelMinRows = 64 * 1024;

/// Execution context threaded through every archival scan consumer. A
/// default-constructed context is the serial path (no pool); engines build
/// theirs from EngineConfig (scan_threads / parallel_min_rows) against the
/// process-wide shared pool.
struct ExecContext {
  /// Pool the morsels are dispatched on; nullptr pins the scan serial.
  ThreadPool* pool = nullptr;
  /// Cap on workers per scan; 0 means "all pool threads".
  size_t max_workers = 0;
  /// Cost cutoff: scans of fewer rows run serial even with a pool.
  size_t parallel_min_rows = kDefaultParallelMinRows;
  /// Optional telemetry sink (an engine's own counters).
  ScanCounters* counters = nullptr;
};

/// Validated parse of a JANUS_SCAN_THREADS-style value. `hardware` is the
/// detected hardware concurrency (pass std::thread::hardware_concurrency(),
/// 0 tolerated). Rules:
///  - null/empty/garbage (non-numeric, trailing junk, overflow, <= 0):
///    fall back to max(hardware, 1) and describe the problem in *warning;
///  - values above 4x hardware are clamped to that bound (oversubscribing a
///    scan pool past that only adds context-switch overhead), also warned;
///  - otherwise the parsed value is returned and *warning is left empty.
/// Pure function so the validation rules are unit-testable; the process-wide
/// pool's constructor prints the warning once.
size_t ParseScanThreads(const char* text, size_t hardware,
                        std::string* warning);

/// Process-wide scan pool, created lazily on first use with
/// JANUS_SCAN_THREADS threads (default: std::thread::hardware_concurrency;
/// malformed values are validated by ParseScanThreads and warned about once
/// on stderr). The lazy build is a C++ magic static — thread-safe without a
/// lock of its own; the pool's queue/counters carry the capability
/// annotations.
ThreadPool* SharedScanPool();

/// Shared pool + default cutoff, no counter sink — the context free-standing
/// consumers (benches, examples, ground-truth helpers) use.
ExecContext DefaultExec();

}  // namespace scan
}  // namespace janus

#endif  // JANUS_DATA_EXEC_CONTEXT_H_
