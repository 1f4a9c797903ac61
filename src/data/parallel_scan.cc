#include "data/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "data/simd.h"
#include "util/thread_pool.h"

namespace janus {
namespace scan {

namespace {

/// Set while a thread is executing a morsel body: nested scans issued from
/// inside a worker (a consumer callback that itself scans) stay serial
/// instead of deadlocking on pool capacity.
thread_local bool t_in_scan_worker = false;

}  // namespace

size_t ParseScanThreads(const char* text, size_t hardware,
                        std::string* warning) {
  warning->clear();
  const size_t fallback = hardware > 0 ? hardware : 1;
  if (text == nullptr || *text == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (end == text || end == nullptr || *end != '\0') {
    *warning = "JANUS_SCAN_THREADS=\"" + std::string(text) +
               "\" is not a number; using " + std::to_string(fallback);
    return fallback;
  }
  if (errno == ERANGE || n <= 0) {
    *warning = "JANUS_SCAN_THREADS=\"" + std::string(text) +
               "\" is out of range (want a positive thread count); using " +
               std::to_string(fallback);
    return fallback;
  }
  // More threads than 4x the hardware only adds context-switch overhead to
  // a CPU-bound scan pool; clamp instead of letting a stray value (e.g. a
  // core *mask* pasted as a count) spawn thousands of threads.
  const size_t max_threads = 4 * fallback;
  if (static_cast<unsigned long>(n) > max_threads) {
    *warning = "JANUS_SCAN_THREADS=" + std::to_string(n) + " exceeds 4x " +
               "hardware concurrency; clamping to " +
               std::to_string(max_threads);
    return max_threads;
  }
  return static_cast<size_t>(n);
}

namespace {

size_t DefaultScanThreads() {
  std::string warning;
  const size_t n =
      ParseScanThreads(std::getenv("JANUS_SCAN_THREADS"),
                       std::thread::hardware_concurrency(), &warning);
  // SharedScanPool() builds the pool inside a magic static, so a bad value
  // is warned about exactly once per process.
  if (!warning.empty()) std::fprintf(stderr, "[janus] %s\n", warning.c_str());
  return n;
}

}  // namespace

ThreadPool* SharedScanPool() {
  // Lazily built, thread-safe by C++ magic-static initialization; no lock
  // of our own to annotate. The pool's internal state carries its own
  // capability annotations (util/thread_pool.h).
  static ThreadPool pool(DefaultScanThreads());
  return &pool;
}

ExecContext DefaultExec() {
  ExecContext ctx;
  ctx.pool = SharedScanPool();
  return ctx;
}

namespace {

/// The plan decision without the telemetry side effect (used when a caller
/// plans once for a composite operation and counts it itself).
size_t PlanNoCount(const ExecContext& ctx, size_t items, size_t min_items) {
  size_t workers = 1;
  if (ctx.pool != nullptr && !t_in_scan_worker && items >= min_items &&
      ctx.max_workers != 1) {
    workers = ctx.pool->num_threads();
    if (ctx.max_workers > 0) workers = std::min(workers, ctx.max_workers);
    // Never hand a worker less than a quarter of the cutoff's worth of
    // items (for the kernel cutoff that is exactly one morsel), so small
    // eligible scans don't shatter into dispatch overhead.
    const size_t per_worker_min = std::max<size_t>(1, min_items / 4);
    workers = std::min(workers, std::max<size_t>(1, items / per_worker_min));
  }
  return workers;
}

void CountPlan(const ExecContext& ctx, size_t workers) {
  if (ctx.counters == nullptr) return;
  if (workers > 1) {
    ctx.counters->parallel_scans.fetch_add(1, std::memory_order_relaxed);
  } else if (t_in_scan_worker) {
    ctx.counters->nested_serial_scans.fetch_add(1, std::memory_order_relaxed);
  } else {
    ctx.counters->serial_scans.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- adaptive morsel sizing -------------------------------------------------
//
// One process-wide EWMA of observed scan cost per MorselCost class, in
// ns-per-row fixed point (<< 10). Every ForEachMorsel feeds the calling
// thread's own timed share back into its class, so each estimate tracks its
// own workload mix (SIMD kernel rows and materialized-tuple items differ by
// 100x+ per unit and must never share an estimate); 0 means "no observation
// yet". Races between concurrent updates just lose one sample.

std::atomic<uint64_t> g_ns_per_row_q10[2] = {{0}, {0}};

size_t AdaptiveMorselRows(MorselCost cls) {
  const uint64_t cost =
      g_ns_per_row_q10[static_cast<int>(cls)].load(std::memory_order_relaxed);
  if (cost == 0) return kMorselRows;
  const uint64_t rows = kTargetMorselNanos * 1024 / cost;
  const size_t blocks =
      static_cast<size_t>(std::max<uint64_t>(1, rows / kBlockRows));
  return std::min(kMaxMorselRows, blocks * kBlockRows);
}

void RecordMorselCost(MorselCost cls, size_t rows, uint64_t nanos) {
  if (rows == 0 || nanos == 0) return;
  uint64_t sample = nanos * 1024 / rows;
  if (sample == 0) sample = 1;
  std::atomic<uint64_t>& ewma = g_ns_per_row_q10[static_cast<int>(cls)];
  const uint64_t prev = ewma.load(std::memory_order_relaxed);
  const uint64_t next = prev == 0 ? sample : (3 * prev + sample) / 4;
  ewma.store(next, std::memory_order_relaxed);
}

}  // namespace

size_t PlanWorkersAtCutoff(const ExecContext& ctx, size_t items,
                           size_t min_items) {
  const size_t workers = PlanNoCount(ctx, items, min_items);
  CountPlan(ctx, workers);
  return workers;
}

size_t PlanWorkers(const ExecContext& ctx, size_t rows) {
  return PlanWorkersAtCutoff(ctx, rows, ctx.parallel_min_rows);
}

MorselPlan PlanMorselsAtCutoff(const ExecContext& ctx, size_t rows,
                               size_t min_items, MorselCost cost) {
  MorselPlan plan;
  plan.cost = cost;
  plan.workers = PlanWorkersAtCutoff(ctx, rows, min_items);
  if (plan.workers <= 1 || rows == 0) {
    plan.workers = 1;
    plan.morsel_rows = rows;
    plan.morsels = rows > 0 ? 1 : 0;
    return plan;
  }
  size_t mrows = AdaptiveMorselRows(cost);
  // Keep at least ~4 morsels per worker so stealing has slack to rebalance
  // a skewed chunk, but never shrink below one vectorized block.
  const size_t cap_blocks =
      std::max<size_t>(1, rows / (4 * plan.workers * kBlockRows));
  mrows = std::min(mrows, cap_blocks * kBlockRows);
  mrows = std::max(mrows, kBlockRows);
  plan.morsel_rows = mrows;
  plan.morsels = (rows + mrows - 1) / mrows;
  return plan;
}

MorselPlan PlanMorsels(const ExecContext& ctx, size_t rows, MorselCost cost) {
  return PlanMorselsAtCutoff(ctx, rows, ctx.parallel_min_rows, cost);
}

namespace {

/// RAII scope marking the current thread as a scan worker (nested ctx scans
/// stay serial; the caller's inline share counts too).
class ScanWorkerScope {
 public:
  ScanWorkerScope() : prev_(t_in_scan_worker) { t_in_scan_worker = true; }
  ~ScanWorkerScope() { t_in_scan_worker = prev_; }

 private:
  bool prev_;
};

}  // namespace

void ForEachMorsel(const ExecContext& ctx, size_t rows, const MorselPlan& plan,
                   const std::function<void(size_t, size_t, size_t, size_t)>&
                       fn) {
  if (rows == 0) return;
  size_t workers = plan.workers;
  // Defensive clamp mirroring PlanWorkers: a fan-out issued from inside a
  // scan worker runs inline (its helpers could never be scheduled if the
  // pool is saturated with waiters).
  if (t_in_scan_worker) workers = 1;
  if (workers <= 1 || plan.morsels <= 1) {
    ScanWorkerScope scope;
    fn(0, 0, 0, rows);
    return;
  }
  const size_t mrows = plan.morsel_rows;
  const size_t morsels = plan.morsels;
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> stolen{0};
  auto claim = [&](size_t slot) {
    ScanWorkerScope scope;
    uint64_t mine = 0;
    for (size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
         c < morsels; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * mrows;
      fn(slot, c, begin, std::min(rows, begin + mrows));
      ++mine;
    }
    if (mine > 0 && slot != 0) {
      stolen.fetch_add(mine, std::memory_order_relaxed);
    }
  };
  GangTask gang(claim, workers - 1);
  ctx.pool->SubmitGang(&gang);
  {
    // The caller drains the cursor like everyone else (slot 0), timing its
    // own share to feed the adaptive sizer. Helpers that wake late find an
    // empty cursor and cost nothing — the caller never waits on a wakeup.
    ScanWorkerScope scope;
    const auto t0 = std::chrono::steady_clock::now();
    size_t my_rows = 0;
    for (size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
         c < morsels; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * mrows;
      const size_t end = std::min(rows, begin + mrows);
      fn(0, c, begin, end);
      my_rows += end - begin;
    }
    const auto t1 = std::chrono::steady_clock::now();
    RecordMorselCost(
        plan.cost, my_rows,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  }
  ctx.pool->CloseGang(&gang);
  if (ctx.counters != nullptr) {
    const uint64_t s = stolen.load(std::memory_order_relaxed);
    if (s > 0) {
      ctx.counters->stolen_morsels.fetch_add(s, std::memory_order_relaxed);
    }
  }
}

void ForEachIndex(const ExecContext& ctx, size_t count, size_t workers,
                  const std::function<void(size_t)>& fn) {
  if (t_in_scan_worker) workers = 1;
  if (workers <= 1 || count < 2) {
    ScanWorkerScope scope;
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  workers = std::min(workers, count);
  std::atomic<size_t> cursor{0};
  auto drain = [&] {
    ScanWorkerScope scope;
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  GangTask gang([&](size_t) { drain(); }, workers - 1);
  ctx.pool->SubmitGang(&gang);
  drain();
  ctx.pool->CloseGang(&gang);
}

size_t CountInRect(const ColumnStore& store,
                   const std::vector<int>& predicate_columns,
                   const Rectangle& rect, const ExecContext& ctx) {
  const size_t n = store.size();
  const MorselPlan plan = PlanMorsels(ctx, n);
  if (plan.workers <= 1) {
    return scan::CountInRect(store, predicate_columns, rect);
  }
  // Integer counts are associative: a single shared total is bit-identical
  // to the serial count no matter which worker claims which morsel.
  std::atomic<size_t> total{0};
  ForEachMorsel(ctx, n, plan,
                [&](size_t, size_t, size_t begin, size_t end) {
                  const size_t c =
                      CountRangeAtLeast(store, predicate_columns, rect, begin,
                                        end,
                                        std::numeric_limits<size_t>::max());
                  if (c > 0) total.fetch_add(c, std::memory_order_relaxed);
                });
  return total.load(std::memory_order_relaxed);
}

size_t CountInRectAtLeast(const ColumnStore& store,
                          const std::vector<int>& predicate_columns,
                          const Rectangle& rect, size_t threshold,
                          const ExecContext& ctx) {
  const size_t n = store.size();
  // Early exit bounds the useful work at roughly `threshold` scanned rows
  // (exactly that when matches are dense), so plan on that bound — a small
  // threshold over a huge store is a fast serial scan, not a fan-out whose
  // workers mostly burn rows past the crossing point.
  MorselPlan plan = PlanMorsels(ctx, std::min(n, threshold));
  if (plan.workers <= 1) {
    return scan::CountInRectAtLeast(store, predicate_columns, rect, threshold);
  }
  // The worker count and morsel size were sized from the threshold-bounded
  // work estimate, but the chunk grid must still cover the whole store — a
  // sparse predicate legitimately scans far past `threshold` rows before
  // the early exit can fire.
  plan.morsels = (n + plan.morsel_rows - 1) / plan.morsel_rows;
  // Shared early-exit: each worker counts one block at a time and folds its
  // progress into `found`; once the fleet total crosses the threshold every
  // worker — stealing ones included — stops at its next morsel claim or
  // block boundary. The returned value is clamped, so overshoot from blocks
  // in flight never leaks out. The counter is an atomic
  // (self-synchronizing), so it needs no mutex capability; CloseGang inside
  // ForEachMorsel orders the final read.
  std::atomic<size_t> found{0};
  ForEachMorsel(ctx, n, plan, [&](size_t, size_t, size_t begin, size_t end) {
    for (size_t bs = begin; bs < end; bs += kBlockRows) {
      const size_t done = found.load(std::memory_order_relaxed);
      if (done >= threshold) return;
      const size_t be = std::min(end, bs + kBlockRows);
      // `threshold - done` may be stale-high; the clamp only ever bites when
      // the fleet total crosses the threshold, so the unclamped path still
      // counts exactly.
      const size_t block = CountRangeAtLeast(store, predicate_columns, rect,
                                             bs, be, threshold - done);
      if (block > 0) {
        found.fetch_add(block, std::memory_order_relaxed);
      }
    }
  });
  return std::min(found.load(std::memory_order_relaxed), threshold);
}

std::optional<double> AggregateInRect(const ColumnStore& store, AggFunc func,
                                      int agg_column,
                                      const std::vector<int>& predicate_columns,
                                      const Rectangle& rect,
                                      const ExecContext& ctx) {
  const size_t n = store.size();
  if (func == AggFunc::kCount) {
    const size_t c = CountInRect(store, predicate_columns, rect, ctx);
    if (c == 0) return std::nullopt;
    return static_cast<double>(c);
  }
  const MorselPlan plan = PlanMorsels(ctx, n);
  if (plan.workers <= 1) {
    return scan::AggregateInRect(store, func, agg_column, predicate_columns,
                                 rect);
  }
  // Floating-point partials live per *chunk* and merge in chunk order, so
  // the summation tree depends only on the plan, not on which worker stole
  // which morsel.
  std::vector<AggAccumulator> partial(plan.morsels);
  ForEachMorsel(ctx, n, plan,
                [&](size_t, size_t chunk, size_t begin, size_t end) {
                  partial[chunk] = AggregateRange(
                      store, func, agg_column, predicate_columns, rect, begin,
                      end);
                });
  AggAccumulator acc;
  for (const AggAccumulator& p : partial) acc.Merge(p);
  return acc.Finish(func);
}

std::optional<double> ExactAnswer(const ColumnStore& store, const AggQuery& q,
                                  const ExecContext& ctx) {
  return AggregateInRect(store, q.func, q.agg_column, q.predicate_columns,
                         q.rect, ctx);
}

std::vector<std::optional<double>> ExactAnswers(
    const ColumnStore& store, const std::vector<AggQuery>& queries,
    const ExecContext& ctx) {
  std::vector<std::optional<double>> out(queries.size());
  // Queries are the better fan-out axis once there are at least two per
  // worker: each runs the serial kernel in one cursor claim, so the batch
  // scales without any merge step. A small batch over a big store
  // parallelizes inside each query instead.
  const size_t workers = PlanNoCount(
      ctx, queries.size() * std::max<size_t>(store.size(), 1),
      ctx.parallel_min_rows);
  if (workers > 1 && queries.size() >= 2 * workers) {
    if (ctx.counters != nullptr) {
      ctx.counters->parallel_scans.fetch_add(1, std::memory_order_relaxed);
    }
    ForEachIndex(ctx, queries.size(), workers, [&](size_t i) {
      out[i] = scan::ExactAnswer(store, queries[i]);
    });
    return out;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = ExactAnswer(store, queries[i], ctx);
  }
  return out;
}

std::pair<double, double> ColumnMinMax(const ColumnStore& store, int column,
                                       const ExecContext& ctx) {
  const size_t n = store.size();
  const ColumnSpan col = store.column(column);
  if (col.data == nullptr) {
    if (n == 0) {
      return {std::numeric_limits<double>::max(),
              std::numeric_limits<double>::lowest()};
    }
    return {0.0, 0.0};  // column outside the schema reads 0.0 everywhere
  }
  const MorselPlan plan = PlanMorsels(ctx, n);
  // Min/max folds are order-insensitive, so per-slot partials are
  // bit-identical to serial under any stealing pattern.
  std::vector<double> lo(plan.workers, std::numeric_limits<double>::max());
  std::vector<double> hi(plan.workers, std::numeric_limits<double>::lowest());
  ForEachMorsel(ctx, n, plan,
                [&](size_t slot, size_t, size_t begin, size_t end) {
                  double mn;
                  double mx;
                  simd::Active().min_max(col.data + begin, end - begin, &mn,
                                         &mx);
                  lo[slot] = std::min(lo[slot], mn);
                  hi[slot] = std::max(hi[slot], mx);
                });
  double mn = lo[0];
  double mx = hi[0];
  for (size_t w = 1; w < plan.workers; ++w) {
    mn = std::min(mn, lo[w]);
    mx = std::max(mx, hi[w]);
  }
  return {mn, mx};
}

}  // namespace scan
}  // namespace janus
