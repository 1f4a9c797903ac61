// Randomized equivalence suite for the morsel-parallel execution layer
// (data/parallel_scan.h): every parallel kernel must agree with its serial
// counterpart — bit-identical counts, 1e-12-relative aggregates — across
// worker counts 1/2/8, on stores with deletes mid-store (swap-remove holes),
// and the parallel consumers (Dpt exact init, batched catch-up, SRS-style
// membership) must match their serial runs. Seeded via JANUS_TEST_SEED; the
// worker count of each case is pinned explicitly, so CI runs reproduce.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/catchup.h"
#include "core/dpt.h"
#include "core/spt.h"
#include "data/generators.h"
#include "data/parallel_scan.h"
#include "data/scan.h"
#include "data/table.h"
#include "tests/test_seed.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace janus {
namespace {

constexpr size_t kRows = 60000;
const std::vector<size_t> kThreadCounts = {1, 2, 8};

/// Relative difference with a 0/0 == 0 convention.
double RelDiff(double a, double b) {
  if (a == b) return 0;
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0 ? std::abs(a - b) / scale : 0;
}

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratedDataset ds = GenerateUniform(kRows, 2, TestSeed());
    schema_ = ds.schema;
    table_ = std::make_unique<DynamicTable>(ds.schema);
    for (const Tuple& t : ds.rows) table_->Insert(t);
    // Deletes mid-store: swap-remove punches holes so the physical order no
    // longer matches insertion order.
    Rng rng(TestSeed() + 1);
    for (size_t i = 0; i < kRows / 5; ++i) {
      table_->Delete(rng.NextUint64(kRows));
    }
    rows_live_ = table_->size();
  }

  /// Context pinned to exactly `threads` workers with a tiny cutoff, so the
  /// parallel path engages even on a test-sized store.
  scan::ExecContext Ctx(ThreadPool* pool, size_t threads) const {
    scan::ExecContext ctx;
    ctx.pool = threads > 1 ? pool : nullptr;
    ctx.max_workers = threads;
    ctx.parallel_min_rows = 1024;
    return ctx;
  }

  const ColumnStore& store() const { return table_->store(); }

  Schema schema_;
  std::unique_ptr<DynamicTable> table_;
  size_t rows_live_ = 0;
};

TEST_F(ParallelScanTest, CountKernelsMatchSerialBitExactly) {
  Rng rng(TestSeed() + 2);
  const std::vector<int> pred1 = {0};
  const std::vector<int> pred2 = {0, 1};
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const scan::ExecContext ctx = Ctx(&pool, threads);
    for (int i = 0; i < 25; ++i) {
      double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
      if (a > b) std::swap(a, b);
      double c = rng.Uniform(0, 1), d = rng.Uniform(0, 1);
      if (c > d) std::swap(c, d);
      const Rectangle r1({a}, {b});
      const Rectangle r2({a, c}, {b, d});
      EXPECT_EQ(scan::CountInRect(store(), pred1, r1),
                scan::CountInRect(store(), pred1, r1, ctx))
          << "threads=" << threads;
      EXPECT_EQ(scan::CountInRect(store(), pred2, r2),
                scan::CountInRect(store(), pred2, r2, ctx))
          << "threads=" << threads;
    }
  }
}

TEST_F(ParallelScanTest, CountAtLeastMatchesSerialAtEveryThreshold) {
  const std::vector<int> pred = {0};
  const Rectangle half({0.25}, {0.75});
  const size_t exact = scan::CountInRect(store(), pred, half);
  ASSERT_GT(exact, 0u);
  // Thresholds around block boundaries, the exact count, and beyond — the
  // mid-block clamp must behave identically on every path.
  const std::vector<size_t> thresholds = {
      1, 7, scan::kBlockRows - 1, scan::kBlockRows, scan::kBlockRows + 1,
      exact / 2, exact - 1, exact, exact + 1,
      std::numeric_limits<size_t>::max()};
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const scan::ExecContext ctx = Ctx(&pool, threads);
    for (size_t th : thresholds) {
      if (th == 0) continue;
      const size_t expected = std::min(exact, th);
      EXPECT_EQ(expected,
                scan::CountInRectAtLeast(store(), pred, half, th))
          << "serial threshold=" << th;
      EXPECT_EQ(expected,
                scan::CountInRectAtLeast(store(), pred, half, th, ctx))
          << "threads=" << threads << " threshold=" << th;
    }
  }
  // Multi-predicate threshold path (scalar tail rows).
  const std::vector<int> pred2 = {0, 1};
  const Rectangle box({0.1, 0.2}, {0.9, 0.8});
  const size_t exact2 = scan::CountInRect(store(), pred2, box);
  ASSERT_GT(exact2, 0u);
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const scan::ExecContext ctx = Ctx(&pool, threads);
    for (size_t th : {size_t{1}, exact2 / 3, exact2, exact2 + 5}) {
      if (th == 0) continue;
      EXPECT_EQ(std::min(exact2, th),
                scan::CountInRectAtLeast(store(), pred2, box, th, ctx));
    }
  }
}

TEST_F(ParallelScanTest, AggregateKernelsMatchSerialTo1e12) {
  Rng rng(TestSeed() + 3);
  const std::vector<int> pred = {0, 1};
  const std::vector<AggFunc> funcs = {AggFunc::kSum, AggFunc::kCount,
                                      AggFunc::kAvg, AggFunc::kMin,
                                      AggFunc::kMax};
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const scan::ExecContext ctx = Ctx(&pool, threads);
    for (int i = 0; i < 20; ++i) {
      double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
      if (a > b) std::swap(a, b);
      double c = rng.Uniform(0, 1), d = rng.Uniform(0, 1);
      if (c > d) std::swap(c, d);
      const Rectangle rect({a, c}, {b, d});
      for (AggFunc f : funcs) {
        const auto serial = scan::AggregateInRect(store(), f, 2, pred, rect);
        const auto parallel =
            scan::AggregateInRect(store(), f, 2, pred, rect, ctx);
        ASSERT_EQ(serial.has_value(), parallel.has_value())
            << "threads=" << threads;
        if (serial.has_value()) {
          EXPECT_LE(RelDiff(*serial, *parallel), 1e-12)
              << "threads=" << threads << " func=" << static_cast<int>(f);
        }
      }
    }
  }
}

TEST_F(ParallelScanTest, ExactAnswersBatchMatchesSerial) {
  Rng rng(TestSeed() + 4);
  std::vector<AggQuery> queries;
  for (int i = 0; i < 64; ++i) {
    AggQuery q;
    q.func = static_cast<AggFunc>(i % 5);
    q.agg_column = 2;
    q.predicate_columns = {0};
    double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    if (a > b) std::swap(a, b);
    q.rect = Rectangle({a}, {b});
    queries.push_back(std::move(q));
  }
  const auto serial = scan::ExactAnswers(store(), queries);
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const auto parallel =
        scan::ExactAnswers(store(), queries, Ctx(&pool, threads));
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].has_value(), parallel[i].has_value());
      if (serial[i].has_value()) {
        EXPECT_LE(RelDiff(*serial[i], *parallel[i]), 1e-12) << "query " << i;
      }
    }
  }
}

TEST_F(ParallelScanTest, ColumnMinMaxMatchesSerialScan) {
  for (int col = 0; col < 3; ++col) {
    const ColumnSpan span = store().column(col);
    double mn = std::numeric_limits<double>::max();
    double mx = std::numeric_limits<double>::lowest();
    for (double v : span) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    for (size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const auto [lo, hi] =
          scan::ColumnMinMax(store(), col, Ctx(&pool, threads));
      EXPECT_EQ(mn, lo);
      EXPECT_EQ(mx, hi);
    }
  }
}

/// Build one exact-mode Dpt over the store under the given context.
std::unique_ptr<Dpt> BuildExactDpt(const ColumnStore& store,
                                   const scan::ExecContext& exec,
                                   uint64_t seed) {
  SptOptions opts;
  opts.spec.agg_column = 2;
  opts.spec.predicate_columns = {0, 1};
  opts.num_leaves = 64;
  opts.algorithm = PartitionAlgorithm::kKdTree;
  opts.seed = seed;
  opts.exec = exec;
  SptBuildResult b = BuildSpt(store, opts);
  return std::move(b.synopsis);
}

TEST_F(ParallelScanTest, DptInitializeExactMatchesSerialAcrossThreadCounts) {
  const std::unique_ptr<Dpt> serial =
      BuildExactDpt(store(), scan::ExecContext{}, TestSeed());
  Rng rng(TestSeed() + 5);
  std::vector<AggQuery> queries;
  for (int i = 0; i < 32; ++i) {
    AggQuery q;
    q.func = static_cast<AggFunc>(i % 5);
    q.agg_column = 2;
    q.predicate_columns = {0, 1};
    double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    if (a > b) std::swap(a, b);
    double c = rng.Uniform(0, 1), d = rng.Uniform(0, 1);
    if (c > d) std::swap(c, d);
    q.rect = Rectangle({a, c}, {b, d});
    queries.push_back(std::move(q));
  }
  for (size_t threads : kThreadCounts) {
    if (threads <= 1) continue;
    ThreadPool pool(threads);
    const std::unique_ptr<Dpt> parallel =
        BuildExactDpt(store(), Ctx(&pool, threads), TestSeed());
    // Same tree (the optimizer is seed-deterministic and serial), so node
    // estimates are directly comparable.
    ASSERT_EQ(serial->tree().nodes.size(), parallel->tree().nodes.size());
    for (size_t node = 0; node < serial->tree().nodes.size(); ++node) {
      EXPECT_LE(RelDiff(serial->NodeCountEstimate(static_cast<int>(node)),
                        parallel->NodeCountEstimate(static_cast<int>(node))),
                1e-12);
      EXPECT_LE(RelDiff(serial->NodeSumEstimate(static_cast<int>(node), 2),
                        parallel->NodeSumEstimate(static_cast<int>(node), 2)),
                1e-12);
    }
    for (const AggQuery& q : queries) {
      const QueryResult rs = serial->Query(q);
      const QueryResult rp = parallel->Query(q);
      EXPECT_LE(RelDiff(rs.estimate, rp.estimate), 1e-12)
          << "threads=" << threads;
      EXPECT_LE(RelDiff(rs.ci_half_width, rp.ci_half_width), 1e-9);
    }
  }
}

TEST_F(ParallelScanTest, BatchedCatchupIsBitIdenticalToSerial) {
  // Catch-up mode: the leaf-partitioned parallel batch path must reproduce
  // the one-sample-at-a-time serial loop exactly — same draws, same
  // per-leaf application order, so estimates and CI widths are bit-equal.
  const auto run = [&](const scan::ExecContext& exec) {
    DptOptions dopts;
    dopts.spec.agg_column = 2;
    dopts.spec.predicate_columns = {0};
    dopts.exec = exec;
    SptOptions opts;
    opts.spec = dopts.spec;
    opts.num_leaves = 32;
    opts.seed = TestSeed();
    SptBuildResult built = BuildSpt(store(), opts);
    auto dpt = std::make_unique<Dpt>(dopts, built.synopsis->tree());
    Rng rng(TestSeed() + 6);
    dpt->InitializeFromReservoir(store().SampleUniform(&rng, 512),
                                 store().size());
    CatchupEngine catchup(
        dpt.get(), std::make_shared<ArchiveSnapshot>(store().WithoutIndex()),
        20000, TestSeed() + 7);
    catchup.RunToGoal();
    EXPECT_EQ(20000u, catchup.processed());
    return dpt;
  };
  const auto serial_dpt = run(scan::ExecContext{});
  Rng qrng(TestSeed() + 8);
  std::vector<AggQuery> queries;
  for (int i = 0; i < 16; ++i) {
    AggQuery q;
    q.func = static_cast<AggFunc>(i % 5);
    q.agg_column = 2;
    q.predicate_columns = {0};
    double a = qrng.Uniform(0, 1), b = qrng.Uniform(0, 1);
    if (a > b) std::swap(a, b);
    q.rect = Rectangle({a}, {b});
    queries.push_back(std::move(q));
  }
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    const auto parallel_dpt = run(Ctx(&pool, threads));
    EXPECT_EQ(serial_dpt->catchup_count(), parallel_dpt->catchup_count());
    for (const AggQuery& q : queries) {
      const QueryResult rs = serial_dpt->Query(q);
      const QueryResult rp = parallel_dpt->Query(q);
      EXPECT_DOUBLE_EQ(rs.estimate, rp.estimate) << "threads=" << threads;
      EXPECT_DOUBLE_EQ(rs.ci_half_width, rp.ci_half_width);
    }
  }
}

TEST(MorselStealingTest, SkewedMorselCostDoesNotStallTheScan) {
  // One morsel "costs" as much as the entire rest of the scan: its body
  // cannot finish until every other morsel has been processed. A static
  // range split assigns the expensive chunk and roughly half the remaining
  // morsels to the same worker, which would deadlock this loop; with a
  // shared cursor the other participant drains everything the blocked
  // worker cannot reach.
  ThreadPool pool(2);
  scan::ExecContext ctx;
  ctx.pool = &pool;
  ctx.max_workers = 2;
  ctx.parallel_min_rows = 1;
  constexpr size_t kMorsels = 8;
  const size_t rows = kMorsels * scan::kBlockRows;
  scan::MorselPlan plan;
  plan.workers = 2;
  plan.morsel_rows = scan::kBlockRows;
  plan.morsels = kMorsels;
  std::atomic<size_t> others{0};
  std::atomic<bool> timed_out{false};
  scan::ForEachMorsel(
      ctx, rows, plan, [&](size_t, size_t chunk, size_t, size_t) {
        if (chunk == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(60);
          while (others.load(std::memory_order_acquire) < kMorsels - 1) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out.store(true);
              break;
            }
            std::this_thread::yield();
          }
        } else {
          others.fetch_add(1, std::memory_order_release);
        }
      });
  EXPECT_FALSE(timed_out.load()) << "the scan stalled on the skewed morsel: "
                                    "no other worker stole the rest";
  EXPECT_EQ(kMorsels - 1, others.load());
}

TEST(ParseScanThreadsTest, ValidatesClampsAndWarns) {
  std::string warning;
  // Unset / empty fall back to hardware concurrency without complaint.
  EXPECT_EQ(8u, scan::ParseScanThreads(nullptr, 8, &warning));
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(8u, scan::ParseScanThreads("", 8, &warning));
  EXPECT_TRUE(warning.empty());
  // Plain numbers parse; leading/trailing blanks are tolerated.
  EXPECT_EQ(6u, scan::ParseScanThreads("6", 8, &warning));
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(6u, scan::ParseScanThreads("  6  ", 8, &warning));
  EXPECT_TRUE(warning.empty());
  // Garbage, trailing junk, zero and negatives warn and fall back.
  EXPECT_EQ(8u, scan::ParseScanThreads("lots", 8, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(8u, scan::ParseScanThreads("6x", 8, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(8u, scan::ParseScanThreads("0", 8, &warning));
  EXPECT_FALSE(warning.empty());
  EXPECT_EQ(8u, scan::ParseScanThreads("-2", 8, &warning));
  EXPECT_FALSE(warning.empty());
  // Out-of-range numerics (ERANGE) fall back rather than truncating.
  EXPECT_EQ(8u, scan::ParseScanThreads("999999999999999999999999999", 8,
                                       &warning));
  EXPECT_FALSE(warning.empty());
  // Oversubscription clamps at 4x hardware; exactly 4x is allowed.
  EXPECT_EQ(32u, scan::ParseScanThreads("32", 8, &warning));
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(32u, scan::ParseScanThreads("33", 8, &warning));
  EXPECT_FALSE(warning.empty());
  // Unknown hardware concurrency (0) degrades to a floor of one.
  EXPECT_EQ(1u, scan::ParseScanThreads(nullptr, 0, &warning));
  EXPECT_EQ(4u, scan::ParseScanThreads("9", 0, &warning));
  EXPECT_FALSE(warning.empty());
}

TEST_F(ParallelScanTest, NestedScansStaySerialAndAreCounted) {
  ThreadPool pool(2);
  scan::ScanCounters counters;
  scan::ExecContext ctx = Ctx(&pool, 2);
  ctx.counters = &counters;
  const std::vector<int> pred = {0};
  const Rectangle half({0.25}, {0.75});
  const size_t expected = scan::CountInRect(store(), pred, half);
  const scan::MorselPlan plan = scan::PlanMorsels(ctx, store().size());
  ASSERT_GT(plan.workers, 1u);
  // A consumer callback that itself scans: the nested call must not try to
  // fan out again (the pool may be saturated with its own callers), but it
  // must still return the exact answer — and be visible in telemetry.
  std::atomic<size_t> nested_total{0};
  scan::ForEachMorsel(ctx, store().size(), plan,
                      [&](size_t, size_t chunk, size_t, size_t) {
                        if (chunk != 0) return;
                        nested_total.store(
                            scan::CountInRect(store(), pred, half, ctx));
                      });
  EXPECT_EQ(expected, nested_total.load());
  EXPECT_GE(counters.nested_serial_scans.load(), 1u);
  EXPECT_EQ(1u, counters.parallel_scans.load());
}

}  // namespace
}  // namespace janus
