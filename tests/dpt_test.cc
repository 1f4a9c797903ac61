#include "core/dpt.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioner_1d.h"
#include "core/spt.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/scan.h"
#include "persist/serde.h"
#include "tests/test_digest.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

// Heap allocations made on this thread while g_count_allocations is set:
// counted by the replacement of the global operator new below.
thread_local bool g_count_allocations = false;
thread_local size_t g_allocations = 0;

}  // namespace

// Out of line, so that the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace janus {
namespace {

// Shared fixture: a 1-D synopsis over the uniform dataset (predicate col 0,
// aggregate col 1).
class DptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = GenerateUniform(20000, 1, 42);
    spec_.agg_column = 1;
    spec_.predicate_columns = {0};
  }

  std::unique_ptr<Dpt> MakeDpt(int leaves, double sample_rate = 0.02) {
    std::vector<double> boundaries;
    for (int b = 1; b < leaves; ++b) {
      boundaries.push_back(static_cast<double>(b) / leaves);
    }
    DptOptions opts;
    opts.spec = spec_;
    opts.sample_rate = sample_rate;
    return std::make_unique<Dpt>(opts, BuildBalanced1dTree(boundaries));
  }

  /// The archive, column by column, as InitializeExact scans it.
  ColumnStore Store() const { return scan::ToColumnStore(ds_.rows, {}); }

  std::vector<Tuple> SampleRows(size_t k, uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> idx = rng.SampleIndices(ds_.rows.size(), k);
    std::vector<Tuple> out;
    for (size_t i : idx) out.push_back(ds_.rows[i]);
    return out;
  }

  AggQuery MakeQuery(AggFunc f, double lo, double hi) {
    AggQuery q;
    q.func = f;
    q.agg_column = 1;
    q.predicate_columns = {0};
    q.rect = Rectangle({lo}, {hi});
    return q;
  }

  GeneratedDataset ds_;
  SynopsisSpec spec_;
};

TEST_F(DptTest, ExactModeSumIsExactOnAlignedQueries) {
  auto dpt = MakeDpt(16);
  dpt->InitializeExact(Store(), SampleRows(400, 1));
  // Query aligned with bucket boundaries [4/16, 12/16].
  const AggQuery q = MakeQuery(AggFunc::kSum, 4.0 / 16, 12.0 / 16);
  const QueryResult r = dpt->Query(q);
  // Bucket-aligned: partial leaves may still appear at the exact boundary
  // (closed rectangles touch), but the estimate must equal the truth well
  // within the CI.
  const auto truth = ExactAnswer(ds_.rows, q);
  ASSERT_TRUE(truth.has_value());
  EXPECT_NEAR(r.estimate, *truth, std::abs(*truth) * 0.01 + 1e-6);
}

TEST_F(DptTest, ExactModeCountAndAvgCloseToTruth) {
  auto dpt = MakeDpt(32);
  dpt->InitializeExact(Store(), SampleRows(800, 2));
  for (AggFunc f : {AggFunc::kCount, AggFunc::kAvg, AggFunc::kSum}) {
    const AggQuery q = MakeQuery(f, 0.13, 0.77);
    const QueryResult r = dpt->Query(q);
    const auto truth = ExactAnswer(ds_.rows, q);
    ASSERT_TRUE(truth.has_value());
    const double rel = std::abs(r.estimate - *truth) / std::abs(*truth);
    EXPECT_LT(rel, 0.05) << AggFuncName(f);
  }
}

TEST_F(DptTest, FullyCoveredQueryIsFlaggedExact) {
  auto dpt = MakeDpt(8);
  dpt->InitializeExact(Store(), SampleRows(200, 3));
  // Covers everything: only covered nodes, no partial leaves.
  const AggQuery q = MakeQuery(AggFunc::kSum, -10.0, 10.0);
  const QueryResult r = dpt->Query(q);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.partial_leaves, 0u);
  const auto truth = ExactAnswer(ds_.rows, q);
  EXPECT_NEAR(r.estimate, *truth, 1e-6 * std::abs(*truth));
  EXPECT_DOUBLE_EQ(r.ci_half_width, 0.0);
}

TEST_F(DptTest, InsertMaintainsExactStats) {
  auto dpt = MakeDpt(16);
  dpt->InitializeExact(Store(), SampleRows(400, 4));
  auto rows = ds_.rows;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.id = 1000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    dpt->ApplyInsert(t);
    rows.push_back(t);
  }
  const AggQuery q = MakeQuery(AggFunc::kSum, -1.0, 2.0);
  const QueryResult r = dpt->Query(q);
  const auto truth = ExactAnswer(rows, q);
  EXPECT_NEAR(r.estimate, *truth, 1e-6 * std::abs(*truth));
}

TEST_F(DptTest, DeleteMaintainsExactStats) {
  auto dpt = MakeDpt(16);
  dpt->InitializeExact(Store(), SampleRows(400, 6));
  auto rows = ds_.rows;
  // Delete the first 3000 rows.
  for (int i = 0; i < 3000; ++i) dpt->ApplyDelete(ds_.rows[i]);
  rows.erase(rows.begin(), rows.begin() + 3000);
  const AggQuery q = MakeQuery(AggFunc::kSum, -1.0, 2.0);
  const QueryResult r = dpt->Query(q);
  const auto truth = ExactAnswer(rows, q);
  EXPECT_NEAR(r.estimate, *truth, 1e-6 * std::abs(*truth));
}

TEST_F(DptTest, CatchupModeEstimatesImproveWithSamples) {
  auto dpt = MakeDpt(16);
  auto reservoir = SampleRows(400, 7);
  dpt->InitializeFromReservoir(reservoir, ds_.rows.size());
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.2, 0.9);
  const auto truth = ExactAnswer(ds_.rows, q);
  const QueryResult before = dpt->Query(q);
  // Feed catch-up samples (10% of data).
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    dpt->AddCatchupSample(ds_.rows[rng.NextUint64(ds_.rows.size())]);
  }
  const QueryResult after = dpt->Query(q);
  const double rel_before = std::abs(before.estimate - *truth) / *truth;
  const double rel_after = std::abs(after.estimate - *truth) / *truth;
  EXPECT_LT(rel_after, 0.05);
  // CI shrinks as catch-up progresses.
  EXPECT_LT(after.variance_catchup, before.variance_catchup + 1e-12);
  (void)rel_before;
}

TEST_F(DptTest, CatchupModeTracksInsertDeleteDeltas) {
  auto dpt = MakeDpt(16);
  dpt->InitializeFromReservoir(SampleRows(600, 9), ds_.rows.size());
  Rng rng(10);
  for (int i = 0; i < 3000; ++i) {
    dpt->AddCatchupSample(ds_.rows[rng.NextUint64(ds_.rows.size())]);
  }
  auto rows = ds_.rows;
  // Insert new tuples clustered in [0, 0.1] with large values.
  for (int i = 0; i < 4000; ++i) {
    Tuple t;
    t.id = 2000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble() * 0.1;
    t[1] = 50.0;
    dpt->ApplyInsert(t);
    rows.push_back(t);
  }
  // Delete some original tuples.
  for (int i = 0; i < 1000; ++i) {
    dpt->ApplyDelete(ds_.rows[i]);
  }
  rows.erase(rows.begin(), rows.begin() + 1000);
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.0, 0.3);
  const auto truth = ExactAnswer(rows, q);
  const QueryResult r = dpt->Query(q);
  const double rel = std::abs(r.estimate - *truth) / std::abs(*truth);
  EXPECT_LT(rel, 0.08);
}

TEST_F(DptTest, MinMaxQueries) {
  auto dpt = MakeDpt(16);
  dpt->InitializeExact(Store(), SampleRows(500, 11));
  const AggQuery qmin = MakeQuery(AggFunc::kMin, -10.0, 10.0);
  const AggQuery qmax = MakeQuery(AggFunc::kMax, -10.0, 10.0);
  const auto tmin = ExactAnswer(ds_.rows, qmin);
  const auto tmax = ExactAnswer(ds_.rows, qmax);
  EXPECT_DOUBLE_EQ(dpt->Query(qmin).estimate, *tmin);
  EXPECT_DOUBLE_EQ(dpt->Query(qmax).estimate, *tmax);
}

TEST_F(DptTest, MinMaxOuterApproximationAfterHeavyDeletes) {
  DptOptions opts;
  opts.spec = spec_;
  opts.minmax_k = 4;  // tiny heaps to force degradation
  auto dpt = std::make_unique<Dpt>(opts, BuildBalanced1dTree({0.5}));
  dpt->InitializeExact(Store(), SampleRows(100, 12));
  // Delete the 100 smallest aggregate values: exhausts the bottom heap.
  auto sorted = ds_.rows;
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple& a, const Tuple& b) { return a[1] < b[1]; });
  for (int i = 0; i < 100; ++i) dpt->ApplyDelete(sorted[i]);
  const AggQuery qmin = MakeQuery(AggFunc::kMin, -10.0, 10.0);
  const QueryResult r = dpt->Query(qmin);
  // Outer approximation: reported MIN <= true MIN of the remaining data.
  EXPECT_LE(r.estimate, sorted[100][1] + 1e-9);
  EXPECT_FALSE(r.exact);
}

TEST_F(DptTest, SampleMaintenanceAffectsPartialEstimates) {
  auto dpt = MakeDpt(4, 0.01);
  dpt->InitializeExact(Store(), SampleRows(200, 13));
  EXPECT_EQ(dpt->sample_size(), 200u);
  Tuple extra;
  extra.id = 5000000;
  extra[0] = 0.5;
  extra[1] = 10;
  dpt->SampleAdd(extra);
  EXPECT_EQ(dpt->sample_size(), 201u);
  EXPECT_TRUE(dpt->sample_tuples().contains(5000000));
  dpt->SampleRemove(extra);
  EXPECT_EQ(dpt->sample_size(), 200u);
  EXPECT_FALSE(dpt->sample_tuples().contains(5000000));
}

TEST_F(DptTest, UntrackedAggColumnFallsBackToSamples) {
  // Query aggregates column 0 (the predicate column) which is not tracked.
  auto dpt = MakeDpt(16, 0.05);
  dpt->InitializeExact(Store(), SampleRows(2000, 14));
  AggQuery q;
  q.func = AggFunc::kSum;
  q.agg_column = 0;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {0.5});
  const QueryResult r = dpt->Query(q);
  const auto truth = ExactAnswer(ds_.rows, q);
  const double rel = std::abs(r.estimate - *truth) / std::abs(*truth);
  EXPECT_LT(rel, 0.15);  // plain uniform-sample accuracy
  EXPECT_FALSE(r.exact);
}

TEST_F(DptTest, ExtraTrackedColumnAnsweredFromTree) {
  GeneratedDataset multi = GenerateUniform(20000, 2, 77);
  SynopsisSpec spec;
  spec.agg_column = 2;
  spec.predicate_columns = {0};
  DptOptions opts;
  opts.spec = spec;
  opts.extra_tracked_columns = {1};
  std::vector<double> boundaries;
  for (int b = 1; b < 16; ++b) boundaries.push_back(b / 16.0);
  Dpt dpt(opts, BuildBalanced1dTree(boundaries));
  Rng rng(15);
  std::vector<size_t> idx = rng.SampleIndices(multi.rows.size(), 500);
  std::vector<Tuple> sample;
  for (size_t i : idx) sample.push_back(multi.rows[i]);
  dpt.InitializeExact(scan::ToColumnStore(multi.rows, {}), sample);
  // SUM over the *extra* tracked column 1 goes through node statistics.
  AggQuery q;
  q.func = AggFunc::kSum;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({-1.0}, {2.0});
  const QueryResult r = dpt.Query(q);
  const auto truth = ExactAnswer(multi.rows, q);
  EXPECT_NEAR(r.estimate, *truth, 1e-6 * std::abs(*truth));
  EXPECT_TRUE(r.exact);
}

TEST_F(DptTest, MismatchedPredicateColumnsUseSampleFallback) {
  GeneratedDataset multi = GenerateUniform(10000, 2, 78);
  SynopsisSpec spec;
  spec.agg_column = 2;
  spec.predicate_columns = {0};
  DptOptions opts;
  opts.spec = spec;
  opts.sample_rate = 0.05;
  Dpt dpt(opts, BuildBalanced1dTree({0.5}));
  Rng rng(16);
  std::vector<size_t> idx = rng.SampleIndices(multi.rows.size(), 1000);
  std::vector<Tuple> sample;
  for (size_t i : idx) sample.push_back(multi.rows[i]);
  dpt.InitializeExact(scan::ToColumnStore(multi.rows, {}), sample);
  AggQuery q;
  q.func = AggFunc::kCount;
  q.agg_column = 2;
  q.predicate_columns = {1};  // different predicate attribute
  q.rect = Rectangle({0.0}, {0.5});
  const QueryResult r = dpt.Query(q);
  const auto truth = ExactAnswer(multi.rows, q);
  const double rel = std::abs(r.estimate - *truth) / *truth;
  EXPECT_LT(rel, 0.15);
}

TEST_F(DptTest, NodeCountEstimatesSumToTotal) {
  auto dpt = MakeDpt(8);
  dpt->InitializeExact(Store(), SampleRows(100, 17));
  double total = 0;
  for (int leaf : dpt->tree().leaves) total += dpt->NodeCountEstimate(leaf);
  EXPECT_NEAR(total, static_cast<double>(ds_.rows.size()), 1e-6);
  EXPECT_NEAR(dpt->NodeCountEstimate(0), total, 1e-6);
}

TEST_F(DptTest, CiCoversTruthMostOfTheTime) {
  // Statistical check of Sec. 4.4.1: ~95% CIs over repeated random queries
  // should cover the truth clearly more than 80% of the time.
  auto dpt = MakeDpt(32, 0.02);
  dpt->InitializeFromReservoir(SampleRows(800, 18), ds_.rows.size());
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    dpt->AddCatchupSample(ds_.rows[rng.NextUint64(ds_.rows.size())]);
  }
  int covered = 0, total = 0;
  Rng qrng(20);
  for (int i = 0; i < 200; ++i) {
    double a = qrng.NextDouble(), b = qrng.NextDouble();
    if (a > b) std::swap(a, b);
    const AggQuery q = MakeQuery(AggFunc::kSum, a, b);
    const auto truth = ExactAnswer(ds_.rows, q);
    if (!truth.has_value() || *truth == 0) continue;
    const QueryResult r = dpt->Query(q);
    if (r.ci_half_width <= 0) continue;
    ++total;
    covered += std::abs(r.estimate - *truth) <= r.ci_half_width;
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(covered) / total, 0.8);
}

TEST(DptSideTreeTest, PoolBuildIsBitIdenticalAtEveryWidth) {
  // InitializeFromReservoir runs its parts (seeding, id mirror, k-d tree,
  // rank tree) on the exec's pool. The tree must come out byte for byte as
  // the serial build, at any pool width, in one and in two dimensions.
  for (const int dims : {1, 2}) {
    const GeneratedDataset ds = GenerateUniform(30000, dims, 61);
    Rng rng(62);
    std::vector<Tuple> pool_sample;
    for (size_t i : rng.SampleIndices(ds.rows.size(), 3000)) {
      pool_sample.push_back(ds.rows[i]);
    }
    SptOptions so;
    so.spec.agg_column = dims;
    for (int d = 0; d < dims; ++d) so.spec.predicate_columns.push_back(d);
    so.num_leaves = 32;
    const PartitionResult pr =
        OptimizePartition(pool_sample, so, ds.rows.size());
    ASSERT_TRUE(pr.ok);

    auto saved = [&](ThreadPool* threads) {
      DptOptions opts;
      opts.spec = so.spec;
      opts.sample_rate = 0.01;
      opts.extra_tracked_columns = {0};
      opts.exec.pool = threads;
      Dpt dpt(opts, pr.spec);
      dpt.InitializeFromReservoir(pool_sample, ds.rows.size());
      dpt.CheckInvariants();
      persist::Writer w;
      dpt.SaveTo(&w);
      return w.buffer();
    };
    const std::vector<uint8_t> serial = saved(nullptr);
    for (const size_t width : {2, 4, 8}) {
      ThreadPool threads(width);
      EXPECT_EQ(saved(&threads), serial)
          << dims << "-D side tree, " << width << " pool threads";
    }
  }
}

// --- 1-D partial leaves -----------------------------------------------------

/// A 1-D Dpt (predicate column 0, aggregate column 1) with 16 equal leaves
/// over [0, 1], initialized exactly over `rows` with pooled sample `pool`.
std::unique_ptr<Dpt> OneDimDpt(const std::vector<Tuple>& rows,
                               const std::vector<Tuple>& pool) {
  DptOptions opts;
  opts.spec.agg_column = 1;
  opts.spec.predicate_columns = {0};
  std::vector<double> boundaries;
  for (int b = 1; b < 16; ++b) boundaries.push_back(b / 16.0);
  auto dpt = std::make_unique<Dpt>(opts, BuildBalanced1dTree(boundaries));
  dpt->InitializeExact(scan::ToColumnStore(rows, {}), pool);
  return dpt;
}

AggQuery OneDimQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

TEST(DptPartialLeafTest, OneDimMatchesBruteForceOverChurnedSample) {
  // Keys on a coarse grid, so that samples sit on leaf and query bounds;
  // values with a large mean, so that a sum which cancels would show. The
  // pooled sample churns by SampleAdd, SampleRemove and ResetSamples.
  Rng rng(71);
  uint64_t next_id = 0;
  auto row = [&] {
    Tuple t;
    t.id = next_id++;
    t[0] = static_cast<double>(rng.NextUint64(161)) / 160.0;
    t[1] = 1e4 + rng.Normal();
    return t;
  };
  std::vector<Tuple> rows;
  for (int i = 0; i < 20000; ++i) rows.push_back(row());
  std::vector<Tuple> pool(rows.begin(), rows.begin() + 800);
  auto dpt = OneDimDpt(rows, pool);
  constexpr double kTol = 64 * std::numeric_limits<double>::epsilon();
  const std::vector<int>& leaves = dpt->tree().leaves;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      if (pool.empty() || rng.NextDouble() < 0.5) {
        pool.push_back(row());
        dpt->SampleAdd(pool.back());
      } else {
        const size_t j = rng.NextUint64(pool.size());
        dpt->SampleRemove(pool[j]);
        pool[j] = pool.back();
        pool.pop_back();
      }
    }
    if (round % 10 == 9) {
      pool.resize(pool.size() / 2);
      dpt->ResetSamples(pool);
    }
    ASSERT_TRUE(dpt->sample_index().RanksMirrorKd());
    dpt->CheckInvariants();
    for (int k = 0; k < 25; ++k) {
      const int leaf = leaves[rng.NextUint64(leaves.size())];
      double lo = static_cast<double>(rng.NextUint64(161)) / 160.0;
      double hi = static_cast<double>(rng.NextUint64(161)) / 160.0;
      if (lo > hi) std::swap(lo, hi);
      const AggQuery q = OneDimQuery(AggFunc::kSum, lo, hi);
      const Rectangle& cell = dpt->LeafRect(leaf);
      double mi = 0;
      long double count = 0, sum = 0, sumsq = 0;
      for (const auto& [id, t] : dpt->sample_tuples()) {
        const double x = t[0];
        if (x < cell.lo(0) || x > cell.hi(0)) continue;
        mi += 1;
        if (x < lo || x > hi) continue;
        count += 1;
        sum += t[1];
        sumsq += static_cast<long double>(t[1]) * t[1];
      }
      double got_mi = -1;
      const TreeAgg got = dpt->MatchingSamples(leaf, q, &got_mi, 1);
      ASSERT_EQ(got_mi, mi) << "leaf " << leaf;
      ASSERT_EQ(dpt->LeafSampleCount(leaf), mi) << "leaf " << leaf;
      ASSERT_EQ(got.count, static_cast<double>(count))
          << "leaf " << leaf << " q [" << lo << ", " << hi << "]";
      if (count == 0) continue;
      EXPECT_LE(std::abs(got.sum - sum) / sum, kTol);
      EXPECT_LE(std::abs(got.sumsq - sumsq) / sumsq, kTol);
    }
    for (const AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
      const QueryResult r = dpt->Query(OneDimQuery(f, 0.1, 0.7));
      EXPECT_TRUE(std::isfinite(r.estimate) && std::isfinite(r.ci_half_width));
    }
  }
}

TEST(DptPartialLeafTest, NanKeysAndValuesKeepTheKdWalk) {
  // A NaN key has no place in the rank tree's order, and a NaN value fails
  // its delete. Either way the Dpt answers from the k-d walk, as it did
  // before the rank tree answered partial leaves: recorded digests.
  const GeneratedDataset ds = GenerateUniform(20000, 1, 81);
  Rng rng(82);
  std::vector<Tuple> pool;
  for (size_t i : rng.SampleIndices(ds.rows.size(), 400)) {
    pool.push_back(ds.rows[i]);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto answers = [&](const Dpt& dpt) {
    persist::Writer w;
    Rng qrng(83);
    for (int i = 0; i < 60; ++i) {
      double lo = qrng.NextDouble();
      double hi = qrng.NextDouble();
      if (lo > hi) std::swap(lo, hi);
      for (const AggFunc f :
           {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
        const QueryResult r = dpt.Query(OneDimQuery(f, lo, hi));
        w.F64(r.estimate);
        w.F64(r.ci_half_width);
      }
    }
    return DigestHex(w);
  };
  Tuple odd;
  odd.id = 900000;
  odd[0] = nan;
  odd[1] = 10.0;
  auto nan_key = OneDimDpt(ds.rows, pool);
  nan_key->SampleAdd(odd);
  nan_key->SampleRemove(pool[7]);
  EXPECT_EQ(nan_key->sample_index().tree1d().nan_keys(), 1u);
  EXPECT_FALSE(nan_key->sample_index().RanksMirrorKd());
  EXPECT_EQ(answers(*nan_key), "0x838d7f7da7a1c4e5");

  odd[0] = 0.5;
  odd[1] = nan;
  auto nan_value = OneDimDpt(ds.rows, pool);
  nan_value->SampleAdd(odd);
  nan_value->SampleRemove(odd);
  EXPECT_FALSE(nan_value->sample_index().RanksMirrorKd());
  EXPECT_EQ(answers(*nan_value), "0x228f5987bf57f18c");
}

TEST(DptPartialLeafTest, OneDimQueriesAllocateNothing) {
  // The frontier's lists are reused per thread and a partial leaf is summed
  // from the rank tree, so a warm 1-D SUM/COUNT/AVG query allocates nothing.
  const GeneratedDataset ds = GenerateUniform(20000, 1, 85);
  const std::vector<Tuple> pool(ds.rows.begin(), ds.rows.begin() + 400);
  auto dpt = OneDimDpt(ds.rows, pool);
  std::vector<AggQuery> queries;
  Rng rng(86);
  const AggFunc funcs[] = {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg};
  for (int i = 0; i < 90; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    queries.push_back(OneDimQuery(funcs[i % 3], lo, hi));
  }
  for (const AggQuery& q : queries) dpt->Query(q);  // warm this thread
  double total = 0;
  g_allocations = 0;
  g_count_allocations = true;
  for (const AggQuery& q : queries) total += dpt->Query(q).estimate;
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_TRUE(std::isfinite(total));
}

}  // namespace
}  // namespace janus
