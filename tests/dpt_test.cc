#include "core/dpt.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioner_1d.h"
#include "core/spt.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "persist/serde.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
  dpt->InitializeExact(ds_.rows, SampleRows(400, 1));
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
  dpt->InitializeExact(ds_.rows, SampleRows(800, 2));
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
  dpt->InitializeExact(ds_.rows, SampleRows(200, 3));
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
  dpt->InitializeExact(ds_.rows, SampleRows(400, 4));
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
  dpt->InitializeExact(ds_.rows, SampleRows(400, 6));
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
  dpt->InitializeExact(ds_.rows, SampleRows(500, 11));
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
  dpt->InitializeExact(ds_.rows, SampleRows(100, 12));
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
  dpt->InitializeExact(ds_.rows, SampleRows(200, 13));
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
  dpt->InitializeExact(ds_.rows, SampleRows(2000, 14));
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
  dpt.InitializeExact(multi.rows, sample);
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
  dpt.InitializeExact(multi.rows, sample);
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
  dpt->InitializeExact(ds_.rows, SampleRows(100, 17));
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

}  // namespace
}  // namespace janus
