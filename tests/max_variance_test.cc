#include "core/max_variance.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/variance.h"
#include "util/rng.h"

namespace janus {
namespace {

std::vector<KdPoint> RandomPoints1d(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    KdPoint p;
    p.id = i;
    p.x[0] = rng.NextDouble();
    p.a = rng.LogNormal(0, 1);
    pts.push_back(p);
  }
  return pts;
}

std::unique_ptr<MaxVarianceIndex> MakeIndex1d(const std::vector<KdPoint>& pts,
                                              AggFunc focus) {
  MaxVarianceIndex::Options o;
  o.dims = 1;
  o.focus = focus;
  o.sampling_rate = 0.01;
  o.delta = 0.25;  // matches the brute-force valid-query threshold below
  auto idx = std::make_unique<MaxVarianceIndex>(o);
  idx->Build(pts);
  return idx;
}

/// Brute-force V(R) over contiguous sample windows in rank space: the true
/// max-variance query inside a 1-D bucket is some contiguous run of samples.
double BruteMaxVariance1d(std::vector<double> values, AggFunc f,
                          double sampling_rate) {
  const double mi = static_cast<double>(values.size());
  double best = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    TreeAgg q;
    for (size_t j = i; j < values.size(); ++j) {
      q.count += 1;
      q.sum += values[j];
      q.sumsq += values[j] * values[j];
      double v = 0;
      switch (f) {
        case AggFunc::kSum:
          v = SumLeafError(sampling_rate, mi, q);
          break;
        case AggFunc::kCount: {
          TreeAgg c;
          c.count = c.sum = c.sumsq = q.count;
          v = SumLeafError(sampling_rate, mi, c);
          break;
        }
        case AggFunc::kAvg:
          // Only windows with >= 25% of the bucket are "valid" queries
          // (the 2*delta*m assumption).
          if (q.count >= 0.25 * mi) v = AvgLeafError(mi, q);
          break;
        default:
          break;
      }
      best = std::max(best, v);
    }
  }
  return best;
}

class MaxVarApproxTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(MaxVarApproxTest, WithinTheoreticalFactorOfBruteForce) {
  const AggFunc f = GetParam();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto pts = RandomPoints1d(64, seed);
    auto idx = MakeIndex1d(pts, f);
    // Sorted values for the brute force.
    std::sort(pts.begin(), pts.end(),
              [](const KdPoint& a, const KdPoint& b) { return a.x[0] < b.x[0]; });
    std::vector<double> values;
    for (const auto& p : pts) values.push_back(p.a);
    const double truth = BruteMaxVariance1d(values, f, 0.01);
    const double approx = idx->MaxVarianceRankRange(0, pts.size(), f);
    if (truth == 0) continue;
    // Upper: M never exceeds the true max variance by definition of the
    // half/window construction (both are variances of actual queries).
    EXPECT_LE(approx, truth * (1 + 1e-9)) << "seed " << seed;
    // Lower: generous factor covering the 1/4-approx plus window stride.
    EXPECT_GE(approx, truth / 16.0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Funcs, MaxVarApproxTest,
                         ::testing::Values(AggFunc::kSum, AggFunc::kCount,
                                           AggFunc::kAvg),
                         [](const auto& info) {
                           return AggFuncName(info.param);
                         });

TEST(MaxVarianceTest, RankRangeMonotonicity) {
  // Bigger buckets have (weakly) larger max variance — the property the
  // binary-search partitioner relies on (Appendix D.2).
  auto pts = RandomPoints1d(256, 7);
  auto idx = MakeIndex1d(pts, AggFunc::kSum);
  double prev = 0;
  for (size_t hi = 2; hi <= 256; hi += 16) {
    const double v = idx->MaxVarianceRankRange(0, hi);
    EXPECT_GE(v, prev * 0.5);  // allow small non-monotone wiggles of M
    prev = std::max(prev, v);
  }
}

TEST(MaxVarianceTest, EmptyAndSingletonRangesAreZero) {
  auto pts = RandomPoints1d(32, 9);
  auto idx = MakeIndex1d(pts, AggFunc::kSum);
  EXPECT_DOUBLE_EQ(idx->MaxVarianceRankRange(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(idx->MaxVarianceRankRange(5, 6), 0.0);
}

TEST(MaxVarianceTest, RectQueryMatchesRankRangeIn1d) {
  auto pts = RandomPoints1d(128, 11);
  auto idx = MakeIndex1d(pts, AggFunc::kSum);
  Rectangle all({0.0}, {1.0});
  const double via_rect = idx->MaxVariance(all);
  const double via_rank = idx->MaxVarianceRankRange(0, 128);
  EXPECT_NEAR(via_rect, via_rank, 1e-9 * (1 + via_rank));
}

TEST(MaxVarianceTest, RankTableAnswersMatchTheTree) {
  const auto pts = RandomPoints1d(600, 41);
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
    auto idx = MakeIndex1d(pts, f);
    const RankTable ranks = idx->tree1d().Tabulate();
    Rng rng(42);
    for (int probe = 0; probe < 3000; ++probe) {
      const size_t lo = rng.NextUint64(pts.size() + 1);
      const size_t hi = lo + rng.NextUint64(pts.size() + 1 - lo);
      const double tree = idx->MaxVarianceRankRange(lo, hi);
      const double table = idx->MaxVarianceRankRange(ranks, lo, hi);
      ASSERT_EQ(std::memcmp(&tree, &table, sizeof(double)), 0)
          << AggFuncName(f) << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(MaxVarianceTest, PointRankTableServesRankQueries) {
  // The 1-D optimizer's path: an unbuilt index (its options only) over a
  // RankTable made straight from the points answers as the built index.
  const auto pts = RandomPoints1d(300, 43);
  std::vector<std::pair<double, double>> points;
  for (const KdPoint& p : pts) points.emplace_back(p.x[0], p.a);
  const RankTable ranks = OrderStatTree::TabulateBuild(points);
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
    auto full = MakeIndex1d(pts, f);
    MaxVarianceIndex::Options o;
    o.dims = 1;
    o.focus = f;
    o.sampling_rate = 0.01;
    o.delta = 0.25;
    const MaxVarianceIndex unbuilt(o);
    Rng rng(44);
    for (int probe = 0; probe < 2000; ++probe) {
      const size_t lo = rng.NextUint64(pts.size() + 1);
      const size_t hi = lo + rng.NextUint64(pts.size() + 1 - lo);
      const double want = full->MaxVarianceRankRange(lo, hi);
      const double got = unbuilt.MaxVarianceRankRange(ranks, lo, hi);
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << AggFuncName(f) << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(MaxVarianceTest, InsertDeleteKeepsIndexesConsistent) {
  MaxVarianceIndex::Options o;
  o.dims = 1;
  o.focus = AggFunc::kSum;
  MaxVarianceIndex idx(o);
  auto pts = RandomPoints1d(100, 13);
  idx.Build(pts);
  ASSERT_EQ(idx.size(), 100u);
  ASSERT_EQ(idx.tree1d().size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(idx.Delete(pts[i]));
  }
  EXPECT_EQ(idx.size(), 50u);
  EXPECT_EQ(idx.tree1d().size(), 50u);
  for (size_t i = 0; i < 50; ++i) idx.Insert(pts[i]);
  EXPECT_EQ(idx.size(), 100u);
  EXPECT_EQ(idx.tree1d().size(), 100u);
}

TEST(MaxVarianceTest, MultiDimSumVariancePositive) {
  MaxVarianceIndex::Options o;
  o.dims = 2;
  o.focus = AggFunc::kSum;
  MaxVarianceIndex idx(o);
  Rng rng(17);
  std::vector<KdPoint> pts;
  for (size_t i = 0; i < 500; ++i) {
    KdPoint p;
    p.id = i;
    p.x[0] = rng.NextDouble();
    p.x[1] = rng.NextDouble();
    p.a = rng.LogNormal(0, 1);
    pts.push_back(p);
  }
  idx.Build(pts);
  Rectangle r({0.0, 0.0}, {1.0, 1.0});
  EXPECT_GT(idx.MaxVariance(r, AggFunc::kSum), 0.0);
  EXPECT_GT(idx.MaxVariance(r, AggFunc::kCount), 0.0);
  EXPECT_GT(idx.MaxVariance(r, AggFunc::kAvg), 0.0);
  // Sub-rectangle has (weakly) smaller max variance.
  Rectangle sub({0.25, 0.25}, {0.75, 0.75});
  EXPECT_LE(idx.MaxVariance(sub, AggFunc::kSum),
            idx.MaxVariance(r, AggFunc::kSum) * 2.0);
}

TEST(MaxVarianceTest, MakeKdPointProjection) {
  Tuple t;
  t.id = 42;
  t[0] = 1;
  t[1] = 2;
  t[2] = 3;
  const KdPoint p = MakeKdPoint(t, {2, 0}, 1);
  EXPECT_EQ(p.id, 42u);
  EXPECT_DOUBLE_EQ(p.x[0], 3);
  EXPECT_DOUBLE_EQ(p.x[1], 1);
  EXPECT_DOUBLE_EQ(p.a, 2);
}

}  // namespace
}  // namespace janus
