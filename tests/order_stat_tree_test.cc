#include "index/order_stat_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "persist/serde.h"
#include "util/rng.h"

namespace janus {
namespace {

TEST(OrderStatTreeTest, InsertSizeAndSelectSorted) {
  OrderStatTree tree;
  std::vector<double> keys{5, 1, 9, 3, 7};
  for (double k : keys) tree.Insert(k, k * 2);
  ASSERT_EQ(tree.size(), 5u);
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.Select(i), keys[i]);
    EXPECT_DOUBLE_EQ(tree.SelectValue(i), keys[i] * 2);
  }
}

TEST(OrderStatTreeTest, RankOfStrictlyLess) {
  OrderStatTree tree;
  for (double k : {1.0, 2.0, 2.0, 3.0}) tree.Insert(k, 0);
  EXPECT_EQ(tree.RankOf(0.5), 0u);
  EXPECT_EQ(tree.RankOf(2.0), 1u);   // keys < 2
  EXPECT_EQ(tree.RankOf(2.5), 3u);
  EXPECT_EQ(tree.RankOf(100.0), 4u);
}

TEST(OrderStatTreeTest, DeleteSpecificValueAmongDuplicates) {
  OrderStatTree tree;
  tree.Insert(5.0, 1.0);
  tree.Insert(5.0, 2.0);
  tree.Insert(5.0, 3.0);
  EXPECT_TRUE(tree.Delete(5.0, 2.0));
  EXPECT_EQ(tree.size(), 2u);
  // Remaining values are 1 and 3.
  const TreeAgg agg = tree.KeyRangeAggregate(5.0, 5.0);
  EXPECT_DOUBLE_EQ(agg.count, 2);
  EXPECT_DOUBLE_EQ(agg.sum, 4.0);
  EXPECT_FALSE(tree.Delete(5.0, 99.0));
  EXPECT_FALSE(tree.Delete(6.0, 1.0));
}

TEST(OrderStatTreeTest, PrefixAggregate) {
  OrderStatTree tree;
  for (int i = 0; i < 10; ++i) tree.Insert(i, i);
  const TreeAgg p = tree.PrefixAggregate(4);  // values 0,1,2,3
  EXPECT_DOUBLE_EQ(p.count, 4);
  EXPECT_DOUBLE_EQ(p.sum, 6);
  EXPECT_DOUBLE_EQ(p.sumsq, 14);
  EXPECT_DOUBLE_EQ(tree.PrefixAggregate(0).count, 0);
  EXPECT_DOUBLE_EQ(tree.PrefixAggregate(10).sum, 45);
}

TEST(OrderStatTreeTest, RankRangeAggregate) {
  OrderStatTree tree;
  for (int i = 0; i < 10; ++i) tree.Insert(i, 1.0);
  const TreeAgg agg = tree.RankRangeAggregate(3, 7);
  EXPECT_DOUBLE_EQ(agg.count, 4);
  EXPECT_DOUBLE_EQ(tree.RankRangeAggregate(5, 5).count, 0);
  EXPECT_DOUBLE_EQ(tree.RankRangeAggregate(7, 3).count, 0);
}

TEST(OrderStatTreeTest, KeyRangeAggregateClosed) {
  OrderStatTree tree;
  for (int i = 0; i < 10; ++i) tree.Insert(i, i);
  const TreeAgg agg = tree.KeyRangeAggregate(2.0, 5.0);  // 2,3,4,5
  EXPECT_DOUBLE_EQ(agg.count, 4);
  EXPECT_DOUBLE_EQ(agg.sum, 14);
}

/// A key from a mix that lands on range bounds: small integers (so keys
/// repeat), signed zeros, infinities and uniform reals.
double MixedKey(Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng->NextUint64(6)) {
    case 0:
      return static_cast<double>(rng->NextUint64(20));
    case 1:
      return rng->Bernoulli(0.5) ? 0.0 : -0.0;
    case 2:
      return rng->Bernoulli(0.5) ? kInf : -kInf;
    default:
      return rng->Uniform(-20, 20);
  }
}

TEST(OrderStatTreeTest, RandomizedAgainstBruteForce) {
  // Inserts and deletes over MixedKey()s; every tenth step a range whose
  // bounds come from the same mix: some are one point (a run of duplicate
  // keys, or nothing), some hold nothing, some are inverted.
  OrderStatTree tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(tree.KeyRangeAggregate(-kInf, kInf).count, 0);
  std::vector<std::pair<double, double>> ref;
  Rng rng(77);
  int inverted = 0;
  int empty = 0;
  for (int step = 0; step < 6000; ++step) {
    if (ref.empty() || rng.NextDouble() < 0.6) {
      const double key = MixedKey(&rng);
      const double val = rng.Uniform(-5, 5);
      tree.Insert(key, val);
      ref.emplace_back(key, val);
    } else {
      const size_t i = rng.NextUint64(ref.size());
      EXPECT_TRUE(tree.Delete(ref[i].first, ref[i].second));
      ref[i] = ref.back();
      ref.pop_back();
    }
    ASSERT_EQ(tree.size(), ref.size());
    if (step % 10 != 0) continue;
    double lo = MixedKey(&rng);
    double hi = rng.NextDouble() < 0.2 ? lo : MixedKey(&rng);  // a point
    if (lo > hi && rng.NextDouble() < 0.8) std::swap(lo, hi);
    TreeAgg expect;
    for (const auto& [k, v] : ref) {
      if (k >= lo && k <= hi) expect.Add({1.0, v, v * v});
    }
    inverted += lo > hi;
    empty += lo <= hi && expect.count == 0;
    const TreeAgg got = tree.KeyRangeAggregate(lo, hi);
    ASSERT_EQ(got.count, expect.count) << "[" << lo << ", " << hi << "]";
    ASSERT_NEAR(got.sum, expect.sum, 1e-9);
    ASSERT_NEAR(got.sumsq, expect.sumsq, 1e-9);
  }
  EXPECT_GT(inverted, 10);
  EXPECT_GT(empty, 10);
  tree.CheckInvariants();
}

TEST(OrderStatTreeTest, NarrowRangesKeepRelativePrecision) {
  // Values 1e4 + N(0, 1) over 40k keys: a narrow range's sums are a tiny
  // part of the whole tree's, so a difference of two prefix sums cancels
  // most of their digits. Added from the range's own subtrees, sum and
  // sumsq stay within 64 epsilon (relative) of a long-double sum.
  OrderStatTree tree;
  std::vector<std::pair<double, double>> pts;
  Rng rng(91);
  for (int i = 0; i < 40000; ++i) {
    const double key = rng.NextDouble();
    const double value = 1e4 + rng.Normal();
    tree.Insert(key, value);
    pts.emplace_back(key, value);
  }
  std::sort(pts.begin(), pts.end());
  constexpr double kTol = 64 * std::numeric_limits<double>::epsilon();
  int over = 0;
  double worst = 0;
  for (int r = 0; r < 2000; ++r) {
    const size_t first = rng.NextUint64(pts.size());
    const size_t last = std::min(pts.size() - 1, first + rng.NextUint64(64));
    long double sum = 0;
    long double sumsq = 0;
    for (size_t i = first; i <= last; ++i) {
      sum += pts[i].second;
      sumsq += static_cast<long double>(pts[i].second) * pts[i].second;
    }
    const TreeAgg got =
        tree.KeyRangeAggregate(pts[first].first, pts[last].first);
    ASSERT_EQ(got.count, static_cast<double>(last - first + 1));
    for (const double rel : {static_cast<double>(std::abs(got.sum - sum) / sum),
                             static_cast<double>(std::abs(got.sumsq - sumsq) /
                                                 sumsq)}) {
      worst = std::max(worst, rel);
      over += rel > kTol;
    }
  }
  EXPECT_EQ(over, 0) << "worst relative error " << worst;
}

TEST(OrderStatTreeTest, DumpInOrder) {
  OrderStatTree tree;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) tree.Insert(rng.Uniform(0, 1), 0);
  std::vector<std::pair<double, double>> out;
  tree.Dump(&out);
  ASSERT_EQ(out.size(), 200u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(OrderStatTreeTest, ClearResets) {
  OrderStatTree tree;
  for (int i = 0; i < 10; ++i) tree.Insert(i, i);
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  tree.Insert(1, 1);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(OrderStatTreeTest, SelectIsMonotoneUnderHeavyInserts) {
  OrderStatTree tree;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) tree.Insert(rng.NextDouble(), 1);
  double prev = -1;
  for (size_t r = 0; r < tree.size(); r += 97) {
    const double k = tree.Select(r);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

using Points = std::vector<std::pair<double, double>>;

std::vector<uint8_t> SavedBytes(const OrderStatTree& tree) {
  persist::Writer w;
  tree.SaveTo(&w);
  return w.buffer();
}

/// `n` points with integer keys below `key_range`; about one in ten repeats
/// an earlier (key, value) pair exactly.
Points RandomPoints(Rng* rng, size_t n, uint64_t key_range) {
  Points pts;
  for (size_t i = 0; i < n; ++i) {
    if (!pts.empty() && rng->NextDouble() < 0.1) {
      pts.push_back(pts[rng->NextUint64(pts.size())]);
    } else {
      pts.emplace_back(static_cast<double>(rng->NextUint64(key_range)),
                       rng->Uniform(-5, 5));
    }
  }
  return pts;
}

/// Build(pts) against Clear() plus one Insert per point, on two trees whose
/// RNGs first advance through `history` inserts: equal SaveTo bytes (shape,
/// priorities, RNG state), valid invariants, and the same bytes again after
/// the same further inserts and deletes.
void ExpectBuildMatchesInserts(const Points& pts, size_t history, Rng* rng) {
  OrderStatTree bulk;
  OrderStatTree ref;
  for (size_t i = 0; i < history; ++i) {
    bulk.Insert(static_cast<double>(i), 1.0);
    ref.Insert(static_cast<double>(i), 1.0);
  }
  bulk.Build(pts);
  ref.Clear();
  for (const auto& [key, a] : pts) ref.Insert(key, a);
  ASSERT_EQ(SavedBytes(bulk), SavedBytes(ref)) << pts.size() << " points";
  bulk.CheckInvariants();
  for (int step = 0; step < 40; ++step) {
    if (pts.empty() || rng->NextDouble() < 0.4) {
      const double key = pts.empty() ? rng->NextDouble()
                                     : pts[rng->NextUint64(pts.size())].first;
      const double a = rng->Uniform(-5, 5);
      bulk.Insert(key, a);
      ref.Insert(key, a);
    } else {
      const auto& [key, a] = pts[rng->NextUint64(pts.size())];
      ASSERT_EQ(bulk.Delete(key, a), ref.Delete(key, a));
    }
  }
  ASSERT_EQ(SavedBytes(bulk), SavedBytes(ref)) << pts.size() << " points";
  bulk.CheckInvariants();
}

TEST(OrderStatTreeBuildTest, EmptyAndTinyInputsMatchInserts) {
  Rng rng(3);
  ExpectBuildMatchesInserts({}, 0, &rng);
  ExpectBuildMatchesInserts({{2.0, 1.0}}, 0, &rng);
  ExpectBuildMatchesInserts({{2.0, 1.0}, {1.0, 3.0}}, 0, &rng);
  ExpectBuildMatchesInserts({{2.0, 1.0}, {2.0, 1.0}}, 0, &rng);
  ExpectBuildMatchesInserts({{2.0, 1.0}, {2.0, -1.0}}, 0, &rng);
  // -0.0 and +0.0 are equal keys: the later one goes first either way.
  ExpectBuildMatchesInserts({{-0.0, 1.0}, {0.0, 2.0}, {-0.0, 3.0}}, 0, &rng);
}

TEST(OrderStatTreeBuildTest, RandomInputsMatchInserts) {
  Rng rng(11);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = rng.NextUint64(501);
    const uint64_t key_range = trial % 2 == 0 ? 7 : (uint64_t{1} << 40);
    ExpectBuildMatchesInserts(RandomPoints(&rng, n, key_range), 0, &rng);
  }
}

TEST(OrderStatTreeBuildTest, PoolSizedInputsMatchInserts) {
  Rng rng(12);
  for (const uint64_t key_range : {uint64_t{7}, uint64_t{1} << 40}) {
    ExpectBuildMatchesInserts(RandomPoints(&rng, 40000, key_range), 0, &rng);
  }
}

TEST(OrderStatTreeBuildTest, DrawsFromAnAdvancedRng) {
  // A reused tree (a re-drawn reservoir) builds from where its RNG stands.
  Rng rng(13);
  for (const size_t history : {1, 37, 400}) {
    ExpectBuildMatchesInserts(RandomPoints(&rng, 300, 7), history, &rng);
    ExpectBuildMatchesInserts(RandomPoints(&rng, 300, uint64_t{1} << 40),
                              history, &rng);
  }
}

TEST(OrderStatTreeBuildTest, NanKeysTakeTheInsertPath) {
  // A NaN key has no sorted position; the build must neither reorder it
  // differently from Insert nor hand it to a sort.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Points pts{{3.0, 1.0}, {nan, 2.0}, {1.0, 3.0}, {nan, 4.0}, {2.0, 5.0}};
  OrderStatTree bulk;
  OrderStatTree ref;
  bulk.Build(pts);
  for (const auto& [key, a] : pts) ref.Insert(key, a);
  EXPECT_EQ(SavedBytes(bulk), SavedBytes(ref));
}

TEST(OrderStatTreeBuildTest, RebuildReplacesContents) {
  Rng rng(14);
  OrderStatTree tree;
  tree.Build(RandomPoints(&rng, 200, 50));
  const Points next = RandomPoints(&rng, 120, 50);
  tree.Build(next);
  EXPECT_EQ(tree.size(), next.size());
  tree.CheckInvariants();
  Points sorted = next;
  std::sort(sorted.begin(), sorted.end());
  Points dumped;
  tree.Dump(&dumped);
  std::sort(dumped.begin(), dumped.end());
  EXPECT_EQ(dumped, sorted);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const TreeAgg& a, const TreeAgg& b) {
  return SameBits(a.count, b.count) && SameBits(a.sum, b.sum) &&
         SameBits(a.sumsq, b.sumsq);
}

TEST(RankTableTest, MatchesTreeWalksAtEveryRank) {
  Rng rng(21);
  for (const size_t n : {0, 1, 2, 3, 17, 500, 4000}) {
    for (const uint64_t key_range : {uint64_t{7}, uint64_t{1} << 40}) {
      // Grown by inserts and thinned by deletes, so Delete's re-merges
      // shape the tree too.
      OrderStatTree tree;
      const Points pts = RandomPoints(&rng, n + n / 4, key_range);
      for (const auto& [key, a] : pts) tree.Insert(key, a);
      for (size_t i = 0; i < n / 4; ++i) {
        tree.Delete(pts[i].first, pts[i].second);
      }
      const RankTable table = tree.Tabulate();
      ASSERT_EQ(table.size(), tree.size());
      for (size_t r = 0; r < tree.size(); ++r) {
        ASSERT_TRUE(SameBits(table.Select(r), tree.Select(r))) << r;
        ASSERT_TRUE(SameBits(table.SelectValue(r), tree.SelectValue(r)))
            << r;
      }
      for (size_t r = 0; r <= tree.size(); ++r) {
        ASSERT_TRUE(SameBits(table.PrefixAggregate(r),
                             tree.PrefixAggregate(r)))
            << "prefix " << r << " of " << tree.size();
      }
      for (int probe = 0; probe < 2000; ++probe) {
        const size_t lo = rng.NextUint64(tree.size() + 1);
        const size_t hi = rng.NextUint64(tree.size() + 1);
        ASSERT_TRUE(SameBits(table.RankRangeAggregate(lo, hi),
                             tree.RankRangeAggregate(lo, hi)))
            << "[" << lo << ", " << hi << ")";
      }
    }
  }
}

void ExpectSameTable(const RankTable& got, const RankTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_TRUE(SameBits(got.Select(r), want.Select(r))) << r;
    ASSERT_TRUE(SameBits(got.SelectValue(r), want.SelectValue(r))) << r;
  }
  for (size_t r = 0; r <= got.size(); ++r) {
    ASSERT_TRUE(SameBits(got.PrefixAggregate(r), want.PrefixAggregate(r)))
        << "prefix " << r << " of " << got.size();
  }
}

/// TabulateBuild(pts) against Build(pts) on a fresh tree, then Tabulate(),
/// and against the tree one Insert per point leaves: the same key, value
/// and prefix aggregate at every rank, bit for bit.
void ExpectTabulateBuildMatches(const Points& pts) {
  const RankTable got = OrderStatTree::TabulateBuild(pts);
  OrderStatTree built;
  built.Build(pts);
  ExpectSameTable(got, built.Tabulate());
  OrderStatTree inserted;
  for (const auto& [key, a] : pts) inserted.Insert(key, a);
  ExpectSameTable(got, inserted.Tabulate());
}

TEST(RankTableTest, TabulateBuildMatchesBuildThenTabulate) {
  Rng rng(23);
  for (size_t n = 0; n < 20; ++n) {
    ExpectTabulateBuildMatches(RandomPoints(&rng, n, 3));
  }
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.NextUint64(600);
    const uint64_t key_range = trial % 2 == 0 ? 7 : (uint64_t{1} << 40);
    ExpectTabulateBuildMatches(RandomPoints(&rng, n, key_range));
  }
  ExpectTabulateBuildMatches(RandomPoints(&rng, 40000, uint64_t{1} << 40));
}

TEST(RankTableTest, TabulateBuildKeepsSignedZerosAndNanFallback) {
  // -0.0 and +0.0 are equal keys, so insertion order decides their ranks;
  // a NaN key sends both sides down the Insert path.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectTabulateBuildMatches(
      {{0.0, 1.0}, {-0.0, 2.0}, {1.0, 3.0}, {-0.0, 4.0}, {0.0, -5.0}});
  ExpectTabulateBuildMatches(
      {{3.0, 1.0}, {nan, 2.0}, {1.0, 3.0}, {nan, 4.0}, {-0.0, 5.0}});
  Rng rng(24);
  Points pts = RandomPoints(&rng, 500, 5);
  for (auto& [key, a] : pts) {
    if (key == 0) key = rng.NextDouble() < 0.5 ? -0.0 : 0.0;
  }
  ExpectTabulateBuildMatches(pts);
  pts[pts.size() / 2].first = nan;
  ExpectTabulateBuildMatches(pts);
}

}  // namespace
}  // namespace janus
