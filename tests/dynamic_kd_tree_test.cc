#include "index/dynamic_kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "persist/serde.h"
#include "tests/test_digest.h"
#include "util/rng.h"

namespace janus {
namespace {

KdPoint MakePoint(uint64_t id, std::initializer_list<double> coords,
                  double a) {
  KdPoint p;
  p.id = id;
  int i = 0;
  for (double c : coords) p.x[i++] = c;
  p.a = a;
  return p;
}

std::vector<KdPoint> RandomPoints(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KdPoint p;
    p.id = i;
    for (int d = 0; d < dims; ++d) p.x[d] = rng.NextDouble();
    p.a = rng.Uniform(-10, 10);
    pts.push_back(p);
  }
  return pts;
}

TreeAgg BruteAggregate(const std::vector<KdPoint>& pts, const Rectangle& r,
                       int dims) {
  TreeAgg agg;
  for (const KdPoint& p : pts) {
    bool in = true;
    for (int d = 0; d < dims; ++d) {
      if (p.x[d] < r.lo(d) || p.x[d] > r.hi(d)) {
        in = false;
        break;
      }
    }
    if (in) {
      agg.count += 1;
      agg.sum += p.a;
      agg.sumsq += p.a * p.a;
    }
  }
  return agg;
}

class KdTreeDimTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeDimTest, BulkBuildAggregatesMatchBruteForce) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 2000, 11);
  DynamicKdTree tree(dims);
  tree.Build(pts);
  ASSERT_EQ(tree.size(), pts.size());
  Rng rng(99);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> lo(dims), hi(dims);
    for (int d = 0; d < dims; ++d) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      lo[d] = a;
      hi[d] = b;
    }
    Rectangle r(lo, hi);
    const TreeAgg expect = BruteAggregate(pts, r, dims);
    const TreeAgg got = tree.RangeAggregate(r);
    ASSERT_DOUBLE_EQ(got.count, expect.count);
    ASSERT_NEAR(got.sum, expect.sum, 1e-8);
    ASSERT_NEAR(got.sumsq, expect.sumsq, 1e-7);
  }
}

TEST_P(KdTreeDimTest, IncrementalInsertMatchesBulk) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 1000, 13);
  DynamicKdTree tree(dims);
  for (const KdPoint& p : pts) tree.Insert(p);
  ASSERT_EQ(tree.size(), pts.size());
  Rectangle all(std::vector<double>(dims, 0.0), std::vector<double>(dims, 1.0));
  const TreeAgg expect = BruteAggregate(pts, all, dims);
  const TreeAgg got = tree.RangeAggregate(all);
  EXPECT_DOUBLE_EQ(got.count, expect.count);
  EXPECT_NEAR(got.sum, expect.sum, 1e-8);
}

TEST_P(KdTreeDimTest, DeleteRemovesExactPoint) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 500, 17);
  DynamicKdTree tree(dims);
  tree.Build(pts);
  // Delete every third point.
  std::vector<KdPoint> remaining;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(tree.Delete(pts[i].x.data(), pts[i].id));
    } else {
      remaining.push_back(pts[i]);
    }
  }
  ASSERT_EQ(tree.size(), remaining.size());
  Rectangle all(std::vector<double>(dims, 0.0), std::vector<double>(dims, 1.0));
  const TreeAgg expect = BruteAggregate(remaining, all, dims);
  const TreeAgg got = tree.RangeAggregate(all);
  EXPECT_DOUBLE_EQ(got.count, expect.count);
  EXPECT_NEAR(got.sum, expect.sum, 1e-8);
}

TEST_P(KdTreeDimTest, MixedChurnAgainstBruteForce) {
  const int dims = GetParam();
  DynamicKdTree tree(dims);
  std::vector<KdPoint> ref;
  Rng rng(23);
  uint64_t next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    if (ref.empty() || rng.NextDouble() < 0.6) {
      KdPoint p;
      p.id = next_id++;
      for (int d = 0; d < dims; ++d) p.x[d] = rng.NextDouble();
      p.a = rng.Uniform(-1, 1);
      tree.Insert(p);
      ref.push_back(p);
    } else {
      const size_t i = rng.NextUint64(ref.size());
      ASSERT_TRUE(tree.Delete(ref[i].x.data(), ref[i].id));
      ref[i] = ref.back();
      ref.pop_back();
    }
    if (step % 500 == 0) {
      std::vector<double> lo(dims, 0.2), hi(dims, 0.8);
      Rectangle r(lo, hi);
      const TreeAgg expect = BruteAggregate(ref, r, dims);
      const TreeAgg got = tree.RangeAggregate(r);
      ASSERT_DOUBLE_EQ(got.count, expect.count);
      ASSERT_NEAR(got.sum, expect.sum, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdTreeDimTest, ::testing::Values(1, 2, 3, 5));

// A query answers a partial leaf by walking leaf ∩ predicate instead of
// filtering Report(leaf). These trees are churned, so deletes have left
// their boxes loose, and their coordinates sit on a small grid, so that
// duplicates and coordinates equal to a cell's bounds are common.
class KdPrunedWalkTest : public ::testing::TestWithParam<int> {};

double GridCoord(Rng* rng) { return static_cast<double>(rng->NextUint64(12)); }

/// A random grid rectangle; cell-like ones may be unbounded at an edge, as
/// partition leaves at the domain's edge are.
Rectangle GridRect(int dims, Rng* rng, bool open_edges) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> lo(static_cast<size_t>(dims)), hi(lo);
  for (size_t d = 0; d < lo.size(); ++d) {
    lo[d] = GridCoord(rng);
    hi[d] = lo[d] + GridCoord(rng);
    if (open_edges && rng->NextUint64(4) == 0) lo[d] = -inf;
    if (open_edges && rng->NextUint64(4) == 0) hi[d] = inf;
  }
  return Rectangle(lo, hi);
}

TEST_P(KdPrunedWalkTest, MatchesFilteredReportBitForBit) {
  const int dims = GetParam();
  Rng rng(53 + static_cast<uint64_t>(dims));
  DynamicKdTree tree(dims);
  std::vector<KdPoint> live;
  // A second column per point, looked up by id the way a query reads an
  // extra tracked column.
  std::unordered_map<uint64_t, double> other;
  uint64_t next_id = 0;
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.6) {
      KdPoint p;
      p.id = next_id++;
      for (int d = 0; d < dims; ++d) p.x[d] = GridCoord(&rng);
      // Mixed magnitudes: a different summation order changes the bits.
      p.a = rng.Uniform(-1, 1) * std::pow(10.0, rng.NextUint64(9));
      other[p.id] = rng.Uniform(-1, 1) * std::pow(10.0, rng.NextUint64(9));
      tree.Insert(p);
      live.push_back(p);
    } else {
      const size_t i = rng.NextUint64(live.size());
      ASSERT_TRUE(tree.Delete(live[i].x.data(), live[i].id));
      live[i] = live.back();
      live.pop_back();
    }
  }
  tree.CheckInvariants();

  struct Seen {
    std::vector<uint64_t> ids;
    TreeAgg native;
    TreeAgg looked_up;
    double min = std::numeric_limits<double>::max();
    double max = std::numeric_limits<double>::lowest();

    void Add(const KdPoint& p, double v) {
      ids.push_back(p.id);
      native.Add({1.0, p.a, p.a * p.a});
      looked_up.Add({1.0, v, v * v});
      min = std::min(min, p.a);
      max = std::max(max, p.a);
    }
  };
  size_t nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Rectangle cell = GridRect(dims, &rng, /*open_edges=*/true);
    const Rectangle q = GridRect(dims, &rng, /*open_edges=*/false);
    std::vector<KdPoint> reported;
    tree.Report(cell, &reported);
    // The stratum size is the exact count of the cell.
    ASSERT_EQ(tree.RangeAggregate(cell).count,
              static_cast<double>(reported.size()));

    Seen want;
    for (const KdPoint& p : reported) {
      if (q.Contains(p.x.data())) want.Add(p, other.at(p.id));
    }
    Seen got;
    tree.ForEachIn(KdBox::Intersection(cell, q),
                   [&](const KdPoint& p) { got.Add(p, other.at(p.id)); });

    SCOPED_TRACE("cell " + cell.ToString() + " query " + q.ToString());
    ASSERT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.native.count, want.native.count);
    EXPECT_EQ(got.native.sum, want.native.sum);
    EXPECT_EQ(got.native.sumsq, want.native.sumsq);
    EXPECT_EQ(got.looked_up.sum, want.looked_up.sum);
    EXPECT_EQ(got.looked_up.sumsq, want.looked_up.sumsq);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    if (!want.ids.empty()) ++nonempty;
  }
  // Many pairs share points: the comparison is not vacuous.
  EXPECT_GT(nonempty, 75u);
}

INSTANTIATE_TEST_SUITE_P(Dims, KdPrunedWalkTest, ::testing::Values(1, 2, 3));

TEST(KdTreeTest, DeleteMissingReturnsFalse) {
  DynamicKdTree tree(2);
  tree.Insert(MakePoint(1, {0.5, 0.5}, 1.0));
  double coords[2] = {0.5, 0.5};
  EXPECT_FALSE(tree.Delete(coords, 999));
  double far_coords[2] = {0.9, 0.9};
  EXPECT_FALSE(tree.Delete(far_coords, 1 + 100));
  EXPECT_TRUE(tree.Delete(coords, 1));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(KdTreeTest, ReportReturnsExactlyMatchingPoints) {
  auto pts = RandomPoints(2, 1000, 31);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({0.25, 0.25}, {0.5, 0.5});
  std::vector<KdPoint> out;
  tree.Report(r, &out);
  const TreeAgg expect = BruteAggregate(pts, r, 2);
  ASSERT_EQ(static_cast<double>(out.size()), expect.count);
  for (const KdPoint& p : out) {
    EXPECT_GE(p.x[0], 0.25);
    EXPECT_LE(p.x[0], 0.5);
    EXPECT_GE(p.x[1], 0.25);
    EXPECT_LE(p.x[1], 0.5);
  }
}

TEST(KdTreeTest, MaxSumsqCellRespectsCapAndRegion) {
  auto pts = RandomPoints(2, 2000, 37);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({0.1, 0.1}, {0.9, 0.9});
  const TreeAgg cell = tree.MaxSumsqCell(r, 100);
  EXPECT_GT(cell.count, 0.0);
  EXPECT_LE(cell.count, 100.0);
  EXPECT_GT(cell.sumsq, 0.0);
  // A cell's sumsq can never exceed the region total.
  const TreeAgg whole = tree.RangeAggregate(r);
  EXPECT_LE(cell.sumsq, whole.sumsq + 1e-9);
}

TEST(KdTreeTest, MaxSumsqCellEmptyRegion) {
  auto pts = RandomPoints(2, 100, 41);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({5.0, 5.0}, {6.0, 6.0});
  const TreeAgg cell = tree.MaxSumsqCell(r, 10);
  EXPECT_DOUBLE_EQ(cell.count, 0.0);
}

TEST(KdTreeTest, BoundingBoxCoversAllPoints) {
  auto pts = RandomPoints(3, 500, 43);
  DynamicKdTree tree(3);
  tree.Build(pts);
  const Rectangle box = tree.BoundingBox();
  for (const KdPoint& p : pts) {
    EXPECT_TRUE(box.Contains(p.x.data()));
  }
}

TEST(KdTreeTest, DumpReturnsAllPoints) {
  auto pts = RandomPoints(2, 300, 47);
  DynamicKdTree tree(2);
  tree.Build(pts);
  std::vector<KdPoint> out;
  tree.Dump(&out);
  EXPECT_EQ(out.size(), pts.size());
}

TEST(KdTreeTest, EmptyTreeQueriesAreSafe) {
  DynamicKdTree tree(2);
  Rectangle r({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(tree.RangeAggregate(r).count, 0.0);
  std::vector<KdPoint> out;
  tree.Report(r, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_DOUBLE_EQ(tree.MaxSumsqCell(r, 10).count, 0.0);
}

TEST(KdTreeTest, DuplicateCoordinatesHandled) {
  DynamicKdTree tree(2);
  for (uint64_t i = 0; i < 200; ++i) {
    tree.Insert(MakePoint(i, {0.5, 0.5}, 1.0));
  }
  ASSERT_EQ(tree.size(), 200u);
  Rectangle r({0.5, 0.5}, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(tree.RangeAggregate(r).count, 200.0);
  double coords[2] = {0.5, 0.5};
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Delete(coords, i));
  }
  EXPECT_EQ(tree.size(), 0u);
}

TEST(KdTreeTest, ChurnedTreeMatchesRecordedBytes) {
  // A fixed stream of inserts and deletes over 2-D points whose first
  // coordinate repeats on a coarse grid, so that many sit exactly on a
  // split. Delete must find the same bucket and slot, and strip the same
  // ancestors' statistics, as the build the digest was recorded from: the
  // final SaveTo bytes (shape, cached sums, point order) hash the same.
  DynamicKdTree tree(2);
  std::vector<KdPoint> live;
  Rng rng(57);
  uint64_t next_id = 0;
  auto fresh = [&] {
    KdPoint p;
    p.id = next_id++;
    p.x[0] = static_cast<double>(rng.NextUint64(64)) / 64.0;
    p.x[1] = rng.NextDouble();
    p.a = rng.Uniform(-10, 10);
    return p;
  };
  for (int i = 0; i < 1500; ++i) live.push_back(fresh());
  tree.Build(live);
  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.5) {
      live.push_back(fresh());
      tree.Insert(live.back());
      continue;
    }
    const size_t i = rng.NextUint64(live.size());
    ASSERT_TRUE(tree.Delete(live[i].x.data(), live[i].id));
    tree.CheckInvariants();
    // Deleted, the id is gone from the same coordinates.
    ASSERT_FALSE(tree.Delete(live[i].x.data(), live[i].id));
    live[i] = live.back();
    live.pop_back();
  }
  ASSERT_EQ(tree.size(), live.size());
  persist::Writer w;
  tree.SaveTo(&w);
  EXPECT_EQ(DigestHex(w), "0x1f85f96d0b429d4b");
}

}  // namespace
}  // namespace janus
