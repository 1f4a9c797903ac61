#include "core/max_variance.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/variance.h"
#include "persist/serde.h"
#include "util/invariants.h"

namespace janus {

KdPoint MakeKdPoint(const Tuple& t, const std::vector<int>& predicate_columns,
                    int agg_column) {
  KdPoint p;
  p.id = t.id;
  for (size_t i = 0; i < predicate_columns.size(); ++i) {
    p.x[i] = t[predicate_columns[i]];
  }
  p.a = t[agg_column];
  return p;
}

MaxVarianceIndex::MaxVarianceIndex(const Options& opts)
    : opts_(opts), kd_(opts.dims) {}

void MaxVarianceIndex::Build(const std::vector<KdPoint>& samples) {
  BuildPart(Part::kKdTree, samples);
  BuildPart(Part::kRankTree, samples);
}

void MaxVarianceIndex::BuildPart(Part part,
                                 const std::vector<KdPoint>& samples) {
  if (part == Part::kKdTree) {
    kd_.Build(samples);
    return;
  }
  if (opts_.dims != 1) return;
  std::vector<std::pair<double, double>> points;
  points.reserve(samples.size());
  for (const KdPoint& p : samples) points.emplace_back(p.x[0], p.a);
  tree1d_.Build(points);
}

void MaxVarianceIndex::Insert(const KdPoint& p) {
  kd_.Insert(p);
  if (opts_.dims == 1) tree1d_.Insert(p.x[0], p.a);
}

bool MaxVarianceIndex::Delete(const KdPoint& p) {
  const bool ok = kd_.Delete(p.x.data(), p.id);
  if (ok && opts_.dims == 1) tree1d_.Delete(p.x[0], p.a);
  return ok;
}

template <typename Ranks>
double MaxVarianceIndex::RankRangeVariance(const Ranks& ranks, size_t lo,
                                           size_t hi, AggFunc f) const {
  if (hi <= lo) return 0;
  const size_t n = hi - lo;
  if (n < 2) return 0;
  const size_t mid = lo + n / 2;
  const TreeAgg whole = ranks.RankRangeAggregate(lo, hi);
  const double mi = whole.count;
  switch (f) {
    case AggFunc::kCount: {
      // The max-variance COUNT query holds half the samples.
      return CountQueryVariance(mi / opts_.sampling_rate, mi,
                                static_cast<double>(n) / 2.0);
    }
    case AggFunc::kSum: {
      const TreeAgg left = ranks.RankRangeAggregate(lo, mid);
      const TreeAgg right = ranks.RankRangeAggregate(mid, hi);
      const TreeAgg& best = left.sumsq >= right.sumsq ? left : right;
      return SumLeafError(opts_.sampling_rate, mi, best);
    }
    case AggFunc::kAvg: {
      // Best contiguous window of w = max(2, delta * m) samples by Σa²,
      // scanned with stride w/2 (any window shares at least half its mass
      // with a scanned one, so this loses at most a factor 2 in Σa²).
      // delta is relative to the *total* sample count m, per Appendix D.1:
      // valid AVG queries hold at least ~delta*m samples, so buckets smaller
      // than the window admit no valid query and report zero error — this
      // keeps the bucket error monotone in bucket size (Appendix D.2).
      const size_t w = std::max<size_t>(
          2, static_cast<size_t>(opts_.delta *
                                 static_cast<double>(ranks.size())));
      if (w > n) return 0.0;
      if (w == n) return AvgLeafError(mi, whole);
      const size_t stride = std::max<size_t>(1, w / 2);
      TreeAgg best;
      bool have = false;
      for (size_t s = lo; s + w <= hi; s += stride) {
        TreeAgg win = ranks.RankRangeAggregate(s, s + w);
        if (!have || win.sumsq > best.sumsq) {
          best = win;
          have = true;
        }
      }
      // Include the right-aligned window.
      TreeAgg tail = ranks.RankRangeAggregate(hi - w, hi);
      if (!have || tail.sumsq > best.sumsq) best = tail;
      return AvgLeafError(mi, best);
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return 0;  // MIN/MAX are answered exactly from heaps; no variance.
  }
  return 0;
}

double MaxVarianceIndex::RectVariance(const Rectangle& r, AggFunc f) const {
  const TreeAgg whole = kd_.RangeAggregate(r);
  const double mi = whole.count;
  if (mi < 2) return 0;
  switch (f) {
    case AggFunc::kCount:
      return CountQueryVariance(mi / opts_.sampling_rate, mi, mi / 2.0);
    case AggFunc::kSum: {
      // Split R into two equal-count halves along its widest data extent by
      // binary searching the splitting coordinate with range-count queries.
      const Rectangle bbox = kd_.BoundingBox();
      int dim = 0;
      double lo = 0, hi = 0;
      double best_extent = -1;
      for (int d = 0; d < dims(); ++d) {
        const double dlo = std::max(r.lo(d), bbox.lo(d));
        const double dhi = std::min(r.hi(d), bbox.hi(d));
        const double extent = dhi - dlo;
        if (extent > best_extent) {
          best_extent = extent;
          dim = d;
          lo = dlo;
          hi = dhi;
        }
      }
      const double target = mi / 2;
      for (int iter = 0; iter < 60 && hi - lo > 1e-12 * (std::abs(hi) + 1);
           ++iter) {
        const double mid = 0.5 * (lo + hi);
        Rectangle probe = r;
        probe.set_hi(dim, mid);
        const double c = kd_.RangeAggregate(probe).count;
        if (c < target) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      Rectangle left = r;
      left.set_hi(dim, 0.5 * (lo + hi));
      const TreeAgg la = kd_.RangeAggregate(left);
      TreeAgg ra = whole;
      ra.Subtract(la);
      const TreeAgg& best = la.sumsq >= ra.sumsq ? la : ra;
      return SumLeafError(opts_.sampling_rate, mi, best);
    }
    case AggFunc::kAvg: {
      const size_t cap = std::max<size_t>(
          2, static_cast<size_t>(opts_.delta *
                                 static_cast<double>(kd_.size())));
      if (static_cast<double>(cap) > mi) return 0.0;
      TreeAgg cell = kd_.MaxSumsqCell(r, cap);
      if (cell.count < 1) return AvgLeafError(mi, whole);
      return AvgLeafError(mi, cell);
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return 0;
  }
  return 0;
}

double MaxVarianceIndex::MaxVariance(const Rectangle& r) const {
  return MaxVariance(r, opts_.focus);
}

double MaxVarianceIndex::MaxVariance(const Rectangle& r, AggFunc f) const {
  if (opts_.dims == 1) {
    // Use the exact rank-range machinery in one dimension: the keys in
    // [lo, hi] hold the ranks from RankOf(lo) on, as many as their count.
    const size_t lo = tree1d_.RankOf(r.lo(0));
    const TreeAgg range = tree1d_.KeyRangeAggregate(r.lo(0), r.hi(0));
    return RankRangeVariance(tree1d_, lo,
                             lo + static_cast<size_t>(range.count), f);
  }
  return RectVariance(r, f);
}

double MaxVarianceIndex::MaxVarianceRankRange(size_t lo, size_t hi) const {
  return RankRangeVariance(tree1d_, lo, hi, opts_.focus);
}

double MaxVarianceIndex::MaxVarianceRankRange(size_t lo, size_t hi,
                                              AggFunc f) const {
  return RankRangeVariance(tree1d_, lo, hi, f);
}

double MaxVarianceIndex::MaxVarianceRankRange(const RankTable& ranks,
                                              size_t lo, size_t hi) const {
  return RankRangeVariance(ranks, lo, hi, opts_.focus);
}


void MaxVarianceIndex::SaveTo(persist::Writer* w) const {
  kd_.SaveTo(w);
  if (opts_.dims == 1) tree1d_.SaveTo(w);
}

void MaxVarianceIndex::LoadFrom(persist::Reader* r) {
  kd_.LoadFrom(r);
  if (opts_.dims == 1) tree1d_.LoadFrom(r);
}

void MaxVarianceIndex::CheckInvariants() const {
  kd_.CheckInvariants();
  if (opts_.dims == 1) {
    tree1d_.CheckInvariants();
    invariants::Require(tree1d_.size() == kd_.size(), "MaxVarianceIndex",
                        "rank tree holds " + std::to_string(tree1d_.size()) +
                            " samples, kd-tree holds " +
                            std::to_string(kd_.size()));
  }
}

}  // namespace janus
