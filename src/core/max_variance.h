#ifndef JANUS_CORE_MAX_VARIANCE_H_
#define JANUS_CORE_MAX_VARIANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/schema.h"
#include "index/dynamic_kd_tree.h"
#include "index/order_stat_tree.h"

namespace janus {

/// The dynamic index M of Sec. 5.3.1 / Appendix D.1: maintains the pooled
/// sample S under insertions/deletions and, given a query rectangle R,
/// returns an approximation M(R) of the variance V(R) of the maximum-
/// variance query inside R, with M(R) >= V(R) / gamma:
///
///  * COUNT: the max-variance query holds |R∩S|/2 samples; M splits R at the
///    sample median and returns that half's variance (exact up to the split).
///  * SUM: split R into equal-count halves; return the SUM-variance of the
///    half with the larger Σa² (1/4-approximation).
///  * AVG: find a sub-rectangle holding ~delta·|R∩S| samples that (nearly)
///    maximizes Σa² — 1-D: the best contiguous sample window; d>1: the best
///    maximal canonical k-d cell — and return its AVG-variance
///    (O(1/log^{d+1} m)-approximation, Lemma D.1).
///
/// All returned values are *variances*; callers compare sqrt(M(R)) against
/// the error ladder.
///
/// In 1-D a treap (OrderStatTree) mirrors the k-d tree and answers every
/// rank-range and 1-D MaxVariance query, and, while RanksMirrorKd(), the
/// key-range sums a query takes for a partially covered leaf (its stratum
/// size and the moments of the samples inside the predicate): O(log m)
/// subtree sums, exact by construction (Pull() recomputes them from the
/// children), where the k-d tree walks points and maintains its sums by
/// subtraction. Build() bulk-loads both: the treap comes out exactly as one
/// Insert per sample would leave it, so a rebuilt index answers, persists
/// and evolves bit-identically to an incrementally grown one. The 1-D
/// partitioners probe a RankTable instead (OrderStatTree::TabulateBuild of
/// the samples, or Tabulate of tree1d()): O(1) per aggregate, with the same
/// bits as the treap's O(log m) walks.
class MaxVarianceIndex {
 public:
  struct Options {
    int dims = 1;
    AggFunc focus = AggFunc::kSum;
    /// Sampling rate alpha used to scale N_i ~ m_i/alpha in SUM/COUNT
    /// errors; a common constant across buckets.
    double sampling_rate = 0.01;
    /// Fraction of the *total* sample count a valid AVG query must contain
    /// (the 2*delta*m assumption of Appendix D.1). Buckets smaller than
    /// delta*m admit no valid AVG query and report zero error, which keeps
    /// the per-bucket error monotone in bucket size (Appendix D.2).
    double delta = 0.01;
  };

  explicit MaxVarianceIndex(const Options& opts);

  int dims() const { return opts_.dims; }
  AggFunc focus() const { return opts_.focus; }
  size_t size() const {
    return opts_.dims == 1 ? tree1d_.size() : kd_.size();
  }

  /// Bulk-load the sample set.
  void Build(const std::vector<KdPoint>& samples);
  /// Build() in its two independent halves, for a caller that runs them on
  /// different threads: the k-d tree, and the rank tree (a no-op unless
  /// dims == 1). The index is ready once both have run on the same samples.
  enum class Part { kKdTree, kRankTree };
  void BuildPart(Part part, const std::vector<KdPoint>& samples);

  void Insert(const KdPoint& p);
  bool Delete(const KdPoint& p);

  /// M(R): approximate max variance of a `focus` query inside R.
  double MaxVariance(const Rectangle& r) const;

  /// Same for an explicit aggregate function.
  double MaxVariance(const Rectangle& r, AggFunc f) const;

  /// 1-D only: M over the rank range [lo, hi) of the sorted samples — the
  /// primitive the binary-search partitioner iterates on.
  double MaxVarianceRankRange(size_t lo, size_t hi) const;
  double MaxVarianceRankRange(size_t lo, size_t hi, AggFunc f) const;
  /// Same over `ranks`, a RankTable of the samples in place of tree1d():
  /// bit-identical answers. Only the options of this index are read.
  double MaxVarianceRankRange(const RankTable& ranks, size_t lo,
                              size_t hi) const;

  /// 1-D only: whether tree1d() holds the k-d tree's points in key order,
  /// so that its key-range sums stand for a walk of the k-d tree. A NaN key
  /// has no place in that order, and a NaN value fails the rank tree's
  /// Delete (the k-d tree's succeeds, so the sizes part); either sends
  /// callers back to the k-d walk.
  bool RanksMirrorKd() const {
    return opts_.dims == 1 && tree1d_.nan_keys() == 0 &&
           tree1d_.size() == kd_.size();
  }

  /// Underlying indexes (read-only).
  const DynamicKdTree& kd() const { return kd_; }
  const OrderStatTree& tree1d() const { return tree1d_; }

  /// Snapshot persistence: both underlying indexes, structure-exact. The
  /// options are not serialized — the owner reconstructs the index with the
  /// same configuration before calling LoadFrom.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit: both underlying indexes plus, in 1-D, agreement of
  /// their sizes (every sample is mirrored into the rank tree). Throws
  /// InvariantViolation on inconsistency.
  void CheckInvariants() const;

 private:
  /// `Ranks` is OrderStatTree or RankTable.
  template <typename Ranks>
  double RankRangeVariance(const Ranks& ranks, size_t lo, size_t hi,
                           AggFunc f) const;
  double RectVariance(const Rectangle& r, AggFunc f) const;

  Options opts_;
  DynamicKdTree kd_;
  OrderStatTree tree1d_;  // populated only when dims == 1
};

/// Converts a tuple to an index point under a synopsis template.
KdPoint MakeKdPoint(const Tuple& t, const std::vector<int>& predicate_columns,
                    int agg_column);

}  // namespace janus

#endif  // JANUS_CORE_MAX_VARIANCE_H_
