#include "core/partitioner_1d.h"

#include <algorithm>
#include <cmath>

namespace janus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Recursive balanced-tree builder over bucket index range [lo, hi).
// `boundaries[i]` separates bucket i from bucket i+1.
int BuildBalancedRec(const std::vector<double>& boundaries, int lo, int hi,
                     double rect_lo, double rect_hi, int parent,
                     PartitionTreeSpec* spec) {
  const int idx = static_cast<int>(spec->nodes.size());
  spec->nodes.emplace_back();
  PartitionNode& self = spec->nodes.back();
  self.rect = Rectangle({rect_lo}, {rect_hi});
  self.parent = parent;
  if (hi - lo == 1) {
    spec->leaves.push_back(idx);
    return idx;
  }
  const int mid = lo + (hi - lo) / 2;
  const double split = boundaries[static_cast<size_t>(mid - 1)];
  // NOTE: self reference may dangle after recursive emplace_back; write
  // through the vector index instead.
  spec->nodes[static_cast<size_t>(idx)].split_dim = 0;
  spec->nodes[static_cast<size_t>(idx)].split_val = split;
  const int l =
      BuildBalancedRec(boundaries, lo, mid, rect_lo, split, idx, spec);
  const int r =
      BuildBalancedRec(boundaries, mid, hi, split, rect_hi, idx, spec);
  spec->nodes[static_cast<size_t>(idx)].left = l;
  spec->nodes[static_cast<size_t>(idx)].right = r;
  return idx;
}

// Boundary key between ranks r-1 and r: the midpoint of the two sample keys
// (or the shared key when equal).
double BoundaryAtRank(const RankTable& ranks, size_t r) {
  const double a = ranks.Select(r - 1);
  const double b = ranks.Select(r);
  return a == b ? a : 0.5 * (a + b);
}

}  // namespace

PartitionTreeSpec BuildBalanced1dTree(const std::vector<double>& boundaries) {
  PartitionTreeSpec spec;
  spec.dims = 1;
  const int buckets = static_cast<int>(boundaries.size()) + 1;
  spec.nodes.reserve(static_cast<size_t>(2 * buckets));
  BuildBalancedRec(boundaries, 0, buckets, -kInf, kInf, -1, &spec);
  return spec;
}

// The partitioners probe a RankTable of the samples: the same answers as
// the index's rank tree, in O(1) each.
PartitionResult BuildEqualDepth1D(const MaxVarianceIndex& index,
                                  const RankTable& ranks, int num_leaves) {
  PartitionResult result;
  const size_t m = ranks.size();
  const size_t k = static_cast<size_t>(std::max(1, num_leaves));
  std::vector<double> boundaries;
  std::vector<size_t> cuts;  // boundary ranks, for the error evaluation
  if (m > 1) {
    for (size_t b = 1; b < k && b * m / k < m; ++b) {
      const size_t r = b * m / k;
      if (r == 0) continue;
      const double key = BoundaryAtRank(ranks, r);
      if (!boundaries.empty() && key <= boundaries.back()) continue;
      boundaries.push_back(key);
      cuts.push_back(r);
    }
  }
  result.spec = BuildBalanced1dTree(boundaries);
  // Worst bucket error under the focus aggregate.
  double worst = 0;
  size_t prev = 0;
  for (size_t i = 0; i <= cuts.size(); ++i) {
    const size_t end = (i == cuts.size()) ? m : cuts[i];
    worst = std::max(worst, index.MaxVarianceRankRange(ranks, prev, end));
    prev = end;
  }
  result.spec.worst_error = std::sqrt(worst);
  result.achieved_error = result.spec.worst_error;
  result.ok = true;
  return result;
}

PartitionResult BuildEqualDepth1D(const MaxVarianceIndex& index,
                                  int num_leaves) {
  return BuildEqualDepth1D(index, index.tree1d().Tabulate(), num_leaves);
}

namespace {

// Greedy feasibility sweep: can the samples be covered by at most k maximal
// buckets whose sqrt(max variance) is <= e? Appends the boundary ranks when
// feasible.
//
// The binary search for each bucket's end assumes M([start, end)) never
// falls as `end` grows (the monotonicity of Appendix D.2). Only COUNT's M
// has it, and COUNT never gets here (it is equal-depth). Over 300k
// one-sample extensions, SUM's M fell in 5.3% (normal values, to 0.71x) and
// 6.9% (lognormal, to 0.59x) of them, and AVG's in 41-47% at the low end.
// So a bucket can stop short of the longest one that fits, and "infeasible"
// means "this sweep failed", not "no k-bucket partitioning meets e".
bool FeasibleWithError(const MaxVarianceIndex& index, const RankTable& ranks,
                       size_t k, double e,
                       std::vector<size_t>* boundary_ranks) {
  boundary_ranks->clear();
  const double e2 = e * e;  // compare variances, avoiding sqrt in the loop
  const size_t m = ranks.size();
  size_t start = 0;
  for (size_t b = 0; b < k && start < m; ++b) {
    // Binary search the largest end such that M([start, end)) <= e^2. A
    // single sample always fits (its variance is 0).
    size_t lo = start + 1;
    size_t hi = m;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo + 1) / 2;
      if (index.MaxVarianceRankRange(ranks, start, mid) <= e2) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    start = lo;
    if (start < m) boundary_ranks->push_back(start);
  }
  return start >= m;
}

}  // namespace

PartitionResult BuildPartition1D(const MaxVarianceIndex& index,
                                 const Partitioner1dOptions& opts) {
  return BuildPartition1D(index, index.tree1d().Tabulate(), opts);
}

PartitionResult BuildPartition1D(const MaxVarianceIndex& index,
                                 const RankTable& ranks,
                                 const Partitioner1dOptions& opts) {
  PartitionResult result;
  const size_t m = ranks.size();
  const size_t k = static_cast<size_t>(std::max(1, opts.num_leaves));
  if (m == 0) {
    result.spec = BuildBalanced1dTree({});
    result.ok = true;
    return result;
  }
  if (opts.focus == AggFunc::kCount) {
    // Equal-depth is optimal for COUNT in one dimension (Appendix D.2).
    return BuildEqualDepth1D(index, ranks, opts.num_leaves);
  }

  // Error ladder E = {rho^t} spanning [L/(sqrt(2) N), N * U] — the union of
  // the SUM and AVG bounds of Lemma D.2 — plus 0.
  double U = 0;
  double L = kInf;
  for (size_t i = 0; i < m; ++i) {
    const double v = std::abs(ranks.SelectValue(i));
    U = std::max(U, v);
    if (v > 0) L = std::min(L, v);
  }
  const double N = static_cast<double>(std::max<size_t>(opts.data_size, m));
  if (U == 0) {
    // All aggregation values are zero: any partitioning has zero error.
    return BuildEqualDepth1D(index, ranks, opts.num_leaves);
  }
  if (!std::isfinite(L)) L = U;
  const double ladder_lo = L / (std::sqrt(2.0) * N);
  const double ladder_hi = N * U;
  const double rho = std::max(1.0001, opts.rho);
  std::vector<double> ladder;
  for (double e = ladder_lo; e < ladder_hi * rho; e *= rho) {
    ladder.push_back(e);
  }

  // Binary search the smallest feasible ladder value.
  std::vector<size_t> best_ranks;
  bool have = false;
  size_t lo = 0;
  size_t hi = ladder.size();  // invariant: ladder[hi] feasible (top always is)
  // First verify the top is feasible (it must be: one bucket per step covers
  // everything when e is the global bound).
  std::vector<size_t> cut_ranks;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (FeasibleWithError(index, ranks, k, ladder[mid], &cut_ranks)) {
      best_ranks = cut_ranks;
      have = true;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (!have) {
    // Fall back to the maximal ladder value; feasible by construction since
    // a bucket can always absorb at least one more sample at huge e. If even
    // that fails (pathological), use equal depth.
    if (!FeasibleWithError(index, ranks, k, ladder.back() * rho,
                           &best_ranks)) {
      return BuildEqualDepth1D(index, ranks, opts.num_leaves);
    }
  }

  // The geometric ladder can leave budget on the table: the greedy sweep at
  // the smallest feasible e may use far fewer than k maximal buckets. Spend
  // the remaining budget by repeatedly median-splitting the bucket with the
  // largest max-variance (the Sec. 5.3.2 criterion); this only lowers the
  // worst-case error.
  std::vector<size_t> cuts{0};
  cuts.insert(cuts.end(), best_ranks.begin(), best_ranks.end());
  cuts.push_back(m);
  while (cuts.size() - 1 < k) {
    double worst = -1;
    size_t worst_i = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (cuts[i + 1] - cuts[i] < 2) continue;
      const double v =
          index.MaxVarianceRankRange(ranks, cuts[i], cuts[i + 1]);
      if (v > worst) {
        worst = v;
        worst_i = i;
      }
    }
    if (worst < 0) break;  // nothing splittable
    const size_t mid = cuts[worst_i] + (cuts[worst_i + 1] - cuts[worst_i]) / 2;
    cuts.insert(cuts.begin() + static_cast<ptrdiff_t>(worst_i) + 1, mid);
    if (worst == 0) break;  // zero-error everywhere: splitting further is moot
  }

  std::vector<double> boundaries;
  boundaries.reserve(cuts.size());
  for (size_t i = 1; i + 1 < cuts.size(); ++i) {
    const double key = BoundaryAtRank(ranks, cuts[i]);
    if (boundaries.empty() || key > boundaries.back()) {
      boundaries.push_back(key);
    }
  }
  result.spec = BuildBalanced1dTree(boundaries);
  // Evaluate the achieved worst bucket error.
  double worst = 0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    worst = std::max(worst,
                     index.MaxVarianceRankRange(ranks, cuts[i], cuts[i + 1]));
  }
  result.spec.worst_error = std::sqrt(worst);
  result.achieved_error = result.spec.worst_error;
  result.ok = true;
  return result;
}

}  // namespace janus
