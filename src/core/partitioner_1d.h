#ifndef JANUS_CORE_PARTITIONER_1D_H_
#define JANUS_CORE_PARTITIONER_1D_H_

#include "core/max_variance.h"
#include "core/partition.h"

namespace janus {

/// Options for the 1-D binary-search partitioner (Sec. 5.2, Appendix D.2).
struct Partitioner1dOptions {
  int num_leaves = 128;
  AggFunc focus = AggFunc::kSum;
  /// Multiplicative step of the error ladder E = {rho^t}.
  double rho = 2.0;
  /// |D| — bounds the error ladder (U = O(poly N), L = Omega(1/poly N)).
  size_t data_size = 0;
};

/// The binary-search (BS) partitioner of Sec. 5.2: discretize the feasible
/// error range into the geometric ladder E, binary search the smallest e in
/// E for which a greedy maximal-bucket sweep covers all samples with at most
/// k buckets, and return that partitioning. Runs in
/// O(k * M * log m * loglog N) where M is the cost of one max-variance probe.
///
/// For COUNT the optimum 1-D partitioning is equal-depth (Appendix D.2) and
/// is constructed directly in O(k log m).
PartitionResult BuildPartition1D(const MaxVarianceIndex& index,
                                 const Partitioner1dOptions& opts);
/// Same over `ranks`, a RankTable of the samples; `index` contributes its
/// options only (OrderStatTree::TabulateBuild needs no built index).
PartitionResult BuildPartition1D(const MaxVarianceIndex& index,
                                 const RankTable& ranks,
                                 const Partitioner1dOptions& opts);

/// Equal-depth 1-D partitioning (the COUNT fast path; also the strata
/// builder of the SRS baseline).
PartitionResult BuildEqualDepth1D(const MaxVarianceIndex& index,
                                  int num_leaves);
PartitionResult BuildEqualDepth1D(const MaxVarianceIndex& index,
                                  const RankTable& ranks, int num_leaves);

}  // namespace janus

#endif  // JANUS_CORE_PARTITIONER_1D_H_
