#ifndef JANUS_CORE_SPT_H_
#define JANUS_CORE_SPT_H_

#include <memory>

#include "core/dpt.h"
#include "core/partition.h"

namespace janus {

/// Which partition optimizer a static build uses (Sec. 6.9 / Table 3).
enum class PartitionAlgorithm {
  kBinarySearch,  ///< the new BS algorithm of Sec. 5.2 (1-D)
  kDynamicProgram,  ///< the PASS DP algorithm [30] (1-D)
  kEqualDepth,      ///< equal-count buckets (COUNT-optimal in 1-D)
  kKdTree,          ///< greedy max-variance k-d splits (any d)
};

/// Options for building a static partition tree (PASS / "SPT", Sec. 2.3).
struct SptOptions {
  SynopsisSpec spec;
  int num_leaves = 128;
  AggFunc focus = AggFunc::kSum;
  double sample_rate = 0.01;
  PartitionAlgorithm algorithm = PartitionAlgorithm::kBinarySearch;
  double rho = 2.0;
  double delta = 0.01;
  int minmax_k = 32;
  double confidence = 0.95;
  uint64_t seed = 42;
  /// Morsel-parallel execution of the exact statistics scan (and of the
  /// built Dpt's later catch-up batches). Default: serial.
  scan::ExecContext exec;
};

/// A built SPT plus construction metrics (Table 3 reports the partitioning
/// time and the resulting accuracy).
struct SptBuildResult {
  std::unique_ptr<Dpt> synopsis;  ///< exact-mode Dpt: the SPT of Sec. 2.3
  double partition_seconds = 0;   ///< time spent in the optimizer alone
  double total_seconds = 0;       ///< optimizer + exact statistics scan
  double achieved_error = 0;      ///< sqrt(worst bucket max-variance)
};

/// Build a PASS-style static partition tree over `data`: draw an
/// alpha-sample, optimize the partitioning on it with the chosen algorithm,
/// then scan `data` once for exact node statistics and attach the sample as
/// the leaf strata. Samples and the exact statistics scan read the archive's
/// columns directly (no row materialization on the hot path).
SptBuildResult BuildSpt(const ColumnStore& data, const SptOptions& opts);

/// Run only the partition optimizer over `samples` (no statistics scan);
/// shared by BuildSpt and by JanusAQP re-optimization. Throws
/// std::invalid_argument for kDynamicProgram on a template of more than one
/// predicate column.
PartitionResult OptimizePartition(const std::vector<Tuple>& samples,
                                  const SptOptions& opts, size_t data_size);

}  // namespace janus

#endif  // JANUS_CORE_SPT_H_
