#include "core/spt.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/max_variance.h"
#include "core/partitioner_1d.h"
#include "core/partitioner_dp.h"
#include "core/partitioner_kd.h"
#include "data/parallel_scan.h"
#include "util/rng.h"
#include "util/timer.h"

namespace janus {

namespace {

/// Per-item parallel cutoff for sample materialization / projection loops:
/// each item is a Tuple copy or kd-point build — far heavier than a kernel
/// row, so the fan-out pays off much earlier than parallel_min_rows.
constexpr size_t kMinSampleItems = 8192;

}  // namespace

PartitionResult OptimizePartition(const std::vector<Tuple>& samples,
                                  const SptOptions& opts_in,
                                  size_t data_size) {
  SptOptions opts = opts_in;
  // Sec. 5.5: the system sizes k from the sample budget (k ~ 0.5% of m in
  // the paper's runs). Never hand out more leaves than the samples can
  // meaningfully stratify — a leaf needs a handful of samples to carry any
  // estimator at all.
  opts.num_leaves = std::max(
      1, std::min(opts.num_leaves, static_cast<int>(samples.size() / 8)));
  const int dims = static_cast<int>(opts.spec.predicate_columns.size());

  // The 1-D partitioners read (key, value) pairs: the DP directly, the
  // binary-search and equal-depth ones through a RankTable of them.
  const auto pairs = [&] {
    std::vector<std::pair<double, double>> out;
    out.reserve(samples.size());
    for (const Tuple& t : samples) {
      out.emplace_back(t[opts.spec.predicate_columns[0]],
                       t[opts.spec.agg_column]);
    }
    return out;
  };
  if (opts.algorithm == PartitionAlgorithm::kDynamicProgram) {
    // The DP splits one column; on a wider template its tree would ignore
    // the other columns' bounds.
    if (dims != 1) {
      throw std::invalid_argument(
          "the DP partitioner needs a one-column template, got " +
          std::to_string(dims));
    }
    PartitionerDpOptions dp;
    dp.num_leaves = opts.num_leaves;
    dp.focus = opts.focus;
    dp.sampling_rate = opts.sample_rate;
    return BuildPartitionDP(pairs(), dp);
  }

  MaxVarianceIndex::Options mo;
  mo.dims = dims;
  mo.focus = opts.focus;
  mo.sampling_rate = opts.sample_rate;
  mo.delta = opts.delta;
  MaxVarianceIndex index(mo);
  // The rank table is made straight from the pairs, with no index built:
  // `index` lends only its options.
  if (dims == 1 && (opts.algorithm == PartitionAlgorithm::kBinarySearch ||
                    opts.algorithm == PartitionAlgorithm::kEqualDepth)) {
    const RankTable ranks = OrderStatTree::TabulateBuild(pairs());
    if (opts.algorithm == PartitionAlgorithm::kEqualDepth) {
      return BuildEqualDepth1D(index, ranks, opts.num_leaves);
    }
    Partitioner1dOptions bo;
    bo.num_leaves = opts.num_leaves;
    bo.focus = opts.focus;
    bo.rho = opts.rho;
    bo.data_size = data_size;
    return BuildPartition1D(index, ranks, bo);
  }

  // Every other case runs the k-d partitioner. Project samples to kd points
  // in work-stealing morsels: every point lands at its own index, so the
  // result is bit-identical to the serial loop under any scheduling.
  std::vector<KdPoint> pts(samples.size());
  {
    const scan::MorselPlan plan =
        scan::PlanMorselsAtCutoff(opts.exec, samples.size(), kMinSampleItems,
                                  scan::MorselCost::kHeavyItems);
    scan::ForEachMorsel(opts.exec, samples.size(), plan,
                        [&](size_t, size_t, size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            pts[i] = MakeKdPoint(samples[i],
                                                 opts.spec.predicate_columns,
                                                 opts.spec.agg_column);
                          }
                        });
  }
  index.Build(pts);
  PartitionerKdOptions ko;
  ko.num_leaves = opts.num_leaves;
  ko.focus = opts.focus;
  ko.exec = opts.exec;
  return BuildPartitionKd(index, ko);
}

SptBuildResult BuildSpt(const ColumnStore& data, const SptOptions& opts) {
  SptBuildResult result;
  Timer total;
  Rng rng(opts.seed);
  const size_t m = std::max<size_t>(
      16, static_cast<size_t>(opts.sample_rate *
                              static_cast<double>(data.size())));
  // Index draws stay serial — the persisted RNG stream must not depend on
  // the thread count — but materializing the drawn rows is embarrassingly
  // parallel (each draw fills its own slot).
  std::vector<size_t> idx = rng.SampleIndices(data.size(), 2 * m);
  std::vector<Tuple> samples(idx.size());
  {
    const scan::MorselPlan plan =
        scan::PlanMorselsAtCutoff(opts.exec, idx.size(), kMinSampleItems,
                                  scan::MorselCost::kHeavyItems);
    scan::ForEachMorsel(opts.exec, idx.size(), plan,
                        [&](size_t, size_t, size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            samples[i] = data.RowTuple(idx[i]);
                          }
                        });
  }

  Timer part;
  PartitionResult pr = OptimizePartition(samples, opts, data.size());
  result.partition_seconds = part.ElapsedSeconds();
  result.achieved_error = pr.achieved_error;

  DptOptions dopts;
  dopts.spec = opts.spec;
  dopts.sample_rate = opts.sample_rate;
  dopts.minmax_k = opts.minmax_k;
  dopts.confidence = opts.confidence;
  dopts.delta = opts.delta;
  dopts.exec = opts.exec;
  result.synopsis = std::make_unique<Dpt>(dopts, std::move(pr.spec));
  result.synopsis->InitializeExact(data, samples);
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace janus
