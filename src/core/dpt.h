#ifndef JANUS_CORE_DPT_H_
#define JANUS_CORE_DPT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/max_variance.h"
#include "core/node_stats.h"
#include "core/partition.h"
#include "core/variance.h"
#include "data/exec_context.h"
#include "data/table.h"
#include "data/workload.h"
#include "util/mutex.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// How node statistics were obtained (Sec. 4.3 / 4.4).
enum class StatMode {
  kExact,    ///< full-scan initialization; statistics are exact (SPT-style)
  kCatchup,  ///< sample-populated; catch-up refines them in the background
};

/// Configuration of one DPT synopsis.
struct DptOptions {
  SynopsisSpec spec;
  /// Sampling rate alpha: the pooled reservoir targets 2m = 2*alpha*N.
  double sample_rate = 0.01;
  /// Top-k/bottom-k heap size for MIN/MAX maintenance (Sec. 4.1).
  int minmax_k = 32;
  double confidence = 0.95;
  /// Relative delta for the AVG max-variance search (Appendix D.1).
  double delta = 0.01;
  /// Additional columns (besides spec.agg_column) whose node statistics are
  /// maintained, enabling aggregation-attribute changes (Sec. 5.5, method
  /// 2.i). spec.agg_column is always tracked.
  std::vector<int> extra_tracked_columns;
  /// Morsel-parallel execution of the archival scans (exact initialization,
  /// batched catch-up). Default: serial.
  scan::ExecContext exec;
};

/// Result of one approximate query (Sec. 4.4).
struct QueryResult {
  double estimate = 0;
  /// z * sqrt(nu_c + nu_s) at the configured confidence (Sec. 4.4.1).
  double ci_half_width = 0;
  double variance_catchup = 0;  ///< nu_c: covered-node (catch-up) variance
  double variance_sample = 0;   ///< nu_s: partial-leaf (stratum) variance
  size_t covered_nodes = 0;
  size_t partial_leaves = 0;
  /// True when every contribution came from exact statistics.
  bool exact = false;

  /// Explicit success slot: when false the estimate/CI fields are
  /// meaningless and error_code/error_detail say why (the numeric value of
  /// api ApiErrorCode — kept as a plain integer here so the core layer does
  /// not depend on src/api/). The AqpEngine facade fills these instead of
  /// letting backend exceptions escape, so callers (and the serving tier)
  /// check `ok` rather than inferring failure from exceptions.
  bool ok = true;
  uint32_t error_code = 0;
  std::string error_detail;
};

/// Dynamic Partition Tree (Sec. 4): a partition-tree synopsis whose node
/// statistics and stratified reservoir sample are maintained under arbitrary
/// insertions and deletions.
///
/// Statistics are stored at the *leaves* only; an internal node's statistics
/// are the sum over its descendant leaves (precomputed DFS ranges make this
/// O(#leaves under the node)). This keeps concurrent maintenance simple and
/// matches the paper's observation that updates touch a single stratum and
/// "race conditions only happen if two workers work on the same node"
/// (Sec. 6.3): ApplyInsert/ApplyDelete/AddCatchupSample serialize on a
/// per-leaf mutex and nothing else. Queries are not synchronized against
/// concurrent updates (the experiment drivers quiesce updates first).
///
/// Reservoir *policy* (acceptance, eviction, re-sample signals) lives in
/// DynamicReservoir; the JanusAqp system wires the two together.
class Dpt {
 public:
  Dpt(const DptOptions& opts, PartitionTreeSpec spec);

  const DptOptions& options() const { return opts_; }
  const PartitionTreeSpec& tree() const { return spec_; }
  StatMode mode() const { return mode_; }
  int dims() const { return spec_.dims; }

  /// Exact initialization from a full archive scan plus a pooled sample
  /// (SPT construction, Sec. 2.3; also seeds the "DPT baseline"). Scans the
  /// archive's predicate/tracked columns directly (no per-row Tuple
  /// materialization).
  void InitializeExact(const ColumnStore& data,
                       const std::vector<Tuple>& reservoir);

  /// Approximate initialization from the pooled reservoir only — the single
  /// blocking step of re-initialization (Sec. 4.3 step 2). `n0` is |D| at
  /// the snapshot; estimates use N̂_i = (h_i/h) * n0. Its independent parts
  /// run in parallel on opts.exec; the result is the same at any width.
  void InitializeFromReservoir(const std::vector<Tuple>& reservoir, size_t n0);

  // --- maintenance (Sec. 4.1); thread-safe per leaf ------------------------

  /// Fold a newly inserted tuple into its leaf statistics.
  void ApplyInsert(const Tuple& t);

  /// Fold a deletion. The full tuple is required (values drive the stats).
  void ApplyDelete(const Tuple& t);

  // --- pooled sample maintenance (Sec. 4.2); not thread-safe ---------------

  void SampleAdd(const Tuple& t);
  void SampleRemove(const Tuple& t);
  void ResetSamples(const std::vector<Tuple>& samples);
  size_t sample_size() const { return samples_.size(); }
  const MaxVarianceIndex& sample_index() const { return samples_; }

  // --- catch-up (Sec. 4.3); thread-safe per leaf ----------------------------

  /// Absorb one uniform archive-snapshot sample into the node statistics.
  void AddCatchupSample(const Tuple& t);

  /// Absorb a whole batch of snapshot samples, in draw order. Routing runs
  /// in parallel morsels (opts.exec); application is partitioned by leaf
  /// with each leaf's samples applied in draw order, so the resulting node
  /// statistics are bit-identical to feeding the batch through
  /// AddCatchupSample one sample at a time.
  void AddCatchupSamples(const std::vector<Tuple>& batch);

  double catchup_count() const { return catchup_total_.load(); }

  // --- queries (Sec. 4.4) ---------------------------------------------------

  QueryResult Query(const AggQuery& q) const;

  // --- introspection for triggers / re-partitioning (Sec. 5.4) -------------

  int LeafForTuple(const Tuple& t) const;
  const Rectangle& LeafRect(int node) const {
    return spec_.nodes[static_cast<size_t>(node)].rect;
  }
  /// Samples currently assigned to a leaf's stratum (closed cell): the
  /// starvation trigger's count, and a query's m_i. O(log m) in 1-D.
  double LeafSampleCount(int node) const;
  /// A partial leaf's share of a query: its stratum size m_i, and count/sum/
  /// sumsq of `column` over its samples inside q. In 1-D on the aggregate
  /// column (while the rank tree mirrors the k-d tree) both are key-range
  /// sums of the rank tree, O(log m) with no point walked; otherwise the
  /// moments are summed in place over the k-d walk of leaf ∩ q. The stratum
  /// is never copied, and nothing is allocated.
  TreeAgg MatchingSamples(int leaf, const AggQuery& q, double* stratum_size,
                          int column) const;
  /// Estimated population N̂_i + deltas of a node (leaf or internal).
  double NodeCountEstimate(int node) const;
  double NodeSumEstimate(int node, int column) const;

  /// Full tuples of the pooled sample, by id (mirror of the reservoir).
  const std::unordered_map<uint64_t, Tuple>& sample_tuples() const {
    return sample_tuples_;
  }

  // --- partial re-partitioning internals (Appendix E) ----------------------
  // Used by JanusAqp to graft a re-optimized subtree while preserving the
  // estimates of untouched nodes.

  /// Total catch-up mass under a node.
  double NodeCatchupCount(int node) const;
  /// Copy the full leaf statistics of `src_node` in `src` to `dst_node`.
  void CopyLeafStats(const Dpt& src, int src_node, int dst_node);
  /// Seed a (new) leaf's catch-up moments from tuples, each weighted by
  /// `scale` pseudo-draws, preserving the subtree's total catch-up mass.
  void SeedLeafCatchupFromSamples(int leaf, const std::vector<Tuple>& ts,
                                  double scale);
  /// Restore the global catch-up bookkeeping after a graft.
  void SetCatchupState(StatMode mode, double n0, double total);

  /// Estimated heap footprint of the synopsis: tree nodes, per-leaf
  /// statistics, the pooled sample index and its tuple mirror.
  size_t MemoryBytes() const;

  /// Snapshot persistence: the full synopsis state — tree spec, observed
  /// data domain, per-leaf statistics, the pooled-sample indexes
  /// (structure-exact, so query summation order is preserved) and the
  /// sample mirror, plus the catch-up bookkeeping. Construct the Dpt with
  /// the same DptOptions (engine configuration, not state) and any
  /// placeholder spec — LoadFrom replaces the tree wholesale.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit: tree linkage (leaf list and DFS ranges consistent
  /// with the spec), the pooled-sample index vs its tuple mirror (equal
  /// sizes, every mirrored tuple inside the index's bounding box, per-leaf
  /// stratum counts summing to the pool), the sample index's own trees, and
  /// the catch-up bookkeeping (leaf catch-up masses summing to
  /// catchup_count(), within floating-point tolerance — grafts seed scaled
  /// weights). Not thread-safe against concurrent maintenance; callers
  /// quiesce first (AqpEngine::CheckInvariants holds the read room). Throws
  /// InvariantViolation on the first inconsistency.
  void CheckInvariants() const;

 private:
  struct ColumnStats {
    MomentAccumulator exact;
    MomentAccumulator inserted;
    MomentAccumulator removed;
    TreeAgg catchup;
  };
  struct LeafStats {
    std::vector<ColumnStats> columns;  // parallel to tracked_columns_
    MinMaxTracker minmax;              // over spec.agg_column
  };

  int TrackedIndex(int column) const;  // -1 if untracked
  /// One catch-up draw's moments and min/max, into its leaf's statistics.
  void AddCatchupToLeaf(const Tuple& t, LeafStats* ls) const;
  void ComputeLeafRanges();
  /// Zero every leaf's statistics and set the (mode, n0) bookkeeping.
  void ResetLeafStats(StatMode mode, double n0);
  double LeafCountEstimate(int leaf) const;
  double LeafSumEstimate(int leaf, int tracked_idx) const;
  /// Frontier lookup (Sec. 2.3.2 step 1) against node rectangles clipped to
  /// the observed data domain. Tree rectangles are unbounded at the edges (so
  /// routing never loses a tuple); clipping makes the cover/partial
  /// classification tight for boundary nodes. `cover` and `partial` are
  /// cleared, then filled in a depth-first, right-subtree-first order, the
  /// order answers sum in.
  void Frontier(const Rectangle& q, std::vector<int>* cover,
                std::vector<int>* partial) const;
  QueryResult QueryMinMax(const AggQuery& q) const;
  QueryResult QuerySampleOnly(const AggQuery& q) const;

  /// Grow the observed data domain to include a predicate-space point.
  void GrowDomain(const double* point);
  /// The pooled-sample index's points for `samples`, in order.
  std::vector<KdPoint> SamplePoints(const std::vector<Tuple>& samples) const;
  /// Replace the id -> tuple mirror of the pooled sample.
  void MirrorSamples(const std::vector<Tuple>& samples);

  DptOptions opts_;
  PartitionTreeSpec spec_;
  std::vector<int> tracked_columns_;
  /// Observed data domain per predicate dimension (grow-only; lock-free).
  std::array<std::atomic<double>, kMaxColumns> domain_lo_;
  std::array<std::atomic<double>, kMaxColumns> domain_hi_;
  std::vector<LeafStats> leaf_stats_;  // parallel to spec_.nodes; leaf-only
  /// Per-node update locks, parallel to leaf_stats_. Annotated Mutex type,
  /// but leaf_stats_ cannot carry GUARDED_BY: thread-safety analysis has no
  /// notion of a per-element lock array, and the read side (queries, saves)
  /// is legitimately lock-free — it is fenced from mutators by the owning
  /// engine's room capability, which this layer does not hold. The
  /// discipline remains: mutators lock leaf_mu_[leaf] around leaf_stats_
  /// writes; readers rely on the engine rooms.
  std::unique_ptr<Mutex[]> leaf_mu_;
  // DFS leaf ranges: node i covers dfs_leaves_[range_lo_[i], range_hi_[i]).
  std::vector<int> dfs_leaves_;
  std::vector<int> range_lo_;
  std::vector<int> range_hi_;
  MaxVarianceIndex samples_;
  std::unordered_map<uint64_t, Tuple> sample_tuples_;
  StatMode mode_ = StatMode::kCatchup;
  double n0_ = 0;  // snapshot population for catch-up scaling
  std::atomic<double> catchup_total_{0};
};

}  // namespace janus

#endif  // JANUS_CORE_DPT_H_
