#ifndef JANUS_CORE_JANUS_H_
#define JANUS_CORE_JANUS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/catchup.h"
#include "core/dpt.h"
#include "core/spt.h"
#include "data/table.h"
#include "sampling/reservoir.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// Configuration of a JanusAQP instance (Sec. 3.1 knobs plus the
/// re-optimization parameters of Sec. 5.4).
struct JanusOptions {
  SynopsisSpec spec;
  /// Archive schema; the table allocates one column per schema entry. An
  /// empty schema falls back to kMaxColumns-wide storage.
  Schema schema;
  int num_leaves = 128;
  /// Sampling rate alpha (1% in most experiments).
  double sample_rate = 0.01;
  /// Catch-up goal as a fraction of |D| (10% in most experiments).
  double catchup_rate = 0.10;
  AggFunc focus = AggFunc::kSum;
  PartitionAlgorithm algorithm = PartitionAlgorithm::kBinarySearch;
  double confidence = 0.95;
  double rho = 2.0;
  /// Maximum allowable variance drift before a re-partition is considered
  /// (Sec. 5.4; the paper's default).
  double beta = 10.0;
  double delta = 0.01;
  int minmax_k = 32;
  std::vector<int> extra_tracked_columns;
  /// Automatic re-partitioning triggers (Sec. 5.4). When disabled the
  /// instance behaves like the "DPT-only" baseline.
  bool enable_triggers = true;
  /// Updates between drift checks on the touched leaf (checking every single
  /// update is supported with interval 1).
  uint64_t trigger_check_interval = 64;
  /// A leaf is starved when |S_i| < starvation_factor * log2(m) (Sec. 5.4).
  double starvation_factor = 0.25;
  /// Partial re-partitioning: rebuild only the subtree `psi` levels above a
  /// problematic leaf (Appendix E). 0 disables (always full).
  int partial_repartition_psi = 0;
  /// Morsel-parallel execution of the archival scans (catch-up batches,
  /// exact-mode initialization). Default: serial.
  scan::ExecContext exec;
  uint64_t seed = 42;
  /// Re-optimization pipeline: the off-to-the-side build keeps pre-draining
  /// the delta buffer until at most this many ops remain, bounding the
  /// replay work left for the exclusive adoption step.
  size_t reopt_delta_tail = 1024;
};

/// Optimizer options for template `spec` under the knobs of `o`.
SptOptions MakeSptOptions(const JanusOptions& o, const SynopsisSpec& spec);

/// The re-optimization pipeline of Sec. 4.3: JanusAqp's only way to replace
/// its trees off to the side, one side tree per template. One run:
///   1. Begin snapshots the pooled sample and |D|, takes a copy-on-write
///      view of the archive (ArchiveSnapshot) and starts capturing: every
///      live update from then on is recorded, in live order, next to the
///      reservoir change it caused, and every delete has the view copy the
///      archive pages it changes first.
///   2. The owner optimizes a partitioning per template on the snapshot and
///      AddSide()s a tree populated from it; PreDrain replays captured
///      updates into the side trees until a short tail remains.
///   3. Finish replays the tail; the owner then swaps the side trees in and
///      restarts catch-up on the view.
/// Replay keeps live op order, so an adopted side tree is bit-identical to
/// the tree a rebuild at Begin would have produced, followed by the same
/// updates.
///
/// Locking: `mu` is the owner's update mutex. Begin, the capture hooks and
/// Finish run with it held; PreDrain takes it for bounded chunks only, so
/// stage 2 overlaps live updates. Everything else belongs to the one thread
/// driving the run.
class ReoptRun {
 public:
  /// Stage 1 (mu held, on a fresh run).
  void Begin(const std::vector<Tuple>& pool, const ColumnStore& live,
             Mutex* mu);
  /// True from Begin until the run is finished or reset.
  bool active() const { return active_; }

  /// Capture hooks (mu held, active()). CaptureDelete runs after the
  /// reservoir saw the delete (`fresh` is the re-drawn sample when
  /// ch.needs_resample).
  void CaptureInsert(const Tuple& t, const ReservoirChange& ch);
  void CaptureDelete(const Tuple& t, const ReservoirChange& ch,
                     const std::vector<Tuple>& fresh);
  /// Updates captured since Begin.
  uint64_t captured() const { return captured_; }
  /// The Begin-time archive view (mu held), whose BeforeDelete() the owner
  /// calls; null when no run is active. DropArchive() is for an owner that
  /// replaced the table: the run can no longer be adopted.
  ArchiveSnapshot* archive() { return archive_.get(); }
  void DropArchive() { archive_.reset(); }

  /// Stage 2. A side tree over the Begin-time sample.
  Dpt* AddSide(const DptOptions& opts, PartitionTreeSpec spec);
  /// Replay captured updates into every side tree until at most `tail`
  /// remain. Bounded rounds: a hot update stream can outrun the drain. The
  /// last step of a Build stage that built.
  void PreDrain(Mutex* mu, size_t tail);
  /// PreDrain ran and the view is intact: the run can be adopted.
  bool built() const { return built_ && archive_ != nullptr; }

  /// Stage 3 (mu held, full exclusion): stop capturing and replay the tail.
  void Finish();
  std::unique_ptr<Dpt> TakeSide(size_t i) { return std::move(sides_[i]); }
  std::shared_ptr<ArchiveSnapshot> TakeArchive() { return std::move(archive_); }

  const std::vector<Tuple>& snapshot() const { return snapshot_; }
  size_t n0() const { return n0_; }
  /// Captured ops replayed into side trees (summed over trees).
  uint64_t replayed() const { return replayed_; }

 private:
  /// One captured mutation of the live synopsis.
  struct DeltaOp {
    enum class Kind : uint8_t {
      kInsert,        ///< Dpt::ApplyInsert(t)
      kDelete,        ///< Dpt::ApplyDelete(t)
      kSampleAdd,     ///< Dpt::SampleAdd(t) — reservoir admitted t
      kSampleRemove,  ///< Dpt::SampleRemove(t) — reservoir evicted t
      kSampleReset,   ///< Dpt::ResetSamples(reset) — reservoir re-drawn
    };
    Kind kind;
    Tuple t;
    std::vector<Tuple> reset;
  };

  void Replay(const std::vector<DeltaOp>& ops);

  bool active_ = false;
  bool built_ = false;
  std::vector<Tuple> snapshot_;  ///< pooled reservoir at Begin
  size_t n0_ = 0;                ///< |D| at Begin
  std::shared_ptr<ArchiveSnapshot> archive_;  ///< the archive at Begin
  std::vector<DeltaOp> delta_;
  uint64_t captured_ = 0;
  std::vector<std::unique_ptr<Dpt>> sides_;
  uint64_t replayed_ = 0;
};

/// Operational counters for the experiment harnesses.
struct JanusCounters {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t reservoir_resamples = 0;
  uint64_t trigger_checks = 0;
  uint64_t trigger_fires = 0;
  uint64_t repartitions = 0;
  uint64_t partial_repartitions = 0;
  /// Partial re-partitions that silently degraded to a full rebuild
  /// (region too thin, single-leaf subtree, or sub-optimizer failure).
  uint64_t partial_repartition_fallbacks = 0;
  uint64_t background_reopts = 0;    ///< adoptions by an owner thread's runs
  uint64_t background_discards = 0;  ///< owner-thread runs not adopted
  uint64_t delta_ops_replayed = 0;   ///< captured ops replayed into side trees
  double last_reopt_seconds = 0;     ///< last re-optimization, wall clock
  /// How long the last re-optimization held updates: the whole run when the
  /// firing updater ran it, the adoption step when an owner thread did.
  double last_blocking_seconds = 0;
  /// The last build (Initialize, Reinitialize or a pipeline Build stage):
  /// the optimizer's share, and the whole build (optimizer, side tree,
  /// pre-drain). Not persisted; a loaded instance reads 0.
  double last_partition_seconds = 0;
  double last_build_seconds = 0;
};

/// The JanusAQP system (Sec. 3): owns the evolving table (archival storage),
/// the pooled reservoir, one DPT synopsis per query template with its
/// catch-up engine (which reads the archive through a view Delete() keeps:
/// ArchiveSnapshot) and the re-partitioning triggers.
///
/// Templates are the "first method" of Sec. 5.5: one pooled sample S and one
/// partition tree per template, for total space O(m + L*k). Template 0 is
/// opts.spec; AddTemplate() registers more, up front or on demand (after
/// Initialize() it builds the new tree from the pooled sample and starts its
/// catch-up). Every update reaches every tree. Query() answers from template
/// 0; a caller that routes by predicate columns looks up TemplateFor() and
/// queries dpt(i). The triggers, the beta test and the partial
/// re-partition read template 0 only; a rebuild replaces every template's
/// tree.
///
/// Every full re-optimization — a trigger fire, an explicit
/// BeginBackgroundReopt() or a Rebuild() — runs the ReoptRun pipeline in
/// three stages over the templates registered at its Begin:
///   1. BeginBackgroundReopt(): update-side exclusion. Consumes the pending
///      request, snapshots the pooled sample and |D|, takes a view of the
///      archive and starts capturing updates. An unconditional run draws its
///      catch-up seeds here, one per template in template order.
///   2. BuildBackgroundReopt(): no exclusion. Optimizes each template's
///      partitioning on the snapshot. A drift request runs the beta test of
///      Sec. 5.4 on template 0's candidate against the live tree and stops
///      if it does not win. Each template gets a side tree; then the capture
///      is pre-drained down to reopt_delta_tail ops.
///   3. FinishBackgroundReopt(): full exclusion. Re-runs the beta test if
///      updates arrived since, replays the tail, swaps the synopsis pointers
///      and restarts catch-up on the Begin-time view. A drift run draws its
///      catch-up seeds here, so a rejected candidate draws nothing. The
///      retired trees and catch-up engines are freed on the scan pool.
///      Templates registered during the run keep their live trees.
/// Two drivers run the stages. By default the updater whose trigger fired
/// runs them back to back on its own thread. When an owner registered a
/// hook with SetReoptNotify(), a fire only records the request and calls the
/// hook; the owner (the engine's maintenance thread in api/engines.cc, or a
/// test) runs the stages while updates and queries continue.
///
/// Thread-safety: Insert()/Delete() may be called from multiple threads
/// concurrently (per-leaf statistics locks plus a reservoir/table mutex).
/// Each holds tree_mu_ shared for its whole table change and tree apply, and
/// a synopsis swap holds it exclusively, so no update straddles a swap.
/// Query() and the explicit re-optimization entry points must be externally
/// quiesced, exactly as the experiment drivers and the api/ engine rooms do;
/// FinishBackgroundReopt() additionally requires full exclusion. So must
/// AddTemplate() against readers of the template list (TemplateFor, dpt).
class JanusAqp {
 public:
  explicit JanusAqp(const JanusOptions& opts);

  /// Register a query template; returns its index. No-op (returning the
  /// existing index) when one with the same predicate and aggregate columns
  /// is registered. After Initialize() the template's tree is built from the
  /// current pooled sample with a fresh archive view, under the locks a
  /// synopsis swap holds; its first answers are sample-grade and tighten as
  /// its catch-up proceeds (Sec. 5.5).
  int AddTemplate(const SynopsisSpec& spec);
  /// Index of the template with these predicate columns; -1 when absent.
  int TemplateFor(const std::vector<int>& predicate_columns) const;
  size_t num_templates() const { return templates_.size(); }

  /// Bulk-load initial (historical) data without per-update overhead.
  void LoadInitial(const std::vector<Tuple>& rows);

  /// Draw the pooled sample from the current archive, build every
  /// registered template's synopsis from it and start their catch-up.
  void Initialize();

  /// Process one insertion (Sec. 4.1/4.2 + trigger checks).
  void Insert(const Tuple& t);

  /// Process one deletion by tuple id. Returns false if not live.
  bool Delete(uint64_t id);

  /// Answer a query from template 0's synopsis only (never touches the
  /// archive).
  QueryResult Query(const AggQuery& q) const;

  /// Run every template's catch-up engine to its goal (deterministic,
  /// inline).
  void RunCatchupToGoal();
  /// Absorb up to `batch` catch-up samples per template; returns how many in
  /// all.
  size_t StepCatchup(size_t batch);

  /// Full re-optimization (Sec. 4.3): optimize every template's
  /// partitioning on the pooled reservoir, populate the new synopses,
  /// re-sample the reservoir from the archive and restart catch-up.
  /// Synchronous; a pipeline run in flight becomes stale and is discarded at
  /// its Finish.
  void Reinitialize();
  /// Rebuild every template's tree from the current pooled reservoir, with
  /// no redraw: the three pipeline stages back to back, unconditionally.
  /// Returns true when the rebuilt trees were adopted; false before
  /// Initialize() or with a run in flight.
  bool Rebuild();

  /// Trigger evaluation for the leaf of `t` (Sec. 5.4); called internally by
  /// Insert/Delete, public for tests. A fire records a re-optimization
  /// request. With a notify hook set it calls the hook and returns false;
  /// otherwise it runs the request now (a partial re-partition first when
  /// psi > 0, else the pipeline) and returns true if a tree was adopted.
  bool CheckTriggers(const Tuple& t);

  /// True when a trigger fire or a RequestReopt() is waiting for a pipeline
  /// run.
  bool ReoptRequested() const;
  /// Record an unconditional rebuild request for the pipeline's owner.
  void RequestReopt();
  /// Stage 1. Returns false when a run is already active or the instance is
  /// uninitialized. Called with update-side exclusion (an update-room hold,
  /// or a quiesced instance); a call with no pending request starts an
  /// unconditional rebuild.
  bool BeginBackgroundReopt();
  /// Stage 2. Runs concurrently with queries and updates; no exclusion.
  void BuildBackgroundReopt();
  /// Stage 3. Requires full exclusion (exclusive room / quiesced). Returns
  /// true when the side tree was adopted, false when the run was discarded
  /// (failed build, stale snapshot, or a drift candidate that does not beat
  /// the live tree by beta).
  bool FinishBackgroundReopt();
  /// True between a successful Begin and the matching Finish.
  bool BackgroundReoptActive() const { return reopt_.run.active(); }
  /// Register the owner of the pipeline: from now on a trigger fire records
  /// its request and calls `fn` (outside all locks) instead of running the
  /// stages itself. The engine points this at its maintenance-thread
  /// wakeup. Set before concurrent use.
  void SetReoptNotify(std::function<void()> fn) {
    reopt_notify_ = std::move(fn);
  }

  /// Snapshot persistence: archive, pooled reservoir, template 0's synopsis
  /// (structure-exact) and catch-up engine, system RNG, counters and trigger
  /// baselines — the complete state of a one-template instance, so a
  /// restored instance answers queries bit-identically and continues the
  /// update stream exactly like the uninterrupted one. SaveTemplates writes
  /// templates 1..n-1 (spec, tree, catch-up) to follow it; LoadFrom drops
  /// the instance's templates 1..n-1 and LoadTemplates restores the saved
  /// ones. Options come from construction, not the snapshot. Not
  /// thread-safe: quiesce updates first (the save path of a running service
  /// goes through the sharded engine's per-shard quiesce points).
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);
  void SaveTemplates(persist::Writer* w) const;
  void LoadTemplates(persist::Reader* r);

  /// Structural audit of the whole system: the archive store, the pooled
  /// reservoir (every sampled id must be live in the table), and per
  /// template the synopsis and its DPT sample mirror (same ids as the
  /// reservoir). Not thread-safe; quiesce updates first. Throws
  /// InvariantViolation on inconsistency.
  void CheckInvariants() const;

  /// True once Initialize() has run (or a snapshot of an initialized
  /// instance was loaded).
  bool initialized() const { return templates_[0].dpt != nullptr; }

  /// Template `i`'s synopsis (template 0 by default).
  const Dpt& dpt(int i = 0) const {
    return *templates_[static_cast<size_t>(i)].dpt;
  }
  const DynamicTable& table() const { return table_; }
  const DynamicReservoir& reservoir() const { return *reservoir_; }
  const JanusCounters& counters() const { return counters_; }
  const JanusOptions& options() const { return opts_; }
  /// Catch-up progress summed over the templates.
  size_t catchup_processed() const;
  double catchup_processing_seconds() const;
  /// Template 0's catch-up engine; null before Initialize().
  const CatchupEngine* catchup() const { return templates_[0].catchup.get(); }

 private:
  /// One query template: its spec, its tree over the pooled sample and the
  /// tree's catch-up engine (null before Initialize()).
  struct Template {
    SynopsisSpec spec;
    std::unique_ptr<Dpt> dpt;
    std::unique_ptr<CatchupEngine> catchup;
  };

  /// One pipeline run: the shared ReoptRun plus what JanusAqp's adoption
  /// decides on. Owned by the thread driving the run, except the run's
  /// capture state (update_mu_).
  struct Reopt {
    ReoptRun run;
    bool drift = false;       ///< conditional adoption (beta test)
    int drift_leaf = -1;      ///< leaf whose baseline absorbs a discard
    bool inline_run = false;  ///< run by the firing updater, not an owner
    /// The live synopsis at Begin; if any other path (an explicit
    /// Reinitialize, a partial re-partition, a snapshot Load) replaced it
    /// mid-run, the side tree is stale and Finish discards it.
    const Dpt* live_at_begin = nullptr;
    /// The templates registered at Begin: one side tree each.
    std::vector<SynopsisSpec> specs;
    std::vector<uint64_t> catchup_seeds;
    double cand_var = 0;     ///< template 0's candidate's achieved_error^2
    uint64_t tested_at = 0;  ///< run.captured() at the Build-time beta test
    double partition_seconds = 0;  ///< Build stage: the optimizer calls
    double build_seconds = 0;      ///< Build stage: all of it
    /// Trigger baselines of template 0's snapshot-initialized side tree —
    /// what a rebuild at Begin computes; installed verbatim at Finish.
    std::vector<double> baselines;
    Timer total;  ///< Begin -> adoption wall clock
  };

  DptOptions MakeDptOptions(const SynopsisSpec& spec) const;
  size_t CatchupGoal(size_t n) const;
  /// Optimize `t`'s partitioning on the pooled reservoir, populate its tree
  /// from it and restart its catch-up on `archive` with one rng_ draw.
  /// Returns the optimizer's seconds.
  double BuildTemplate(Template* t, std::shared_ptr<ArchiveSnapshot> archive);
  /// BuildTemplate for every template on one fresh view, then template 0's
  /// trigger baselines. Returns the optimizers' seconds.
  double BuildTemplates();
  /// Template 0's tree: the one triggers, the beta test and a partial
  /// re-partition read.
  Dpt* tree0() const { return templates_[0].dpt.get(); }
  /// One template's tree and catch-up, as SaveTo writes template 0's.
  void SaveTemplate(const Template& t, persist::Writer* w) const;
  void LoadTemplate(Template* t, persist::Reader* r);
  /// Per-leaf MaxVariance baselines for an arbitrary (possibly side) tree.
  std::vector<double> ComputeBaselines(const Dpt& dpt) const;
  double LeafMaxVariance(int leaf) const;
  /// The beta test of Sec. 5.4: the candidate beats the live tree's worst
  /// leaf by a factor beta. Tree and update locks held.
  bool BeatsLiveTree(double cand_var) const;
  /// Appendix E: rebuild only the subtree psi levels above `leaf`. Returns
  /// false when the region calls for a full rebuild instead. Tree and update
  /// locks held.
  bool PartialRepartition(int leaf);
  /// Stage 1 with update_mu_ held.
  bool BeginReopt(bool inline_run);
  /// Stage 2 body; BuildBackgroundReopt() times it.
  void BuildReopt();
  /// All three stages back to back on the calling updater, for a pending
  /// request. Returns true if the side tree was adopted.
  bool RunReoptInline();
  /// Drop the pending trigger request (update_mu_ held).
  void ClearReoptRequest();

  JanusOptions opts_;
  DynamicTable table_;
  std::unique_ptr<DynamicReservoir> reservoir_;
  /// Never empty: template 0 is opts_.spec. Only AddTemplate and
  /// LoadFrom/LoadTemplates resize it, with tree_mu_ held exclusively.
  std::vector<Template> templates_;
  Rng rng_;
  JanusCounters counters_;

  /// Template 0's M_i baselines per node index (leaves only), set at
  /// (re)build.
  std::vector<double> leaf_baseline_var_;
  std::atomic<uint64_t> updates_since_check_{0};

  /// Serializes table + reservoir + sample-index mutation (Insert/Delete
  /// from many threads). The guarded state (table_, reservoir_, the DPT
  /// sample index) is also read lock-free by externally-quiesced queries,
  /// so it cannot carry GUARDED_BY; the lock protects the mutation path
  /// only, per the class thread-safety contract above.
  mutable Mutex update_mu_;

  /// Guards the template list and its tree/catch-up *pointers* against a
  /// swap or an AddTemplate racing the update path: Insert/Delete (whole op)
  /// and catch-up steps hold it shared, any code path that replaces a
  /// synopsis or adds a template holds it exclusively. Lock order: tree_mu_
  /// before update_mu_, never the reverse.
  mutable SharedMutex tree_mu_;

  // Re-optimization state. The request fields are guarded by update_mu_
  // (set by CheckTriggers, consumed by Begin); reopt_ belongs to the thread
  // driving the run, except its capture state (update_mu_, see ReoptRun).
  bool reopt_request_ = false;
  bool reopt_request_starved_ = false;
  bool reopt_request_drift_ = false;
  int reopt_request_leaf_ = -1;
  Reopt reopt_;
  std::function<void()> reopt_notify_;
};

}  // namespace janus

#endif  // JANUS_CORE_JANUS_H_
