#include "core/janus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/partition.h"
#include "persist/serde.h"
#include "util/invariants.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace janus {

namespace {

/// The trees an adoption retires and the catch-up engines that point into
/// them. The holder's destructor hands them to `pool`, whose task frees the
/// engines first; with no pool, or no room to queue the task, they are
/// freed inline, in the same order (members destroy in reverse).
class RetiredTrees {
 public:
  explicit RetiredTrees(ThreadPool* pool) : pool_(pool) {}
  ~RetiredTrees() {
    if (pool_ == nullptr || (dpts.empty() && catchups.empty())) return;
    try {
      auto parts = std::make_shared<RetiredTrees>(nullptr);
      parts->dpts = std::move(dpts);
      parts->catchups = std::move(catchups);
      pool_->Submit([parts] {
        parts->catchups.clear();
        parts->dpts.clear();
      });
    } catch (...) {
      // Queueing failed; whatever was not queued is freed here.
    }
  }
  RetiredTrees(const RetiredTrees&) = delete;
  RetiredTrees& operator=(const RetiredTrees&) = delete;

  std::vector<std::unique_ptr<Dpt>> dpts;
  std::vector<std::unique_ptr<CatchupEngine>> catchups;

 private:
  ThreadPool* pool_;
};

}  // namespace

SptOptions MakeSptOptions(const JanusOptions& o, const SynopsisSpec& spec) {
  SptOptions s;
  s.spec = spec;
  s.num_leaves = o.num_leaves;
  s.focus = o.focus;
  s.sample_rate = o.sample_rate;
  s.algorithm = o.algorithm;
  s.rho = o.rho;
  s.delta = o.delta;
  s.minmax_k = o.minmax_k;
  s.confidence = o.confidence;
  s.seed = o.seed;
  s.exec = o.exec;
  return s;
}

JanusAqp::JanusAqp(const JanusOptions& opts)
    : opts_(opts), table_(opts.schema), rng_(opts.seed) {
  templates_.push_back({opts.spec, nullptr, nullptr});
}

int JanusAqp::TemplateFor(const std::vector<int>& predicate_columns) const {
  for (size_t i = 0; i < templates_.size(); ++i) {
    if (templates_[i].spec.predicate_columns == predicate_columns) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int JanusAqp::AddTemplate(const SynopsisSpec& spec) {
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  const int existing = TemplateFor(spec.predicate_columns);
  if (existing >= 0 &&
      templates_[static_cast<size_t>(existing)].spec.agg_column ==
          spec.agg_column) {
    return existing;
  }
  Template t{spec, nullptr, nullptr};
  // Built before it is listed: a template whose build throws leaves none.
  if (initialized()) {
    BuildTemplate(
        &t, std::make_shared<ArchiveSnapshot>(table_.store(), &update_mu_));
  }
  templates_.push_back(std::move(t));
  return static_cast<int>(templates_.size()) - 1;
}

DptOptions JanusAqp::MakeDptOptions(const SynopsisSpec& spec) const {
  DptOptions d;
  d.spec = spec;
  d.sample_rate = opts_.sample_rate;
  d.minmax_k = opts_.minmax_k;
  d.confidence = opts_.confidence;
  d.delta = opts_.delta;
  d.extra_tracked_columns = opts_.extra_tracked_columns;
  d.exec = opts_.exec;
  return d;
}

void JanusAqp::LoadInitial(const std::vector<Tuple>& rows) {
  for (const Tuple& t : rows) table_.Insert(t);
}

std::vector<double> JanusAqp::ComputeBaselines(const Dpt& dpt) const {
  std::vector<double> baselines(dpt.tree().nodes.size(), 0);
  for (int leaf : dpt.tree().leaves) {
    baselines[static_cast<size_t>(leaf)] =
        dpt.sample_index().MaxVariance(dpt.LeafRect(leaf), opts_.focus);
  }
  return baselines;
}

size_t JanusAqp::CatchupGoal(size_t n) const {
  return static_cast<size_t>(opts_.catchup_rate * static_cast<double>(n));
}

double JanusAqp::BuildTemplate(Template* t,
                               std::shared_ptr<ArchiveSnapshot> archive) {
  Timer optimize;
  PartitionResult pr = OptimizePartition(
      reservoir_->samples(), MakeSptOptions(opts_, t->spec), table_.size());
  const double seconds = optimize.ElapsedSeconds();
  t->dpt = std::make_unique<Dpt>(MakeDptOptions(t->spec), std::move(pr.spec));
  t->dpt->InitializeFromReservoir(reservoir_->samples(), table_.size());
  t->catchup = std::make_unique<CatchupEngine>(
      t->dpt.get(), std::move(archive), CatchupGoal(table_.size()),
      rng_.Next());
  return seconds;
}

double JanusAqp::BuildTemplates() {
  // Templates built together share one view of the archive.
  const auto archive =
      std::make_shared<ArchiveSnapshot>(table_.store(), &update_mu_);
  double seconds = 0;
  for (Template& t : templates_) seconds += BuildTemplate(&t, archive);
  leaf_baseline_var_ = ComputeBaselines(*tree0());
  return seconds;
}

void JanusAqp::Initialize() {
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * opts_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  reservoir_->Reset(table_.SampleUniform(&rng_, target, opts_.exec));
  Timer timer;
  counters_.last_partition_seconds = BuildTemplates();
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  counters_.last_blocking_seconds =
      counters_.last_reopt_seconds - counters_.last_partition_seconds;
  counters_.last_build_seconds = counters_.last_reopt_seconds;
}

void JanusAqp::Insert(const Tuple& t) {
  {
    // Shared for the whole op: a synopsis swap lands before or after it,
    // never between its captured table change and its tree apply.
    ReaderMutexLock tree(&tree_mu_);
    {
      MutexLock lock(&update_mu_);
      table_.Insert(t);
      ++counters_.inserts;
      // One reservoir decision shared by every tree (Sec. 5.5: the set S is
      // stored once; each tree only indexes it).
      const ReservoirChange ch = reservoir_->OnInsert(t, table_.size());
      for (Template& tp : templates_) {
        if (ch.evicted.has_value()) tp.dpt->SampleRemove(*ch.evicted);
        if (ch.added.has_value()) tp.dpt->SampleAdd(*ch.added);
      }
      if (reopt_.run.active()) reopt_.run.CaptureInsert(t, ch);
    }
    for (Template& tp : templates_) tp.dpt->ApplyInsert(t);
  }
  if (opts_.enable_triggers) CheckTriggers(t);
}

bool JanusAqp::Delete(uint64_t id) {
  Tuple t;
  {
    ReaderMutexLock tree(&tree_mu_);
    {
      MutexLock lock(&update_mu_);
      // One id lookup; the archive views copy the pages it changes first.
      const bool live = table_.Delete(id, [&](size_t pos) {
        t = table_.store().RowTuple(pos);
        for (Template& tp : templates_) {
          if (tp.catchup) tp.catchup->snapshot().BeforeDelete(pos);
        }
        if (ArchiveSnapshot* a = reopt_.run.archive()) a->BeforeDelete(pos);
      });
      if (!live) return false;
      ++counters_.deletes;
      const ReservoirChange ch = reservoir_->OnDelete(id);
      std::vector<Tuple> fresh;
      if (ch.needs_resample) {
        // Sec. 4.2: |S| hit its lower bound m; re-sample 2m from the archive.
        fresh = table_.SampleUniform(&rng_, reservoir_->capacity(), opts_.exec);
        reservoir_->Reset(fresh);
        ++counters_.reservoir_resamples;
      }
      for (Template& tp : templates_) {
        if (ch.needs_resample) {
          tp.dpt->ResetSamples(fresh);
        } else if (ch.evicted.has_value()) {
          tp.dpt->SampleRemove(*ch.evicted);
        }
      }
      if (reopt_.run.active()) reopt_.run.CaptureDelete(t, ch, fresh);
    }
    for (Template& tp : templates_) tp.dpt->ApplyDelete(t);
  }
  if (opts_.enable_triggers) CheckTriggers(t);
  return true;
}

QueryResult JanusAqp::Query(const AggQuery& q) const {
  return tree0()->Query(q);
}

void JanusAqp::RunCatchupToGoal() {
  ReaderMutexLock tree(&tree_mu_);
  for (Template& t : templates_) {
    if (t.catchup) t.catchup->RunToGoal();
  }
}

size_t JanusAqp::StepCatchup(size_t batch) {
  ReaderMutexLock tree(&tree_mu_);
  size_t absorbed = 0;
  for (Template& t : templates_) {
    if (t.catchup) absorbed += t.catchup->Step(batch);
  }
  return absorbed;
}

size_t JanusAqp::catchup_processed() const {
  size_t processed = 0;
  for (const Template& t : templates_) {
    if (t.catchup) processed += t.catchup->processed();
  }
  return processed;
}

double JanusAqp::catchup_processing_seconds() const {
  double seconds = 0;
  for (const Template& t : templates_) {
    if (t.catchup) seconds += t.catchup->processing_seconds();
  }
  return seconds;
}

double JanusAqp::LeafMaxVariance(int leaf) const {
  return tree0()->sample_index().MaxVariance(tree0()->LeafRect(leaf),
                                             opts_.focus);
}

bool JanusAqp::BeatsLiveTree(double cand_var) const {
  double worst = 0;
  for (int leaf : tree0()->tree().leaves) {
    worst = std::max(worst, LeafMaxVariance(leaf));
  }
  return cand_var * opts_.beta < worst;
}

bool JanusAqp::PartialRepartition(int leaf) {
  Template& live = templates_[0];
  const PartitionTreeSpec& old_spec = live.dpt->tree();
  // Climb psi levels (Appendix E).
  int anchor = leaf;
  for (int i = 0; i < opts_.partial_repartition_psi; ++i) {
    const int parent = old_spec.nodes[static_cast<size_t>(anchor)].parent;
    if (parent < 0) break;
    anchor = parent;
  }
  if (anchor == 0) return false;  // the subtree is the whole tree

  // Samples and leaf budget of the anchored subtree.
  const Rectangle& region = old_spec.nodes[static_cast<size_t>(anchor)].rect;
  std::vector<Tuple> region_samples;
  std::vector<double> point(opts_.spec.predicate_columns.size());
  for (const auto& [id, t] : live.dpt->sample_tuples()) {
    (void)id;
    ProjectTuple(t, opts_.spec.predicate_columns, point.data());
    if (region.Contains(point.data())) region_samples.push_back(t);
  }
  int subtree_leaves = 0;
  std::vector<int> old_subtree_leaf_nodes;
  {
    std::vector<int> stack{anchor};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      const PartitionNode& n = old_spec.nodes[static_cast<size_t>(i)];
      if (n.IsLeaf()) {
        ++subtree_leaves;
        old_subtree_leaf_nodes.push_back(i);
        continue;
      }
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (region_samples.size() < 4 || subtree_leaves < 2) {
    // Region too thin to re-optimize on its own: degrade to a full rebuild,
    // and count it — silent fallbacks hide the real cost of psi > 0.
    ++counters_.partial_repartition_fallbacks;
    return false;
  }

  Timer timer;
  SptOptions sopts = MakeSptOptions(opts_, opts_.spec);
  sopts.num_leaves = subtree_leaves;
  PartitionResult sub =
      OptimizePartition(region_samples, sopts, table_.size());
  if (!sub.ok) {
    ++counters_.partial_repartition_fallbacks;
    return false;
  }
  // Clip the sub-spec's rectangles into the anchored region.
  for (PartitionNode& n : sub.spec.nodes) {
    for (int d = 0; d < old_spec.dims; ++d) {
      n.rect.set_lo(d, std::max(n.rect.lo(d), region.lo(d)));
      n.rect.set_hi(d, std::min(n.rect.hi(d), region.hi(d)));
    }
  }

  // Graft: copy the old tree, replacing the anchored subtree.
  PartitionTreeSpec grafted;
  grafted.dims = old_spec.dims;
  std::vector<std::pair<int, int>> preserved;  // old leaf node -> new node
  // Map old node index -> new node index (only for nodes we copy).
  std::vector<int> remap(old_spec.nodes.size(), -1);
  // First pass: copy every node not inside the anchored subtree. Identify
  // subtree membership by walking parents.
  auto in_subtree = [&](int node) {
    for (int i = node; i >= 0;
         i = old_spec.nodes[static_cast<size_t>(i)].parent) {
      if (i == anchor) return true;
    }
    return false;
  };
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (static_cast<int>(i) != anchor && in_subtree(static_cast<int>(i))) {
      continue;
    }
    remap[i] = static_cast<int>(grafted.nodes.size());
    grafted.nodes.push_back(old_spec.nodes[i]);
  }
  // Fix copied links.
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (remap[i] < 0) continue;
    PartitionNode& n = grafted.nodes[static_cast<size_t>(remap[i])];
    const int old_parent = old_spec.nodes[i].parent;
    n.parent = old_parent >= 0 ? remap[static_cast<size_t>(old_parent)] : -1;
    if (static_cast<int>(i) == anchor) {
      n.left = n.right = -1;  // re-attached below
      continue;
    }
    if (!old_spec.nodes[i].IsLeaf()) {
      n.left = remap[static_cast<size_t>(old_spec.nodes[i].left)];
      n.right = remap[static_cast<size_t>(old_spec.nodes[i].right)];
    }
  }
  // Attach the new subtree under the anchor: sub.spec node 0 becomes the
  // anchor itself (adopt its split), the rest append with offset.
  const int new_anchor = remap[static_cast<size_t>(anchor)];
  const int offset = static_cast<int>(grafted.nodes.size());
  {
    PartitionNode& a = grafted.nodes[static_cast<size_t>(new_anchor)];
    const PartitionNode& sroot = sub.spec.nodes[0];
    a.split_dim = sroot.split_dim;
    a.split_val = sroot.split_val;
    a.left = sroot.left >= 0 ? offset + sroot.left - 1 : -1;
    a.right = sroot.right >= 0 ? offset + sroot.right - 1 : -1;
  }
  for (size_t i = 1; i < sub.spec.nodes.size(); ++i) {
    PartitionNode n = sub.spec.nodes[i];
    n.parent = n.parent == 0 ? new_anchor
                             : offset + n.parent - 1;
    if (n.left >= 0) {
      n.left = offset + n.left - 1;
      n.right = offset + n.right - 1;
    }
    grafted.nodes.push_back(n);
  }
  // Recompute leaves in node order.
  for (size_t i = 0; i < grafted.nodes.size(); ++i) {
    if (grafted.nodes[i].IsLeaf()) {
      grafted.leaves.push_back(static_cast<int>(i));
    }
  }
  // Preserved leaf mapping (everything copied in pass 1 that is a leaf).
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (remap[i] >= 0 && static_cast<int>(i) != anchor &&
        old_spec.nodes[i].IsLeaf()) {
      preserved.emplace_back(static_cast<int>(i), remap[i]);
    }
  }

  // Build the new synopsis: preserved leaves keep their statistics; new
  // subtree leaves are seeded from the region's reservoir samples with the
  // subtree's catch-up mass preserved (Appendix E keeps estimates of
  // unchanged nodes and restarts catch-up for the changed region).
  const double h_total = live.dpt->catchup_count();
  const double h_sub = live.dpt->NodeCatchupCount(anchor);
  const double n0 = static_cast<double>(table_.size());
  auto fresh =
      std::make_unique<Dpt>(MakeDptOptions(opts_.spec), std::move(grafted));
  for (const auto& [old_node, new_node] : preserved) {
    fresh->CopyLeafStats(*live.dpt, old_node, new_node);
  }
  // Seed new leaves: distribute region samples to their new leaves.
  const double scale =
      region_samples.empty()
          ? 0
          : h_sub / static_cast<double>(region_samples.size());
  std::vector<std::vector<Tuple>> per_leaf(fresh->tree().nodes.size());
  for (const Tuple& t : region_samples) {
    per_leaf[static_cast<size_t>(fresh->LeafForTuple(t))].push_back(t);
  }
  for (size_t i = 0; i < per_leaf.size(); ++i) {
    if (per_leaf[i].empty()) continue;
    // Only seed the freshly created leaves (preserved ones keep stats).
    bool is_preserved = false;
    for (const auto& [o, nn] : preserved) {
      (void)o;
      if (nn == static_cast<int>(i)) {
        is_preserved = true;
        break;
      }
    }
    if (is_preserved) continue;
    fresh->SeedLeafCatchupFromSamples(static_cast<int>(i), per_leaf[i], scale);
  }
  fresh->SetCatchupState(StatMode::kCatchup, n0, h_total);
  // Re-attach the pooled reservoir.
  std::vector<Tuple> pool;
  pool.reserve(live.dpt->sample_tuples().size());
  for (const auto& [id, t] : live.dpt->sample_tuples()) {
    (void)id;
    pool.push_back(t);
  }
  fresh->ResetSamples(pool);
  live.dpt = std::move(fresh);
  live.catchup = std::make_unique<CatchupEngine>(
      live.dpt.get(),
      std::make_shared<ArchiveSnapshot>(table_.store(), &update_mu_),
      CatchupGoal(table_.size()), rng_.Next());
  leaf_baseline_var_ = ComputeBaselines(*live.dpt);
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  ++counters_.partial_repartitions;
  return true;
}

bool JanusAqp::CheckTriggers(const Tuple& t) {
  if (!opts_.enable_triggers) return false;
  if (updates_since_check_.fetch_add(1) + 1 <
      opts_.trigger_check_interval) {
    return false;
  }
  updates_since_check_.store(0);

  bool starved = false;
  int leaf = -1;
  const Dpt* evaluated = nullptr;
  {
    // Evaluation reads the sample index and baselines, which concurrent
    // updaters mutate under update_mu_; the shared tree hold pins the
    // synopsis pointer against a racing swap.
    ReaderMutexLock tree(&tree_mu_);
    MutexLock lock(&update_mu_);
    evaluated = tree0();
    if (evaluated == nullptr) return false;
    ++counters_.trigger_checks;
    leaf = evaluated->LeafForTuple(t);

    // Starvation check (Sec. 5.4): too few samples for robust estimators.
    const double si = evaluated->LeafSampleCount(leaf);
    const double m = static_cast<double>(evaluated->sample_size());
    starved = si < opts_.starvation_factor * std::log2(std::max(2.0, m));

    // Variance drift check.
    const double cur = LeafMaxVariance(leaf);
    const double base = leaf_baseline_var_[static_cast<size_t>(leaf)];
    const bool drift =
        base > 0 && (cur > opts_.beta * base || cur * opts_.beta < base);

    if (!starved && !drift) return false;
    ++counters_.trigger_fires;
    // Record the request; fires while a run is in flight coalesce into the
    // next one.
    reopt_request_ = true;
    reopt_request_starved_ = reopt_request_starved_ || starved;
    reopt_request_drift_ = reopt_request_drift_ || (drift && !starved);
    reopt_request_leaf_ = leaf;
  }
  if (reopt_notify_) {
    reopt_notify_();
    return false;
  }

  // No owner thread: this updater runs the request. A starved leaf first
  // tries the partial re-partition of Appendix E.
  if (starved && opts_.partial_repartition_psi > 0) {
    WriterMutexLock tree(&tree_mu_);
    MutexLock lock(&update_mu_);
    // Another updater swapped the tree since the evaluation, or has a run
    // in flight whose adoption supersedes this fire.
    if (tree0() != evaluated || reopt_.run.active()) return false;
    if (PartialRepartition(leaf)) {
      ClearReoptRequest();
      return true;
    }
  }
  return RunReoptInline();
}

void JanusAqp::Reinitialize() {
  Timer timer;
  // Locked against a pipeline build in flight, which reads the live tree
  // and draws from rng_ (the beta test).
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  Timer build;
  counters_.last_partition_seconds = BuildTemplates();
  counters_.last_build_seconds = build.ElapsedSeconds();
  counters_.last_blocking_seconds =
      counters_.last_build_seconds - counters_.last_partition_seconds;
  // Step 4 (Sec. 4.3): fresh archive sample becomes the pooled reservoir,
  // re-sized to the configured rate of the *current* table.
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * opts_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  std::vector<Tuple> fresh =
      table_.SampleUniform(&rng_, target, opts_.exec);
  reservoir_->Reset(fresh);
  for (Template& t : templates_) t.dpt->ResetSamples(fresh);
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  ++counters_.repartitions;
}

bool JanusAqp::ReoptRequested() const {
  MutexLock lock(&update_mu_);
  return reopt_request_;
}

void JanusAqp::RequestReopt() {
  MutexLock lock(&update_mu_);
  reopt_request_ = true;
  reopt_request_drift_ = false;
}

bool JanusAqp::Rebuild() {
  {
    MutexLock lock(&update_mu_);
    if (reopt_.run.active()) return false;
    ClearReoptRequest();  // unconditional: no beta test
    if (!BeginReopt(/*inline_run=*/true)) return false;
  }
  BuildBackgroundReopt();
  return FinishBackgroundReopt();
}

void JanusAqp::ClearReoptRequest() {
  reopt_request_ = false;
  reopt_request_starved_ = false;
  reopt_request_drift_ = false;
  reopt_request_leaf_ = -1;
}

bool JanusAqp::BeginBackgroundReopt() {
  MutexLock lock(&update_mu_);
  return BeginReopt(/*inline_run=*/false);
}

bool JanusAqp::BeginReopt(bool inline_run) {
  if (reopt_.run.active() || !initialized() || !reservoir_) return false;
  reopt_ = Reopt{};
  // Consume the pending request; with none pending this is an explicit,
  // unconditional rebuild.
  reopt_.drift =
      reopt_request_ && reopt_request_drift_ && !reopt_request_starved_;
  reopt_.drift_leaf = reopt_request_leaf_;
  ClearReoptRequest();
  reopt_.inline_run = inline_run;
  reopt_.live_at_begin = tree0();
  reopt_.run.Begin(reservoir_->samples(), table_.store(), &update_mu_);
  for (const Template& t : templates_) {
    reopt_.specs.push_back(t.spec);
    // An unconditional run draws its catch-up seeds now, in template
    // order, so the RNG stream is positioned exactly as a rebuild at this
    // point leaves it. A drift run draws them at adoption: a rejected
    // candidate draws nothing.
    if (!reopt_.drift) reopt_.catchup_seeds.push_back(rng_.Next());
  }
  return true;
}

bool JanusAqp::RunReoptInline() {
  {
    MutexLock lock(&update_mu_);
    // Another updater's adoption may have consumed the request already.
    if (!reopt_request_ || !BeginReopt(/*inline_run=*/true)) return false;
  }
  BuildBackgroundReopt();
  return FinishBackgroundReopt();
}

void JanusAqp::BuildBackgroundReopt() {
  if (!reopt_.run.active()) return;
  Timer build;
  BuildReopt();
  reopt_.build_seconds = build.ElapsedSeconds();
}

void JanusAqp::BuildReopt() {
  Reopt& r = reopt_;
  for (size_t i = 0; i < r.specs.size(); ++i) {
    Timer optimize;
    PartitionResult pr = OptimizePartition(
        r.run.snapshot(), MakeSptOptions(opts_, r.specs[i]), r.run.n0());
    r.partition_seconds += optimize.ElapsedSeconds();
    if (!pr.ok) return;  // the run is never built; Finish discards it
    if (i == 0) {
      r.cand_var = pr.achieved_error * pr.achieved_error;
      if (r.drift) {
        // Drift requests stay conditional (Sec. 5.4). Testing before the
        // side builds means a losing candidate never pays for them.
        ReaderMutexLock tree(&tree_mu_);
        MutexLock lock(&update_mu_);
        if (tree0() != r.live_at_begin || !BeatsLiveTree(r.cand_var)) return;
        r.tested_at = r.run.captured();
      }
    }
    const Dpt* side =
        r.run.AddSide(MakeDptOptions(r.specs[i]), std::move(pr.spec));
    // Baselines here keep the per-leaf MaxVariance sweep out of the
    // exclusive adoption step.
    if (i == 0) r.baselines = ComputeBaselines(*side);
  }
  r.run.PreDrain(&update_mu_, opts_.reopt_delta_tail);
}

bool JanusAqp::FinishBackgroundReopt() {
  if (!reopt_.run.active()) return false;
  // Retired state is moved aside under the locks (O(1) pointer moves) and
  // freed only after they release: destroying the old tree's sample index
  // costs several milliseconds at 1M rows, and none of it belongs in the
  // exclusive blocking window, nor, with a scan pool, on the thread that
  // drives the run.
  // Declared before the lock guards so destructor order runs locks-first.
  RetiredTrees retired_trees(opts_.exec.pool);
  Reopt retired;
  Timer blocking;
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  retired = std::move(reopt_);
  reopt_ = Reopt{};
  Reopt& r = retired;
  if (r.build_seconds > 0) {  // the Build stage ran
    counters_.last_partition_seconds = r.partition_seconds;
    counters_.last_build_seconds = r.build_seconds;
  }
  const bool current = tree0() == r.live_at_begin;
  bool adopt = r.run.built() && current;
  if (adopt && r.drift && r.run.captured() != r.tested_at) {
    // The live tree absorbed updates since the Build-time test.
    adopt = BeatsLiveTree(r.cand_var);
  }
  if (!adopt) {
    const int leaf = r.drift_leaf;
    if (r.drift && current && leaf >= 0 &&
        leaf < static_cast<int>(leaf_baseline_var_.size())) {
      // The drifted level is the new normal; avoid re-firing every check.
      leaf_baseline_var_[static_cast<size_t>(leaf)] = LeafMaxVariance(leaf);
    }
    if (!r.inline_run) ++counters_.background_discards;
    return false;
  }
  r.run.Finish();
  // The templates registered at Begin share the Begin-time view; later ones
  // were built from the live pool and absorbed every update since.
  const std::shared_ptr<ArchiveSnapshot> archive = r.run.TakeArchive();
  for (size_t i = 0; i < r.specs.size(); ++i) {
    Template& t = templates_[i];
    retired_trees.dpts.push_back(std::move(t.dpt));
    retired_trees.catchups.push_back(std::move(t.catchup));
    t.dpt = r.run.TakeSide(i);
    const uint64_t seed = r.drift ? rng_.Next() : r.catchup_seeds[i];
    t.catchup = std::make_unique<CatchupEngine>(
        t.dpt.get(), archive, CatchupGoal(r.run.n0()), seed);
  }
  leaf_baseline_var_ = std::move(r.baselines);
  // Requests recorded during the run were evaluated against the tree just
  // replaced; adoption (fresh baselines, fresh catch-up) supersedes them.
  ClearReoptRequest();
  counters_.delta_ops_replayed += r.run.replayed();
  counters_.last_reopt_seconds = r.total.ElapsedSeconds();
  counters_.last_blocking_seconds =
      r.inline_run ? counters_.last_reopt_seconds : blocking.ElapsedSeconds();
  ++counters_.repartitions;
  if (!r.inline_run) ++counters_.background_reopts;
  return true;
}

void ReoptRun::Begin(const std::vector<Tuple>& pool, const ColumnStore& live,
                     Mutex* mu) {
  active_ = true;
  snapshot_ = pool;
  n0_ = live.size();
  archive_ = std::make_shared<ArchiveSnapshot>(live, mu);
}

void ReoptRun::CaptureInsert(const Tuple& t, const ReservoirChange& ch) {
  if (ch.evicted.has_value()) {
    delta_.push_back({DeltaOp::Kind::kSampleRemove, *ch.evicted, {}});
  }
  if (ch.added.has_value()) {
    delta_.push_back({DeltaOp::Kind::kSampleAdd, *ch.added, {}});
  }
  delta_.push_back({DeltaOp::Kind::kInsert, t, {}});
  ++captured_;
}

void ReoptRun::CaptureDelete(const Tuple& t, const ReservoirChange& ch,
                             const std::vector<Tuple>& fresh) {
  if (ch.needs_resample) {
    delta_.push_back({DeltaOp::Kind::kSampleReset, Tuple{}, fresh});
  } else if (ch.evicted.has_value()) {
    delta_.push_back({DeltaOp::Kind::kSampleRemove, *ch.evicted, {}});
  }
  delta_.push_back({DeltaOp::Kind::kDelete, t, {}});
  ++captured_;
}

Dpt* ReoptRun::AddSide(const DptOptions& opts, PartitionTreeSpec spec) {
  sides_.push_back(std::make_unique<Dpt>(opts, std::move(spec)));
  sides_.back()->InitializeFromReservoir(snapshot_, n0_);
  return sides_.back().get();
}

void ReoptRun::PreDrain(Mutex* mu, size_t tail) {
  for (int round = 0; round < 8; ++round) {
    std::vector<DeltaOp> batch;
    {
      MutexLock lock(mu);
      if (delta_.size() <= tail) break;
      batch.swap(delta_);
    }
    Replay(batch);
  }
  built_ = true;
}

void ReoptRun::Finish() {
  active_ = false;
  Replay(delta_);
  delta_.clear();
}

void ReoptRun::Replay(const std::vector<DeltaOp>& ops) {
  for (const std::unique_ptr<Dpt>& side : sides_) {
    for (const DeltaOp& op : ops) {
      switch (op.kind) {
        case DeltaOp::Kind::kInsert:
          side->ApplyInsert(op.t);
          break;
        case DeltaOp::Kind::kDelete:
          side->ApplyDelete(op.t);
          break;
        case DeltaOp::Kind::kSampleAdd:
          side->SampleAdd(op.t);
          break;
        case DeltaOp::Kind::kSampleRemove:
          side->SampleRemove(op.t);
          break;
        case DeltaOp::Kind::kSampleReset:
          side->ResetSamples(op.reset);
          break;
      }
    }
    replayed_ += ops.size();
  }
}

void JanusAqp::SaveTo(persist::Writer* w) const {
  table_.SaveTo(w);
  rng_.SaveTo(w);

  w->U64(counters_.inserts);
  w->U64(counters_.deletes);
  w->U64(counters_.reservoir_resamples);
  w->U64(counters_.trigger_checks);
  w->U64(counters_.trigger_fires);
  w->U64(counters_.repartitions);
  w->U64(counters_.partial_repartitions);
  w->U64(counters_.partial_repartition_fallbacks);
  w->U64(counters_.background_reopts);
  w->U64(counters_.background_discards);
  w->U64(counters_.delta_ops_replayed);
  w->F64(counters_.last_reopt_seconds);
  w->F64(counters_.last_blocking_seconds);
  w->U64(updates_since_check_.load());
  w->F64Vec(leaf_baseline_var_);

  w->Bool(reservoir_ != nullptr);
  if (reservoir_) reservoir_->SaveTo(w);
  SaveTemplate(templates_[0], w);
}

void JanusAqp::SaveTemplates(persist::Writer* w) const {
  w->Size(templates_.size() - 1);
  for (size_t i = 1; i < templates_.size(); ++i) {
    w->I32(templates_[i].spec.agg_column);
    w->IntVec(templates_[i].spec.predicate_columns);
    SaveTemplate(templates_[i], w);
  }
}

void JanusAqp::SaveTemplate(const Template& t, persist::Writer* w) const {
  w->Bool(t.dpt != nullptr);
  if (t.dpt) t.dpt->SaveTo(w);
  w->Bool(t.catchup != nullptr);
  if (t.catchup) t.catchup->SaveTo(w);
}

void JanusAqp::LoadFrom(persist::Reader* r) {
  // Locked against a pipeline build in flight, which reads the live table
  // and tree; the replaced tree makes that run stale.
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  reopt_.run.DropArchive();
  table_.LoadFrom(r);
  rng_.LoadFrom(r);

  counters_.inserts = r->U64();
  counters_.deletes = r->U64();
  counters_.reservoir_resamples = r->U64();
  counters_.trigger_checks = r->U64();
  counters_.trigger_fires = r->U64();
  counters_.repartitions = r->U64();
  counters_.partial_repartitions = r->U64();
  counters_.partial_repartition_fallbacks = r->U64();
  counters_.background_reopts = r->U64();
  counters_.background_discards = r->U64();
  counters_.delta_ops_replayed = r->U64();
  counters_.last_reopt_seconds = r->F64();
  counters_.last_blocking_seconds = r->F64();
  counters_.last_partition_seconds = 0;
  counters_.last_build_seconds = 0;
  updates_since_check_.store(r->U64());
  leaf_baseline_var_ = r->F64Vec();

  if (r->Bool()) {
    reservoir_ = std::make_unique<DynamicReservoir>(2, 0);
    reservoir_->LoadFrom(r);
  } else {
    reservoir_.reset();
  }
  templates_.erase(templates_.begin() + 1, templates_.end());
  LoadTemplate(&templates_[0], r);
}

void JanusAqp::LoadTemplates(persist::Reader* r) {
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  const size_t count = r->Size();
  for (size_t i = 0; i < count; ++i) {
    Template t;
    t.spec.agg_column = r->I32();
    t.spec.predicate_columns = r->IntVec();
    LoadTemplate(&t, r);
    templates_.push_back(std::move(t));
  }
}

void JanusAqp::LoadTemplate(Template* t, persist::Reader* r) {
  t->catchup.reset();
  t->dpt.reset();
  if (r->Bool()) {
    t->dpt = std::make_unique<Dpt>(MakeDptOptions(t->spec),
                                   PartitionTreeSpec{});
    t->dpt->LoadFrom(r);
  }
  if (r->Bool()) {
    if (!t->dpt) {
      throw persist::PersistError(
          "snapshot corrupt: catch-up state without a synopsis");
    }
    t->catchup = std::make_unique<CatchupEngine>(
        t->dpt.get(),
        std::make_shared<ArchiveSnapshot>(ColumnStore(opts_.schema)),
        /*goal_samples=*/0, /*seed=*/0);
    t->catchup->LoadFrom(r);
  }
}

void JanusAqp::CheckInvariants() const {
  table_.store().CheckInvariants();
  if (reservoir_) {
    reservoir_->CheckInvariants();
    for (const Tuple& t : reservoir_->samples()) {
      invariants::Require(table_.Find(t.id).has_value(), "JanusAqp",
                          "reservoir holds id " + std::to_string(t.id) +
                              " that is not live in the archive");
    }
  }
  for (size_t i = 0; i < templates_.size(); ++i) {
    const Dpt* dpt = templates_[i].dpt.get();
    if (dpt == nullptr) continue;
    dpt->CheckInvariants();
    // The DPT's sample mirror tracks the reservoir one change at a time
    // (added/evicted deltas); id-set equality proves no delta was dropped.
    if (reservoir_) {
      const std::string tree = "template " + std::to_string(i) + "'s DPT";
      const auto& mirror = dpt->sample_tuples();
      invariants::Require(
          mirror.size() == reservoir_->size(), "JanusAqp",
          tree + " sample mirror holds " + std::to_string(mirror.size()) +
              " tuples but the reservoir holds " +
              std::to_string(reservoir_->size()));
      for (const Tuple& t : reservoir_->samples()) {
        invariants::Require(mirror.contains(t.id), "JanusAqp",
                            "reservoir sample id " + std::to_string(t.id) +
                                " missing from " + tree + " sample mirror");
      }
    }
  }
}

}  // namespace janus
