#include "core/multi.h"

#include <algorithm>

#include "persist/serde.h"

namespace janus {

MultiTemplateJanus::MultiTemplateJanus(const JanusOptions& base)
    : base_(base), table_(base.schema), rng_(base.seed) {}

int MultiTemplateJanus::TemplateFor(
    const std::vector<int>& predicate_columns) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].spec.predicate_columns == predicate_columns) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int MultiTemplateJanus::AddTemplate(const SynopsisSpec& spec) {
  const int existing = TemplateFor(spec.predicate_columns);
  if (existing >= 0 &&
      entries_[static_cast<size_t>(existing)].spec.agg_column ==
          spec.agg_column) {
    return existing;
  }
  Entry entry;
  entry.spec = spec;
  // Built before it is listed: a template whose build throws leaves none.
  if (initialized_) {
    BuildEntry(&entry,
               std::make_shared<ArchiveSnapshot>(table_.store(), &update_mu_));
  }
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

DptOptions MultiTemplateJanus::MakeDptOptions(const SynopsisSpec& spec) const {
  DptOptions dopts;
  dopts.spec = spec;
  dopts.sample_rate = base_.sample_rate;
  dopts.minmax_k = base_.minmax_k;
  dopts.confidence = base_.confidence;
  dopts.delta = base_.delta;
  dopts.exec = base_.exec;
  return dopts;
}

void MultiTemplateJanus::BuildEntry(Entry* entry,
                                    std::shared_ptr<ArchiveSnapshot> archive) {
  PartitionResult pr = OptimizePartition(reservoir_->samples(),
                                         MakeSptOptions(base_, entry->spec),
                                         table_.size());
  entry->dpt = std::make_unique<Dpt>(MakeDptOptions(entry->spec),
                                     std::move(pr.spec));
  entry->dpt->InitializeFromReservoir(reservoir_->samples(), table_.size());
  const size_t goal = static_cast<size_t>(
      base_.catchup_rate * static_cast<double>(table_.size()));
  entry->catchup = std::make_unique<CatchupEngine>(
      entry->dpt.get(), std::move(archive), goal, rng_.Next());
}

void MultiTemplateJanus::LoadInitial(const std::vector<Tuple>& rows) {
  for (const Tuple& t : rows) table_.Insert(t);
}

void MultiTemplateJanus::Initialize() {
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * base_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  reservoir_->Reset(table_.SampleUniform(&rng_, target, base_.exec));
  initialized_ = true;
  const auto archive =
      std::make_shared<ArchiveSnapshot>(table_.store(), &update_mu_);
  for (Entry& entry : entries_) BuildEntry(&entry, archive);
}

void MultiTemplateJanus::Insert(const Tuple& t) {
  MutexLock lock(&update_mu_);
  table_.Insert(t);
  // One global reservoir decision shared by every tree (Sec. 5.5: the set S
  // is stored once; each tree only indexes it).
  const ReservoirChange ch = reservoir_->OnInsert(t, table_.size());
  if (run_.active()) run_.CaptureInsert(t, ch);
  for (Entry& entry : entries_) {
    if (ch.evicted.has_value()) entry.dpt->SampleRemove(*ch.evicted);
    if (ch.added.has_value()) entry.dpt->SampleAdd(*ch.added);
    entry.dpt->ApplyInsert(t);
  }
}

bool MultiTemplateJanus::Delete(uint64_t id) {
  MutexLock lock(&update_mu_);
  // One id lookup; the archive views (shared by templates built together)
  // copy the pages it changes first.
  Tuple t;
  const bool live = table_.Delete(id, [&](size_t pos) {
    t = table_.store().RowTuple(pos);
    for (Entry& entry : entries_) {
      if (entry.catchup) entry.catchup->snapshot().BeforeDelete(pos);
    }
    if (ArchiveSnapshot* a = run_.archive()) a->BeforeDelete(pos);
  });
  if (!live) return false;
  const ReservoirChange ch = reservoir_->OnDelete(id);
  std::vector<Tuple> fresh;
  if (ch.needs_resample) {
    fresh = table_.SampleUniform(&rng_, reservoir_->capacity(), base_.exec);
    reservoir_->Reset(fresh);
  }
  if (run_.active()) run_.CaptureDelete(t, ch, fresh);
  for (Entry& entry : entries_) {
    if (ch.needs_resample) {
      entry.dpt->ResetSamples(fresh);
    } else if (ch.evicted.has_value()) {
      entry.dpt->SampleRemove(*ch.evicted);
    }
    entry.dpt->ApplyDelete(t);
  }
  return true;
}

QueryResult MultiTemplateJanus::Query(const AggQuery& q) {
  int idx = TemplateFor(q.predicate_columns);
  if (idx < 0) {
    // A query from a new template: build its tree on demand from the pooled
    // sample and start catch-up for it (Sec. 5.5). The first answer is
    // sample-grade; subsequent ones improve as catch-up proceeds.
    SynopsisSpec spec;
    spec.agg_column = q.agg_column;
    spec.predicate_columns = q.predicate_columns;
    idx = AddTemplate(spec);
  }
  return entries_[static_cast<size_t>(idx)].dpt->Query(q);
}

void MultiTemplateJanus::RunCatchupToGoal() {
  for (Entry& entry : entries_) {
    if (entry.catchup) entry.catchup->RunToGoal();
  }
}

bool MultiTemplateJanus::Rebuild() {
  if (!BeginBackgroundRebuild()) return false;
  BuildBackgroundRebuild();
  return FinishBackgroundRebuild();
}

bool MultiTemplateJanus::BeginBackgroundRebuild() {
  MutexLock lock(&update_mu_);
  if (run_.active() || !initialized_ || !reservoir_) return false;
  run_ = ReoptRun{};
  run_.Begin(reservoir_->samples(), table_.store(), &update_mu_);
  run_specs_.clear();
  run_seeds_.clear();
  run_specs_.reserve(entries_.size());
  run_seeds_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    run_specs_.push_back(e.spec);
    // Entry-order draws — exactly the Next() calls a rebuild at Begin would
    // make, so the RNG stream stays aligned with it.
    run_seeds_.push_back(rng_.Next());
  }
  return true;
}

void MultiTemplateJanus::BuildBackgroundRebuild() {
  if (!run_.active()) return;
  for (const SynopsisSpec& spec : run_specs_) {
    PartitionResult pr = OptimizePartition(
        run_.snapshot(), MakeSptOptions(base_, spec), run_.n0());
    run_.AddSide(MakeDptOptions(spec), std::move(pr.spec));
  }
  run_.PreDrain(&update_mu_, base_.reopt_delta_tail);
}

bool MultiTemplateJanus::FinishBackgroundRebuild(uint64_t* replayed) {
  MutexLock lock(&update_mu_);
  if (!run_.built()) {
    run_ = ReoptRun{};
    return false;
  }
  run_.Finish();
  const size_t goal = static_cast<size_t>(
      base_.catchup_rate * static_cast<double>(run_.n0()));
  // Swap only the templates that existed at Begin; later discoveries built
  // live trees from the current reservoir and need no replacement. Entry
  // indices are stable — discovery only appends. The swapped templates
  // share the Begin-time view.
  const std::shared_ptr<ArchiveSnapshot> archive = run_.TakeArchive();
  for (size_t i = 0; i < run_specs_.size(); ++i) {
    Entry& e = entries_[i];
    e.dpt = run_.TakeSide(i);
    e.catchup = std::make_unique<CatchupEngine>(e.dpt.get(), archive, goal,
                                                run_seeds_[i]);
  }
  if (replayed != nullptr) *replayed = run_.replayed();
  run_ = ReoptRun{};
  return true;
}

void MultiTemplateJanus::SaveTo(persist::Writer* w) const {
  table_.SaveTo(w);
  rng_.SaveTo(w);
  w->Bool(initialized_);
  w->Bool(reservoir_ != nullptr);
  if (reservoir_) reservoir_->SaveTo(w);
  w->Size(entries_.size());
  for (const Entry& e : entries_) {
    w->I32(e.spec.agg_column);
    w->IntVec(e.spec.predicate_columns);
    w->Bool(e.dpt != nullptr);
    if (e.dpt) e.dpt->SaveTo(w);
    w->Bool(e.catchup != nullptr);
    if (e.catchup) e.catchup->SaveTo(w);
  }
}

void MultiTemplateJanus::LoadFrom(persist::Reader* r) {
  // Locked against a pipeline run in flight: it snapshotted the replaced
  // table, so it drops its view and cannot be adopted.
  MutexLock lock(&update_mu_);
  run_.DropArchive();
  table_.LoadFrom(r);
  rng_.LoadFrom(r);
  initialized_ = r->Bool();
  if (r->Bool()) {
    reservoir_ = std::make_unique<DynamicReservoir>(2, 0);
    reservoir_->LoadFrom(r);
  } else {
    reservoir_.reset();
  }
  entries_.clear();
  const size_t num_entries = r->Size();
  entries_.reserve(num_entries);
  for (size_t i = 0; i < num_entries; ++i) {
    Entry e;
    e.spec.agg_column = r->I32();
    e.spec.predicate_columns = r->IntVec();
    if (r->Bool()) {
      e.dpt = std::make_unique<Dpt>(MakeDptOptions(e.spec),
                                    PartitionTreeSpec{});
      e.dpt->LoadFrom(r);
    }
    if (r->Bool()) {
      if (!e.dpt) {
        throw persist::PersistError(
            "snapshot corrupt: template catch-up without a tree");
      }
      e.catchup = std::make_unique<CatchupEngine>(
          e.dpt.get(),
          std::make_shared<ArchiveSnapshot>(ColumnStore(base_.schema)),
          /*goal_samples=*/0, /*seed=*/0);
      e.catchup->LoadFrom(r);
    }
    entries_.push_back(std::move(e));
  }
}

}  // namespace janus
