#ifndef JANUS_CORE_MULTI_H_
#define JANUS_CORE_MULTI_H_

#include <memory>
#include <vector>

#include "core/catchup.h"
#include "core/dpt.h"
#include "core/janus.h"
#include "core/spt.h"
#include "data/table.h"
#include "sampling/reservoir.h"
#include "util/mutex.h"

namespace janus {

/// Multi-template synopsis manager — the "first method" of Sec. 5.5: one
/// global pooled sample S (a single reservoir over the table) and one
/// partition tree per query template, for total space O(m + L*k). Every
/// tree answers its template with the full theoretical error guarantees.
///
/// Templates can be registered upfront or discovered on demand: a query
/// whose predicate attributes match no registered template triggers the
/// construction of a new tree from the pooled sample (in ~O(k polylog m))
/// followed by a catch-up phase for that tree alone, exactly as Sec. 5.5
/// describes.
class MultiTemplateJanus {
 public:
  /// `base` carries the shared knobs (leaf count, rates, seeds); its `spec`
  /// is ignored — templates are added explicitly or on demand.
  explicit MultiTemplateJanus(const JanusOptions& base);

  const JanusOptions& options() const { return base_; }

  /// Register a template; returns its index. No-op (returning the existing
  /// index) when an identical template is already registered.
  int AddTemplate(const SynopsisSpec& spec);

  void LoadInitial(const std::vector<Tuple>& rows);

  /// Build every registered template's tree from a fresh archive sample.
  void Initialize();

  /// Maintenance: one reservoir decision, then every tree absorbs the
  /// update (Sec. 5.5: "all update operations ... can be executed in
  /// parallel for different trees").
  void Insert(const Tuple& t);
  bool Delete(uint64_t id);

  /// Answer a query. Routes to the template with matching predicate
  /// attributes; if none exists, a new template is built on demand from the
  /// pooled sample and its catch-up starts immediately.
  QueryResult Query(const AggQuery& q);

  /// Drive every template's catch-up to its goal.
  void RunCatchupToGoal();

  /// Rebuild every template's tree and catch-up engine from the current
  /// pooled reservoir and archive (the analogue of JanusAqp::Reinitialize):
  /// the three pipeline stages back to back. Returns true when the rebuilt
  /// trees were adopted; false before Initialize() or with a run in flight.
  bool Rebuild();

  // --- Re-optimization pipeline (ReoptRun in core/janus.h) -----------------
  //
  // Begin() snapshots the pooled sample and |D|, a view of the archive, the
  // registered specs and one pre-drawn catch-up seed per template (entry
  // order — the same draws a rebuild at Begin would make). Build() optimizes
  // and populates one side tree per snapshotted template, while updates are
  // captured under update_mu_. Finish() replays the capture tail into every
  // side tree and swaps them in; their catch-ups share the view. Templates
  // discovered *during* the build are not swapped: their live trees were
  // built from the current reservoir and absorbed every later update
  // already.
  //
  // Begin and Finish require full exclusion (the engine's exclusive room);
  // Build runs concurrently with queries and updates.

  /// Stage 1. Returns false when a run is already active or the instance is
  /// uninitialized.
  bool BeginBackgroundRebuild();
  /// Stage 2. No exclusion.
  void BuildBackgroundRebuild();
  /// Stage 3. Returns true when the side trees were adopted. `replayed`
  /// (optional) receives the total delta applications across side trees.
  bool FinishBackgroundRebuild(uint64_t* replayed = nullptr);
  /// True between a successful Begin and the matching Finish.
  bool BackgroundRebuildActive() const { return run_.active(); }

  size_t num_templates() const { return entries_.size(); }
  const Dpt& dpt(int i) const { return *entries_[static_cast<size_t>(i)].dpt; }
  const DynamicTable& table() const { return table_; }
  const DynamicReservoir& reservoir() const { return *reservoir_; }
  /// Index of the template matching the query's predicate columns; -1 when
  /// absent.
  int TemplateFor(const std::vector<int>& predicate_columns) const;

  /// Snapshot persistence: archive, global reservoir, every template's spec,
  /// tree and catch-up engine, and the manager RNG. Templates registered on
  /// the instance before LoadFrom are replaced by the snapshot's set.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

 private:
  struct Entry {
    SynopsisSpec spec;
    std::unique_ptr<Dpt> dpt;
    std::unique_ptr<CatchupEngine> catchup;
  };

  DptOptions MakeDptOptions(const SynopsisSpec& spec) const;
  void BuildEntry(Entry* entry, std::shared_ptr<ArchiveSnapshot> archive);

  JanusOptions base_;
  DynamicTable table_;
  std::unique_ptr<DynamicReservoir> reservoir_;
  std::vector<Entry> entries_;
  Rng rng_;
  bool initialized_ = false;

  /// Serializes Insert/Delete (already serialized by the caller) with the
  /// pipeline build's capture drain and the catch-up gathers.
  Mutex update_mu_;
  /// The pipeline run, the specs of the templates registered at its Begin
  /// and their pre-drawn catch-up seeds.
  ReoptRun run_;
  std::vector<SynopsisSpec> run_specs_;
  std::vector<uint64_t> run_seeds_;
};

}  // namespace janus

#endif  // JANUS_CORE_MULTI_H_
