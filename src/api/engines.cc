// Thin adapters wrapping each synopsis backend behind AqpEngine, plus the
// registration of all built-ins. This file is the only place (outside unit
// tests) where the concrete systems are constructed; everything downstream
// goes through EngineRegistry::Create.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "api/config.h"
#include "api/error.h"
#include "api/registry.h"
#include "baselines/rs.h"
#include "baselines/spn.h"
#include "baselines/srs.h"
#include "core/janus.h"
#include "core/spt.h"
#include "persist/serde.h"
#include "util/invariants.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace janus {

namespace {

/// Reservoir sample footprint: the reservoir stores materialized tuples.
size_t ReservoirBytes(size_t sample_tuples) {
  return sample_tuples * sizeof(Tuple);
}

/// One background maintenance thread driving an engine's re-optimization
/// pipeline (reopt_mode=background): it sleeps until kicked, then runs `job`
/// until the job reports no more pending work. Kicks arriving while the job
/// runs coalesce into one more round — a kick is never lost. The owning
/// engine must construct it after the state the job touches and stop it (or
/// destroy it, declared last) before that state dies.
class MaintenanceThread {
 public:
  explicit MaintenanceThread(std::function<bool()> job)
      : job_(std::move(job)), thread_([this] { Loop(); }) {}

  ~MaintenanceThread() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
      cv_.NotifyAll();
    }
    thread_.join();
  }

  /// Wake the thread; safe from any thread, including inside the job.
  void Kick() {
    MutexLock lock(&mu_);
    work_ = true;
    cv_.NotifyAll();
  }

 private:
  void Loop() {
    for (;;) {
      {
        MutexLock lock(&mu_);
        while (!work_ && !stop_) cv_.Wait(&mu_);
        if (stop_) return;
        work_ = false;
      }
      while (job_()) {
      }
    }
  }

  std::function<bool()> job_;
  Mutex mu_;
  CondVar cv_;
  bool work_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// Morsel-parallel execution context of one engine: the shared scan pool
/// capped at scan_threads workers (scan_threads=1 pins every scan serial),
/// with telemetry flowing into the engine's own counters.
scan::ExecContext MakeExec(const EngineConfig& c,
                           scan::ScanCounters* counters) {
  scan::ExecContext e;
  if (c.scan_threads != 1) e.pool = scan::SharedScanPool();
  e.max_workers = c.scan_threads > 0 ? static_cast<size_t>(c.scan_threads) : 0;
  e.parallel_min_rows = c.parallel_min_rows;
  e.counters = counters;
  return e;
}

JanusOptions MakeJanusOptions(const EngineConfig& c,
                              scan::ScanCounters* counters) {
  JanusOptions o;
  o.exec = MakeExec(c, counters);
  o.schema = c.schema;
  o.spec.agg_column = c.agg_column;
  o.spec.predicate_columns = c.predicate_columns;
  o.num_leaves = c.num_leaves;
  o.sample_rate = c.sample_rate;
  o.catchup_rate = c.catchup_rate;
  o.focus = c.focus;
  o.algorithm = c.algorithm;
  o.confidence = c.confidence;
  o.beta = c.beta;
  o.extra_tracked_columns = c.extra_tracked_columns;
  o.enable_triggers = c.enable_triggers;
  o.trigger_check_interval = c.trigger_check_interval;
  o.starvation_factor = c.starvation_factor;
  o.partial_repartition_psi = c.partial_repartition_psi;
  o.seed = c.seed;
  o.reopt_delta_tail = c.reopt_delta_tail;
  return o;
}

/// Whether the engine starts a maintenance thread to run re-optimizations
/// (reopt_mode=background) instead of leaving them to the updater whose
/// trigger fired (blocking).
bool RunsMaintenanceThread(const EngineConfig& c) {
  if (!ParseReoptMode(c.reopt_mode).has_value()) {
    throw ApiException(ApiErrorCode::kInvalidArgument,
                       "config key 'reopt_mode' has unknown value '" +
                           c.reopt_mode + "'");
  }
  return c.reopt_mode == "background";
}

/// The DP partitioner splits one predicate column, so a tree built by it
/// over a wider template would ignore every other column's bounds and
/// answer wrongly. Such a template is a typed error, never a silent one.
void RequirePartitionable(PartitionAlgorithm algorithm,
                          const std::vector<int>& predicate_columns) {
  if (algorithm != PartitionAlgorithm::kDynamicProgram ||
      predicate_columns.size() == 1) {
    return;
  }
  throw ApiException(ApiErrorCode::kInvalidArgument,
                     "algorithm=dp partitions one predicate column; the "
                     "template has " +
                         std::to_string(predicate_columns.size()));
}

/// "janus" and "multi": the full JanusAQP system of Sec. 4/5. "janus"
/// answers every query from the configured template. "multi" (Sec. 5.5)
/// routes each query to the template with its predicate columns and builds a
/// tree on demand for a template it has not seen; it has no triggers.
class JanusEngine : public AqpEngine {
 public:
  JanusEngine(const EngineConfig& c, bool discover_templates)
      : impl_(MakeJanusOptions(c, &scan_counters_)),
        discover_templates_(discover_templates) {
    RequirePartitionable(c.algorithm, c.predicate_columns);
    if (RunsMaintenanceThread(c)) {
      // A trigger fire (or a multi Reinitialize) records a request and kicks
      // the maintenance thread; the thread drains requests through the
      // three-stage pipeline, taking rooms exactly like an external caller
      // (so the exclusive fence is only the pointer-swap adoption step).
      impl_.SetReoptNotify([this] { maint_->Kick(); });
      maint_ = std::make_unique<MaintenanceThread>(
          [this] { return RunBackgroundReopt(); });
    }
  }
  ~JanusEngine() override { maint_.reset(); }

  const char* name() const override {
    return discover_templates_ ? "multi" : "janus";
  }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    impl_.LoadInitial(rows);
  }
  void InitializeImpl() override { impl_.Initialize(); }
  void InsertImpl(const Tuple& t) override { impl_.Insert(t); }
  bool DeleteImpl(uint64_t id) override { return impl_.Delete(id); }
  QueryResult QueryImpl(const AggQuery& q) const override {
    if (!discover_templates_) return impl_.Query(q);
    // Template discovery mutates the template list; the engine stays
    // logically const (a cache fill), hence the mutable member. Concurrent
    // readers are allowed by the AqpEngine contract, so discovery takes the
    // write lock while established-template lookups share a read lock.
    {
      ReaderMutexLock lock(&template_mu_);
      const int idx = impl_.TemplateFor(q.predicate_columns);
      if (idx >= 0) return impl_.dpt(idx).Query(q);
    }
    WriterMutexLock lock(&template_mu_);
    return impl_.dpt(DiscoverTemplate(q)).Query(q);
  }
  std::vector<QueryResult> QueryBatchImpl(
      const std::vector<AggQuery>& queries,
      ThreadPool* pool) const override {
    // Materialize any missing templates serially first so the fan-out only
    // performs read-only tree lookups.
    if (discover_templates_) {
      WriterMutexLock lock(&template_mu_);
      for (const AggQuery& q : queries) DiscoverTemplate(q);
    }
    return AqpEngine::QueryBatchImpl(queries, pool);
  }
  void RunCatchupToGoalImpl() override { impl_.RunCatchupToGoal(); }
  size_t StepCatchupImpl(size_t batch) override {
    return impl_.StepCatchup(batch);
  }
  /// janus re-optimizes synchronously, with a pool redraw. multi rebuilds
  /// every template's tree through the pipeline: blocking mode runs the
  /// stages back to back under the exclusive room the base class already
  /// holds; background mode records the request and kicks the maintenance
  /// thread, so the call returns at once.
  void ReinitializeImpl() override {
    if (!discover_templates_) {
      impl_.Reinitialize();
    } else if (maint_) {
      impl_.RequestReopt();
      maint_->Kick();
    } else {
      impl_.Rebuild();
    }
  }

  EngineStats StatsImpl() const override {
    // Shares template_mu_ with Query(): on-demand template discovery may
    // reallocate the template list under a concurrent reader.
    ReaderMutexLock lock(&template_mu_);
    EngineStats s;
    s.engine = name();
    s.rows = impl_.table().size();
    s.sample_size = impl_.initialized() ? impl_.dpt().sample_size() : 0;
    s.num_templates = static_cast<int>(impl_.num_templates());
    const JanusCounters& c = impl_.counters();
    s.inserts = c.inserts;
    s.deletes = c.deletes;
    s.repartitions = c.repartitions;
    s.partial_repartitions = c.partial_repartitions;
    s.partial_repartition_fallbacks = c.partial_repartition_fallbacks;
    s.trigger_checks = c.trigger_checks;
    s.trigger_fires = c.trigger_fires;
    s.reservoir_resamples = c.reservoir_resamples;
    s.background_reopts = c.background_reopts;
    s.background_discards = c.background_discards;
    s.delta_ops_replayed = c.delta_ops_replayed;
    s.catchup_processed = impl_.catchup_processed();
    s.catchup_processing_seconds = impl_.catchup_processing_seconds();
    s.last_reopt_seconds = c.last_reopt_seconds;
    s.last_blocking_seconds = c.last_blocking_seconds;
    s.build_seconds = c.last_build_seconds;
    s.partition_seconds = c.last_partition_seconds;
    s.archive_bytes = impl_.table().MemoryBytes();
    if (impl_.initialized()) {
      s.synopsis_bytes = ReservoirBytes(impl_.reservoir().size());
      for (size_t i = 0; i < impl_.num_templates(); ++i) {
        s.synopsis_bytes += impl_.dpt(static_cast<int>(i)).MemoryBytes();
      }
    }
    s.parallel_scans = scan_counters_.parallel_scans.load();
    s.serial_scans = scan_counters_.serial_scans.load();
    s.nested_serial_scans = scan_counters_.nested_serial_scans.load();
    s.stolen_morsels = scan_counters_.stolen_morsels.load();
    return s;
  }
  const DynamicTable* table() const override { return &impl_.table(); }
  const Dpt* synopsis() const override {
    ReaderMutexLock lock(&template_mu_);
    return impl_.initialized() ? &impl_.dpt() : nullptr;
  }

  /// janus writes JanusAqp's one-template bytes; multi appends its other
  /// templates.
  void SaveState(persist::Writer* w) const override {
    ReaderMutexLock lock(&template_mu_);
    impl_.SaveTo(w);
    if (discover_templates_) impl_.SaveTemplates(w);
  }
  void LoadState(persist::Reader* r) override {
    WriterMutexLock lock(&template_mu_);
    impl_.LoadFrom(r);
    if (discover_templates_) impl_.LoadTemplates(r);
  }

 protected:
  /// Replaces the base archive-only audit: JanusAqp audits the store plus
  /// the reservoir/synopsis cross-structure invariants of every template.
  void CheckInvariantsImpl() const override {
    ReaderMutexLock lock(&template_mu_);
    impl_.CheckInvariants();
  }

  /// JanusAQP's maintenance path is thread-safe (per-leaf statistic locks +
  /// an internal table/reservoir mutex), so updates run concurrently.
  UpdateConcurrency update_concurrency() const override {
    return UpdateConcurrency::kConcurrent;
  }

 private:
  /// One pipeline round on the maintenance thread. Begin coexists with
  /// queries being fenced (update room), the build takes no room at all,
  /// and only the adoption swap is exclusive. Returns true to run again —
  /// trigger fires during the build coalesce into the next round.
  bool RunBackgroundReopt() {
    {
      UpdateRoom room(rooms());
      if (!impl_.ReoptRequested()) return false;
      if (!impl_.BeginBackgroundReopt()) return false;
    }
    impl_.BuildBackgroundReopt();
    {
      ExclusiveRoom room(rooms());
      impl_.FinishBackgroundReopt();
    }
    return true;
  }

  /// Template discovery (Sec. 5.5): add a tree for `q`'s template unless one
  /// exists; returns its index. template_mu_ held for writing.
  int DiscoverTemplate(const AggQuery& q) const {
    const int idx = impl_.TemplateFor(q.predicate_columns);
    if (idx >= 0) return idx;
    RequirePartitionable(impl_.options().algorithm, q.predicate_columns);
    SynopsisSpec spec;
    spec.agg_column = q.agg_column;
    spec.predicate_columns = q.predicate_columns;
    return impl_.AddTemplate(spec);
  }

  scan::ScanCounters scan_counters_;
  mutable JanusAqp impl_;
  const bool discover_templates_;
  /// Guards impl_'s template list against discovery (which appends) for
  /// the readers that index it. impl_ itself cannot carry GUARDED_BY: update
  /// paths mutate it under the engine's update room instead of this lock.
  mutable SharedMutex template_mu_;
  /// Declared last: its thread touches impl_ and rooms(), so it must die
  /// first (the destructor also resets it explicitly for clarity).
  std::unique_ptr<MaintenanceThread> maint_;
};

/// "rs": uniform reservoir sample over the whole table.
class RsEngine : public AqpEngine {
 public:
  explicit RsEngine(const EngineConfig& c) {
    RsOptions o;
    o.schema = c.schema;
    o.sample_rate = c.sample_rate;
    o.confidence = c.confidence;
    o.seed = c.seed;
    impl_ = std::make_unique<ReservoirBaseline>(o);
  }

  const char* name() const override { return "rs"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    impl_->LoadInitial(rows);
  }
  void InitializeImpl() override { impl_->Initialize(); }
  void InsertImpl(const Tuple& t) override {
    impl_->Insert(t);
    ++inserts_;
  }
  bool DeleteImpl(uint64_t id) override {
    const bool ok = impl_->Delete(id);
    if (ok) ++deletes_;
    return ok;
  }
  QueryResult QueryImpl(const AggQuery& q) const override {
    return impl_->Query(q);
  }

  EngineStats StatsImpl() const override {
    EngineStats s;
    s.engine = name();
    s.rows = impl_->table().size();
    s.sample_size = impl_->sample_size();
    s.inserts = inserts_;
    s.deletes = deletes_;
    s.archive_bytes = impl_->table().MemoryBytes();
    s.synopsis_bytes = ReservoirBytes(impl_->sample_size());
    return s;
  }
  const DynamicTable* table() const override { return &impl_->table(); }

  void SaveState(persist::Writer* w) const override {
    w->U64(inserts_);
    w->U64(deletes_);
    impl_->SaveTo(w);
  }
  void LoadState(persist::Reader* r) override {
    inserts_ = r->U64();
    deletes_ = r->U64();
    impl_->LoadFrom(r);
  }

 protected:
  void CheckInvariantsImpl() const override { impl_->CheckInvariants(); }

 private:
  std::unique_ptr<ReservoirBaseline> impl_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// "srs": stratified reservoir with frozen equal-depth strata.
class SrsEngine : public AqpEngine {
 public:
  explicit SrsEngine(const EngineConfig& c) {
    SrsOptions o;
    o.schema = c.schema;
    o.num_strata = c.num_strata > 0 ? c.num_strata : c.num_leaves;
    o.predicate_column =
        c.predicate_columns.empty() ? 0 : c.predicate_columns.front();
    o.sample_rate = c.sample_rate;
    o.confidence = c.confidence;
    o.seed = c.seed;
    o.exec = MakeExec(c, &scan_counters_);
    impl_ = std::make_unique<StratifiedReservoirBaseline>(o);
  }

  const char* name() const override { return "srs"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    impl_->LoadInitial(rows);
  }
  void InitializeImpl() override { impl_->Initialize(); }
  void InsertImpl(const Tuple& t) override {
    impl_->Insert(t);
    ++inserts_;
  }
  bool DeleteImpl(uint64_t id) override {
    const bool ok = impl_->Delete(id);
    if (ok) ++deletes_;
    return ok;
  }
  QueryResult QueryImpl(const AggQuery& q) const override {
    return impl_->Query(q);
  }

  EngineStats StatsImpl() const override {
    EngineStats s;
    s.engine = name();
    s.rows = impl_->table().size();
    s.sample_size = impl_->sample_size();
    s.inserts = inserts_;
    s.deletes = deletes_;
    s.archive_bytes = impl_->table().MemoryBytes();
    s.synopsis_bytes = ReservoirBytes(impl_->sample_size());
    s.parallel_scans = scan_counters_.parallel_scans.load();
    s.serial_scans = scan_counters_.serial_scans.load();
    s.nested_serial_scans = scan_counters_.nested_serial_scans.load();
    s.stolen_morsels = scan_counters_.stolen_morsels.load();
    return s;
  }
  const DynamicTable* table() const override { return &impl_->table(); }

  void SaveState(persist::Writer* w) const override {
    w->U64(inserts_);
    w->U64(deletes_);
    impl_->SaveTo(w);
  }
  void LoadState(persist::Reader* r) override {
    inserts_ = r->U64();
    deletes_ = r->U64();
    impl_->LoadFrom(r);
  }

 protected:
  void CheckInvariantsImpl() const override { impl_->CheckInvariants(); }

 private:
  scan::ScanCounters scan_counters_;
  std::unique_ptr<StratifiedReservoirBaseline> impl_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// "spn": the learned-model baseline. Owns the archive, (re)trains the model
/// on a uniform train_fraction sample of the live table; insertions and
/// deletions only move the population scale until the next Reinitialize()
/// (DeepDB's warm-start behaviour).
class SpnEngine : public AqpEngine {
 public:
  explicit SpnEngine(const EngineConfig& c)
      : cfg_(c),
        exec_(MakeExec(c, &scan_counters_)),
        table_(c.schema),
        rng_(c.seed) {}

  const char* name() const override { return "spn"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    for (const Tuple& t : rows) table_.Insert(t);
  }
  void InitializeImpl() override { Retrain(); }
  void ReinitializeImpl() override { Retrain(); }
  void InsertImpl(const Tuple& t) override {
    table_.Insert(t);
    ++inserts_;
    if (spn_) spn_->set_population(table_.size());
  }
  bool DeleteImpl(uint64_t id) override {
    if (!table_.Delete(id)) return false;
    ++deletes_;
    if (spn_) spn_->set_population(table_.size());
    return true;
  }
  QueryResult QueryImpl(const AggQuery& q) const override {
    return spn_ ? spn_->Query(q) : QueryResult{};
  }

  EngineStats StatsImpl() const override {
    EngineStats s;
    s.engine = name();
    s.rows = table_.size();
    s.sample_size = last_train_size_;
    s.inserts = inserts_;
    s.deletes = deletes_;
    s.build_seconds = spn_ ? spn_->train_seconds() : 0;
    s.archive_bytes = table_.MemoryBytes();
    s.synopsis_bytes = spn_ ? spn_->MemoryBytes() : 0;
    s.parallel_scans = scan_counters_.parallel_scans.load();
    s.serial_scans = scan_counters_.serial_scans.load();
    s.nested_serial_scans = scan_counters_.nested_serial_scans.load();
    s.stolen_morsels = scan_counters_.stolen_morsels.load();
    return s;
  }
  const DynamicTable* table() const override { return &table_; }

  void SaveState(persist::Writer* w) const override {
    table_.SaveTo(w);
    rng_.SaveTo(w);
    w->Size(last_train_size_);
    w->U64(inserts_);
    w->U64(deletes_);
    w->Bool(spn_ != nullptr);
    if (spn_) spn_->SaveTo(w);
  }
  void LoadState(persist::Reader* r) override {
    table_.LoadFrom(r);
    rng_.LoadFrom(r);
    last_train_size_ = r->Size();
    inserts_ = r->U64();
    deletes_ = r->U64();
    if (r->Bool()) {
      SpnOptions o;
      o.confidence = cfg_.confidence;
      spn_ = std::make_unique<Spn>(o, std::vector<int>{});
      spn_->LoadFrom(r);
    } else {
      spn_.reset();
    }
  }

 protected:
  void CheckInvariantsImpl() const override {
    AqpEngine::CheckInvariantsImpl();  // archive store
    // Inserts/deletes only move the model's population scale; it must track
    // the live row count exactly until the next retrain.
    if (spn_) {
      invariants::Require(
          spn_->population() == static_cast<double>(table_.size()),
          "SpnEngine",
          "model population " + std::to_string(spn_->population()) +
              " out of sync with the archive's " +
              std::to_string(table_.size()) + " rows");
    }
  }

 private:
  std::vector<int> ModelColumns() const {
    if (!cfg_.model_columns.empty()) return cfg_.model_columns;
    std::vector<int> cols = cfg_.predicate_columns;
    cols.push_back(cfg_.agg_column);
    cols.insert(cols.end(), cfg_.extra_tracked_columns.begin(),
                cfg_.extra_tracked_columns.end());
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    return cols;
  }

  void Retrain() {
    SpnOptions o;
    o.confidence = cfg_.confidence;
    o.seed = rng_.Next();
    spn_ = std::make_unique<Spn>(o, ModelColumns());
    const size_t k = std::max<size_t>(
        1, static_cast<size_t>(cfg_.train_fraction *
                               static_cast<double>(table_.size())));
    const std::vector<Tuple> train = table_.SampleUniform(&rng_, k, exec_);
    last_train_size_ = train.size();
    spn_->Train(train, table_.size());
  }

  EngineConfig cfg_;
  scan::ScanCounters scan_counters_;
  scan::ExecContext exec_;
  DynamicTable table_;
  std::unique_ptr<Spn> spn_;
  Rng rng_;
  size_t last_train_size_ = 0;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// "spt": the static PASS partition tree (Sec. 2.3). Statistics are exact at
/// build time and folded forward on updates, but the partitioning and the
/// leaf strata never move — the frozen baseline Fig. 10 contrasts JanusAQP
/// against. Reinitialize() rebuilds from the current archive.
class SptEngine : public AqpEngine {
 public:
  explicit SptEngine(const EngineConfig& c)
      : cfg_(c), exec_(MakeExec(c, &scan_counters_)), table_(c.schema) {
    RequirePartitionable(c.algorithm, c.predicate_columns);
  }

  const char* name() const override { return "spt"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    for (const Tuple& t : rows) table_.Insert(t);
  }
  void InitializeImpl() override { Rebuild(); }
  void ReinitializeImpl() override { Rebuild(); }
  void InsertImpl(const Tuple& t) override {
    table_.Insert(t);
    ++inserts_;
    if (dpt_) dpt_->ApplyInsert(t);
  }
  bool DeleteImpl(uint64_t id) override {
    const std::optional<Tuple> p = table_.Find(id);
    if (!p.has_value()) return false;
    const Tuple t = *p;
    table_.Delete(id);
    ++deletes_;
    if (dpt_) dpt_->ApplyDelete(t);
    return true;
  }
  QueryResult QueryImpl(const AggQuery& q) const override {
    return dpt_ ? dpt_->Query(q) : QueryResult{};
  }

  EngineStats StatsImpl() const override {
    EngineStats s;
    s.engine = name();
    s.rows = table_.size();
    s.sample_size = dpt_ ? dpt_->sample_size() : 0;
    s.inserts = inserts_;
    s.deletes = deletes_;
    s.build_seconds = build_.total_seconds;
    s.partition_seconds = build_.partition_seconds;
    s.archive_bytes = table_.MemoryBytes();
    s.synopsis_bytes = dpt_ ? dpt_->MemoryBytes() : 0;
    s.parallel_scans = scan_counters_.parallel_scans.load();
    s.serial_scans = scan_counters_.serial_scans.load();
    s.nested_serial_scans = scan_counters_.nested_serial_scans.load();
    s.stolen_morsels = scan_counters_.stolen_morsels.load();
    return s;
  }
  const DynamicTable* table() const override { return &table_; }
  const Dpt* synopsis() const override { return dpt_.get(); }

  void SaveState(persist::Writer* w) const override {
    table_.SaveTo(w);
    w->U64(inserts_);
    w->U64(deletes_);
    w->F64(build_.partition_seconds);
    w->F64(build_.total_seconds);
    w->F64(build_.achieved_error);
    w->Bool(dpt_ != nullptr);
    if (dpt_) dpt_->SaveTo(w);
  }
  void LoadState(persist::Reader* r) override {
    table_.LoadFrom(r);
    inserts_ = r->U64();
    deletes_ = r->U64();
    build_.synopsis.reset();
    build_.partition_seconds = r->F64();
    build_.total_seconds = r->F64();
    build_.achieved_error = r->F64();
    if (r->Bool()) {
      // The same DptOptions mapping BuildSpt applies to SptOptions.
      const SptOptions o = MakeOpts();
      DptOptions dopts;
      dopts.spec = o.spec;
      dopts.sample_rate = o.sample_rate;
      dopts.minmax_k = o.minmax_k;
      dopts.confidence = o.confidence;
      dopts.delta = o.delta;
      dpt_ = std::make_unique<Dpt>(dopts, PartitionTreeSpec{});
      dpt_->LoadFrom(r);
    } else {
      dpt_.reset();
    }
  }

 protected:
  void CheckInvariantsImpl() const override {
    AqpEngine::CheckInvariantsImpl();  // archive store
    if (dpt_) dpt_->CheckInvariants();
  }

 private:
  SptOptions MakeOpts() const {
    SptOptions o;
    o.spec.agg_column = cfg_.agg_column;
    o.spec.predicate_columns = cfg_.predicate_columns;
    o.num_leaves = cfg_.num_leaves;
    o.focus = cfg_.focus;
    o.sample_rate = cfg_.sample_rate;
    o.algorithm = cfg_.algorithm;
    o.confidence = cfg_.confidence;
    o.seed = cfg_.seed;
    o.exec = exec_;
    return o;
  }

  void Rebuild() {
    build_ = BuildSpt(table_.store(), MakeOpts());
    dpt_ = std::move(build_.synopsis);
  }

  EngineConfig cfg_;
  scan::ScanCounters scan_counters_;
  scan::ExecContext exec_;
  DynamicTable table_;
  std::unique_ptr<Dpt> dpt_;
  SptBuildResult build_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

}  // namespace

void RegisterBuiltinEngines(EngineRegistry* registry) {
  registry->Register("janus", "JanusAQP: DPT + catch-up + triggers",
                     [](const EngineConfig& c) {
                       return std::make_unique<JanusEngine>(
                           c, /*discover_templates=*/false);
                     });
  registry->Register("multi", "JanusAQP with one tree per query template",
                     [](const EngineConfig& c) {
                       EngineConfig m = c;
                       m.enable_triggers = false;
                       return std::make_unique<JanusEngine>(
                           m, /*discover_templates=*/true);
                     });
  registry->Register("rs", "uniform reservoir-sampling baseline",
                     [](const EngineConfig& c) {
                       return std::make_unique<RsEngine>(c);
                     });
  registry->Register("srs", "stratified reservoir baseline, frozen strata",
                     [](const EngineConfig& c) {
                       return std::make_unique<SrsEngine>(c);
                     });
  registry->Register("spn", "mini sum-product network (DeepDB stand-in)",
                     [](const EngineConfig& c) {
                       return std::make_unique<SpnEngine>(c);
                     });
  registry->Register("spt", "static PASS partition tree, never re-optimized",
                     [](const EngineConfig& c) {
                       return std::make_unique<SptEngine>(c);
                     });
}

}  // namespace janus
