#ifndef JANUS_API_SHARDED_H_
#define JANUS_API_SHARDED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "util/thread_pool.h"

namespace janus {

/// Shard an id onto [0, num_shards) with a splitmix64-style bit mixer, so
/// sequential ids (the generators emit 0..n-1) still spread uniformly.
size_t ShardIndexForId(uint64_t id, size_t num_shards);

/// Merge per-shard answers to the same query into one pooled estimator.
/// Shards partition the population, and each shard's synopsis is built from
/// an independent sample, so stratified-estimator algebra applies
/// (Sec. 4.4.1 carried one level up):
///   SUM/COUNT: estimates and variances add; the merged CI half-width is
///     sqrt(sum ci_i^2), which equals z*sqrt(sum var_i) for any backend that
///     reports ci = z*sqrt(var) — no z round-trip needed.
///   AVG: a count-weighted mean of the shard means, weights w_i = c_i / C
///     from `shard_counts` (the shards' COUNT estimates for the same
///     predicate); variances scale by w_i^2.
///   MIN/MAX: order statistics don't pool; the merged estimate is the
///     min/max over shards with a non-zero count estimate, the CI the widest
///     contributing one.
/// `shard_counts` may be empty for SUM/COUNT; it must be per-shard COUNT
/// estimates for AVG/MIN/MAX. `exact` survives only if every contributing
/// shard was exact.
QueryResult MergeShardResults(AggFunc func,
                              const std::vector<QueryResult>& parts,
                              const std::vector<double>& shard_counts);

/// Horizontally sharded engine: hash-partitions tuples by id across N inner
/// engines (any registered backend) and pools their answers. Each shard owns
/// a maintenance thread fed by a bounded MPSC queue, so Insert() is an
/// enqueue — this is the first concurrent ingest path that works for *every*
/// backend, including the single-threaded baselines, because a shard's
/// engine is only ever touched by its own maintenance thread (writes) or
/// under the shard's reader lock (queries).
///
/// InsertBatch() costs per shard, not per row: it groups the rows by shard,
/// keeping their order, and hands each shard its group with one count
/// update and one queue push (one lock and one wake-up per chunk that fits
/// the queue). Each shard receives the row sequence that a loop of Insert()
/// calls would give it.
///
/// Thread-safety contract (stronger than base AqpEngine):
///  - Insert()/InsertBatch()/Delete() may be called from any number of
///    threads. Rows of one InsertBatch() call that hash to the same shard
///    reach it in batch order, and other producers' rows may land between
///    its shards' groups, as between Insert() calls.
///  - Query()/QueryBatch()/Stats() may run concurrently with updates: each
///    shard's read first waits at the shard's quiesce point (every update
///    enqueued before the call is applied), then runs under the shard's
///    shared lock. Callers get read-your-writes without external quiescing.
///    Query() and QueryBatch() do this on the calling thread, one shard at
///    a time in shard order; Stats() and the audits read every shard at
///    once on the fan-out pool.
///  - Delete() is synchronous (quiesces the target shard first) so its
///    not-live return value stays accurate.
///
/// Registered under composed keys ("sharded:janus", "sharded:rs", ...) with
/// the shard count taken from EngineConfig::num_shards ("shards=N").
/// table()/synopsis() return nullptr: the archive lives in the shards
/// (Stats() aggregates rows across them).
class ShardedEngine : public AqpEngine {
 public:
  /// Builds `config.num_shards` inner engines of registered name
  /// `inner_name`, each from a copy of `config` with a decorrelated seed.
  ShardedEngine(std::string inner_name, const EngineConfig& config);
  ~ShardedEngine() override;

  const char* name() const override { return name_.c_str(); }

  /// Snapshot persistence: each shard is captured at its quiesce point under
  /// its writer lock (every update enqueued before the call is applied
  /// first), then serialized in shard order. With a single producer —
  /// EngineDriver replaying a broker stream — the snapshot is an exact cut
  /// of the consumed prefix; with concurrent producers it is a consistent
  /// per-shard cut. LoadState requires the engine to have been created with
  /// the same shard count and inner backend.
  void SaveState(persist::Writer* w) const override;
  void LoadState(persist::Reader* r) override;

  size_t num_shards() const { return shards_.size(); }

 protected:
  /// The shards provide all synchronization (per-shard quiesce points +
  /// reader/writer locks); the base-class rooms are bypassed entirely.
  UpdateConcurrency update_concurrency() const override {
    return UpdateConcurrency::kInternal;
  }

  void LoadInitialImpl(const std::vector<Tuple>& rows) override;
  void InitializeImpl() override;
  void InsertImpl(const Tuple& t) override;
  void InsertBatchImpl(std::span<const Tuple> rows) override;
  bool DeleteImpl(uint64_t id) override;
  QueryResult QueryImpl(const AggQuery& q) const override;
  std::vector<QueryResult> QueryBatchImpl(const std::vector<AggQuery>& queries,
                                          ThreadPool* pool) const override;
  void RunCatchupToGoalImpl() override;
  size_t StepCatchupImpl(size_t batch) override;
  void ReinitializeImpl() override;
  EngineStats StatsImpl() const override;

  /// Quiesces each shard, audits its inner engine, and checks shard
  /// disjointness: every archived tuple id must hash to the shard holding it
  /// (otherwise id-addressed deletes and fan-out queries would miss rows).
  void CheckInvariantsImpl() const override;

 private:
  struct Shard;

  /// Run fn(shard_index) for every shard on the fan-out pool and wait for
  /// all of them; then rethrow the first exception any call threw.
  void ForEachShardParallel(const std::function<void(size_t)>& fn) const;

  /// The query path of Query() and QueryBatch(): for each shard in index
  /// order, waits at its quiesce point and answers every query under its
  /// reader lock, on the calling thread; then merges each query's shard
  /// answers in shard order.
  std::vector<QueryResult> AnswerShardByShard(
      std::span<const AggQuery> queries) const;

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Fan-out pool for initialization, catch-up, Stats() and audits, one
  /// thread per shard (distinct from the per-shard maintenance threads).
  /// Queries never use it.
  mutable ThreadPool pool_;
};

/// Registers "sharded:<name>" for every non-sharded engine currently in
/// `registry`. Called once on the global registry right after the built-ins.
void RegisterShardedEngines(EngineRegistry* registry);

}  // namespace janus

#endif  // JANUS_API_SHARDED_H_
