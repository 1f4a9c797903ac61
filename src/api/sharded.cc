#include "api/sharded.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "util/completion_latch.h"
#include "util/invariants.h"
#include "util/mpsc_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace janus {

namespace {

/// Backpressure window per shard: producers stall once a shard falls this
/// many un-applied inserts behind.
constexpr size_t kShardQueueCapacity = 1 << 14;
/// Updates the maintenance thread applies per lock acquisition.
constexpr size_t kApplyBatch = 256;

/// AVG/MIN/MAX merges need each shard's population share for the predicate.
bool NeedsShardCounts(AggFunc f) {
  return f == AggFunc::kAvg || f == AggFunc::kMin || f == AggFunc::kMax;
}

}  // namespace

size_t ShardIndexForId(uint64_t id, size_t num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer.
  uint64_t x = id + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

QueryResult MergeShardResults(AggFunc func,
                              const std::vector<QueryResult>& parts,
                              const std::vector<double>& shard_counts) {
  QueryResult merged;
  if (parts.empty()) return merged;

  // Error slots propagate: a merge over any failed shard answer is itself
  // meaningless, so the first shard error becomes the pooled result.
  for (const QueryResult& r : parts) {
    if (!r.ok) return r;
  }

  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kCount: {
      // Linear estimators over a partitioned population: everything adds.
      double ci_sq = 0;
      merged.exact = true;
      for (const QueryResult& r : parts) {
        merged.estimate += r.estimate;
        merged.variance_catchup += r.variance_catchup;
        merged.variance_sample += r.variance_sample;
        ci_sq += r.ci_half_width * r.ci_half_width;
        merged.covered_nodes += r.covered_nodes;
        merged.partial_leaves += r.partial_leaves;
        merged.exact = merged.exact && r.exact;
      }
      merged.ci_half_width = std::sqrt(ci_sq);
      return merged;
    }
    case AggFunc::kAvg: {
      double total = 0;
      for (double c : shard_counts) total += std::max(0.0, c);
      if (total <= 0) return merged;
      double ci_sq = 0;
      merged.exact = true;
      for (size_t i = 0; i < parts.size(); ++i) {
        const double c = i < shard_counts.size() ? shard_counts[i] : 0;
        const QueryResult& r = parts[i];
        merged.covered_nodes += r.covered_nodes;
        merged.partial_leaves += r.partial_leaves;
        if (c <= 0) continue;
        const double w = c / total;
        merged.estimate += w * r.estimate;
        merged.variance_catchup += w * w * r.variance_catchup;
        merged.variance_sample += w * w * r.variance_sample;
        ci_sq += w * w * r.ci_half_width * r.ci_half_width;
        merged.exact = merged.exact && r.exact;
      }
      merged.ci_half_width = std::sqrt(ci_sq);
      return merged;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      // Order statistics: the extremum over contributing shards (those whose
      // count estimate says the predicate region is populated there).
      bool any = false;
      merged.exact = true;
      for (size_t i = 0; i < parts.size(); ++i) {
        const double c = i < shard_counts.size() ? shard_counts[i] : 0;
        const QueryResult& r = parts[i];
        merged.covered_nodes += r.covered_nodes;
        merged.partial_leaves += r.partial_leaves;
        if (c <= 0) continue;
        if (!any) {
          merged.estimate = r.estimate;
        } else if (func == AggFunc::kMin) {
          merged.estimate = std::min(merged.estimate, r.estimate);
        } else {
          merged.estimate = std::max(merged.estimate, r.estimate);
        }
        merged.ci_half_width = std::max(merged.ci_half_width, r.ci_half_width);
        merged.exact = merged.exact && r.exact;
        any = true;
      }
      if (!any) merged.exact = false;
      return merged;
    }
  }
  return merged;
}

/// One shard: an inner engine, its bounded update queue, its maintenance
/// thread, and the two synchronization points every read path uses — the
/// quiesce point (all updates enqueued before now are applied) and the
/// reader/writer lock on the engine itself.
struct ShardedEngine::Shard {
  explicit Shard(std::unique_ptr<AqpEngine> e)
      : engine(std::move(e)), queue(kShardQueueCapacity) {
    worker = std::thread([this] { MaintenanceLoop(); });
  }

  ~Shard() {
    queue.Close();
    worker.join();
  }

  /// Hand `rows` to the maintenance thread in order. They count as
  /// enqueued before they are pushed, so a read that starts once this call
  /// returns waits for all of them.
  void EnqueueInserts(std::span<const Tuple> rows) {
    {
      MutexLock lock(&state_mu);
      enqueued += rows.size();
    }
    // Blocks on backpressure; rows are rejected only during shutdown.
    const size_t pushed = queue.PushBatch(rows);
    if (pushed < rows.size()) {
      MutexLock lock(&state_mu);
      enqueued -= rows.size() - pushed;
    }
  }

  /// The shard's quiesce point: wait until every update enqueued before this
  /// call has been applied. Producers may keep enqueueing; the wait target
  /// is a snapshot, so readers are never starved by a steady write load.
  void Quiesce() const {
    MutexLock lock(&state_mu);
    const uint64_t target = enqueued;
    while (applied < target) applied_cv.Wait(&state_mu);
  }

  void MaintenanceLoop() {
    std::vector<Tuple> batch;
    batch.reserve(kApplyBatch);
    for (;;) {
      batch.clear();
      if (queue.PopBatch(&batch, kApplyBatch) == 0) return;
      {
        WriterMutexLock lock(&engine_mu);
        for (const Tuple& t : batch) engine->Insert(t);
      }
      {
        MutexLock lock(&state_mu);
        applied += batch.size();
      }
      applied_cv.NotifyAll();
    }
  }

  /// Set once at construction; the *pointee* is protected by engine_mu (the
  /// maintenance thread and synchronous mutators hold it unique, read paths
  /// shared).
  std::unique_ptr<AqpEngine> engine PT_GUARDED_BY(engine_mu);
  BoundedMpscQueue<Tuple> queue;
  /// Writers (the maintenance thread, synchronous deletes, re-optimization)
  /// take it unique; queries and stats snapshots share it.
  mutable SharedMutex engine_mu;
  mutable Mutex state_mu;
  mutable CondVar applied_cv;
  uint64_t enqueued GUARDED_BY(state_mu) = 0;
  uint64_t applied GUARDED_BY(state_mu) = 0;
  std::thread worker;
};

ShardedEngine::ShardedEngine(std::string inner_name,
                             const EngineConfig& config)
    : name_("sharded:" + inner_name),
      pool_(static_cast<size_t>(std::max(1, config.num_shards))) {
  const size_t n = static_cast<size_t>(std::max(1, config.num_shards));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EngineConfig shard_cfg = config;
    shard_cfg.engine = inner_name;
    // Decorrelate the shards' sampling streams: pooled-variance merging
    // assumes independent per-shard samples.
    shard_cfg.seed = config.seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    shards_.push_back(std::make_unique<Shard>(
        EngineRegistry::Global().CreateEngine(inner_name, shard_cfg)));
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::ForEachShardParallel(
    const std::function<void(size_t)>& fn) const {
  if (shards_.size() == 1) {
    fn(0);
    return;
  }
  // Per-call latch, not pool-global WaitIdle: concurrent fan-outs (Stats
  // alongside QueryBatch — both readers under the new contract) must not
  // wait on each other's shard tasks. Every task arrives, also when fn
  // throws, and the first exception reaches the caller once all are done.
  CompletionLatch latch(shards_.size());
  Mutex error_mu;
  std::exception_ptr first_error;
  for (size_t i = 0; i < shards_.size(); ++i) {
    pool_.Submit([&fn, &latch, &error_mu, &first_error, i] {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(&error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
      latch.Arrive();
    });
  }
  latch.Wait();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ShardedEngine::LoadInitialImpl(const std::vector<Tuple>& rows) {
  std::vector<std::vector<Tuple>> parts(shards_.size());
  for (auto& p : parts) p.reserve(rows.size() / shards_.size() + 1);
  for (const Tuple& t : rows) {
    parts[ShardIndexForId(t.id, shards_.size())].push_back(t);
  }
  ForEachShardParallel([this, &parts](size_t i) {
    WriterMutexLock lock(&shards_[i]->engine_mu);
    shards_[i]->engine->LoadInitial(parts[i]);
  });
}

void ShardedEngine::InitializeImpl() {
  ForEachShardParallel([this](size_t i) {
    WriterMutexLock lock(&shards_[i]->engine_mu);
    shards_[i]->engine->Initialize();
  });
}

void ShardedEngine::InsertImpl(const Tuple& t) {
  shards_[ShardIndexForId(t.id, shards_.size())]->EnqueueInserts({&t, 1});
}

void ShardedEngine::InsertBatchImpl(std::span<const Tuple> rows) {
  const size_t n = shards_.size();
  // A stable counting sort by shard: grouped[begin[s], begin[s + 1]) holds
  // shard s's rows in their batch order.
  std::vector<size_t> shard_of(rows.size());
  std::vector<size_t> begin(n + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    shard_of[i] = ShardIndexForId(rows[i].id, n);
    ++begin[shard_of[i] + 1];
  }
  for (size_t s = 0; s < n; ++s) begin[s + 1] += begin[s];
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  std::vector<Tuple> grouped(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    grouped[next[shard_of[i]]++] = rows[i];
  }
  const std::span<const Tuple> all(grouped);
  for (size_t s = 0; s < n; ++s) {
    if (begin[s + 1] == begin[s]) continue;
    shards_[s]->EnqueueInserts(all.subspan(begin[s], begin[s + 1] - begin[s]));
  }
}

bool ShardedEngine::DeleteImpl(uint64_t id) {
  Shard& shard = *shards_[ShardIndexForId(id, shards_.size())];
  // Drain the shard first so a delete observes every earlier insert of the
  // same id, keeping the not-live return value accurate.
  shard.Quiesce();
  WriterMutexLock lock(&shard.engine_mu);
  return shard.engine->Delete(id);
}

QueryResult ShardedEngine::QueryImpl(const AggQuery& q) const {
  return AnswerShardByShard({&q, 1}).front();
}

std::vector<QueryResult> ShardedEngine::QueryBatchImpl(
    const std::vector<AggQuery>& queries, ThreadPool* pool) const {
  // Each shard answers the whole batch under one lock hold on the calling
  // thread; an external pool adds nothing here.
  (void)pool;
  return AnswerShardByShard(queries);
}

std::vector<QueryResult> ShardedEngine::AnswerShardByShard(
    std::span<const AggQuery> queries) const {
  const size_t n = shards_.size();
  const size_t m = queries.size();
  // parts[i][s] is shard s's answer to query i; counts[i][s] is its COUNT
  // estimate for the same predicate, the AVG/MIN/MAX merge weight.
  std::vector<std::vector<QueryResult>> parts(m);
  std::vector<std::vector<double>> counts(m);
  for (size_t i = 0; i < m; ++i) {
    parts[i].resize(n);
    counts[i].resize(n);
  }
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    shard.Quiesce();
    ReaderMutexLock lock(&shard.engine_mu);
    for (size_t i = 0; i < m; ++i) {
      parts[i][s] = shard.engine->Query(queries[i]);
      if (n > 1 && NeedsShardCounts(queries[i].func)) {
        AggQuery cq = queries[i];
        cq.func = AggFunc::kCount;
        counts[i][s] = shard.engine->Query(cq).estimate;
      }
    }
  }
  std::vector<QueryResult> out;
  out.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    // A single shard's answer is the answer: the merge would only round it.
    out.push_back(n == 1 ? std::move(parts[i][0])
                         : MergeShardResults(queries[i].func, parts[i],
                                             counts[i]));
  }
  return out;
}

void ShardedEngine::RunCatchupToGoalImpl() {
  ForEachShardParallel([this](size_t i) {
    shards_[i]->Quiesce();
    WriterMutexLock lock(&shards_[i]->engine_mu);
    shards_[i]->engine->RunCatchupToGoal();
  });
}

size_t ShardedEngine::StepCatchupImpl(size_t batch) {
  // Distribute the budget so the fleet absorbs at most `batch` samples in
  // total, honoring the "up to batch" contract.
  const size_t n = shards_.size();
  const size_t base = batch / n;
  const size_t remainder = batch % n;
  std::vector<size_t> absorbed(n, 0);
  ForEachShardParallel([&, this](size_t i) {
    const size_t budget = base + (i < remainder ? 1 : 0);
    if (budget == 0) return;
    shards_[i]->Quiesce();
    WriterMutexLock lock(&shards_[i]->engine_mu);
    absorbed[i] = shards_[i]->engine->StepCatchup(budget);
  });
  size_t total = 0;
  for (size_t a : absorbed) total += a;
  return total;
}

void ShardedEngine::ReinitializeImpl() {
  ForEachShardParallel([this](size_t i) {
    shards_[i]->Quiesce();
    WriterMutexLock lock(&shards_[i]->engine_mu);
    shards_[i]->engine->Reinitialize();
  });
}

EngineStats ShardedEngine::StatsImpl() const {
  // Coherence: each shard's snapshot is taken at the shard's quiesce point
  // under its reader lock, so per-shard counters are internally consistent
  // and monotone; sums of monotone per-shard counters are monotone.
  std::vector<EngineStats> parts(shards_.size());
  ForEachShardParallel([this, &parts](size_t i) {
    shards_[i]->Quiesce();
    ReaderMutexLock lock(&shards_[i]->engine_mu);
    parts[i] = shards_[i]->engine->Stats();
  });
  EngineStats total;
  total.engine = name_;
  for (const EngineStats& s : parts) {
    total.rows += s.rows;
    total.sample_size += s.sample_size;
    total.num_templates = std::max(total.num_templates, s.num_templates);
    total.inserts += s.inserts;
    total.deletes += s.deletes;
    total.repartitions += s.repartitions;
    total.partial_repartitions += s.partial_repartitions;
    total.partial_repartition_fallbacks += s.partial_repartition_fallbacks;
    total.trigger_checks += s.trigger_checks;
    total.trigger_fires += s.trigger_fires;
    total.reservoir_resamples += s.reservoir_resamples;
    total.background_reopts += s.background_reopts;
    total.background_discards += s.background_discards;
    total.delta_ops_replayed += s.delta_ops_replayed;
    total.catchup_processed += s.catchup_processed;
    total.catchup_processing_seconds += s.catchup_processing_seconds;
    total.parallel_scans += s.parallel_scans;
    total.serial_scans += s.serial_scans;
    total.nested_serial_scans += s.nested_serial_scans;
    total.stolen_morsels += s.stolen_morsels;
    total.archive_bytes += s.archive_bytes;
    total.synopsis_bytes += s.synopsis_bytes;
    // Wall-clock style metrics: the slowest shard bounds the fleet.
    total.last_reopt_seconds =
        std::max(total.last_reopt_seconds, s.last_reopt_seconds);
    total.last_blocking_seconds =
        std::max(total.last_blocking_seconds, s.last_blocking_seconds);
    total.build_seconds = std::max(total.build_seconds, s.build_seconds);
    total.partition_seconds =
        std::max(total.partition_seconds, s.partition_seconds);
  }
  return total;
}

void ShardedEngine::CheckInvariantsImpl() const {
  const size_t n = shards_.size();
  ForEachShardParallel([this, n](size_t s) {
    Shard& shard = *shards_[s];
    shard.Quiesce();
    ReaderMutexLock lock(&shard.engine_mu);
    // The inner engine's own audit first (kInternal engines are called
    // bare, so this runs without re-entering any base-class room)...
    shard.engine->CheckInvariants();
    // ...then shard-disjointness: every tuple this shard archives must hash
    // here, or deletes/queries addressed by id would miss it.
    if (const DynamicTable* table = shard.engine->table()) {
      for (uint64_t id : table->store().ids()) {
        invariants::Require(ShardIndexForId(id, n) == s, "ShardedEngine",
                            "tuple id " + std::to_string(id) +
                                " lives in shard " + std::to_string(s) +
                                " but hashes to shard " +
                                std::to_string(ShardIndexForId(id, n)));
      }
    }
  });
}

void ShardedEngine::SaveState(persist::Writer* w) const {
  w->U32(static_cast<uint32_t>(shards_.size()));
  // Serially, one shard at a time: the writer is a single buffer, and each
  // shard's quiesce + writer lock gives a consistent per-shard cut.
  for (const auto& shard : shards_) {
    shard->Quiesce();
    WriterMutexLock lock(&shard->engine_mu);
    shard->engine->SaveState(w);
  }
}

void ShardedEngine::LoadState(persist::Reader* r) {
  const uint32_t count = r->U32();
  if (count != shards_.size()) {
    throw persist::PersistError(
        "snapshot mismatch: file holds " + std::to_string(count) +
        " shards, engine was created with shards=" +
        std::to_string(shards_.size()));
  }
  for (const auto& shard : shards_) {
    shard->Quiesce();
    WriterMutexLock lock(&shard->engine_mu);
    shard->engine->LoadState(r);
  }
}

void RegisterShardedEngines(EngineRegistry* registry) {
  for (const std::string& base : registry->Names()) {
    if (base.rfind("sharded:", 0) == 0) continue;
    registry->Register(
        "sharded:" + base,
        "hash-sharded (shards=N) over: " + registry->Description(base),
        [base](const EngineConfig& c) {
          return std::make_unique<ShardedEngine>(base, c);
        });
  }
}

}  // namespace janus
