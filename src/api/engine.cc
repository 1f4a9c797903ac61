#include "api/engine.h"

#include "api/error.h"
#include "data/parallel_scan.h"
#include "util/invariants.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace janus {

namespace {

/// Query-shape validation shared by Query and QueryBatch: the facade
/// rejects malformed requests with a typed result instead of letting a
/// backend index out of bounds or throw.
ApiError ValidateQuery(const AggQuery& q) {
  if (q.predicate_columns.empty()) {
    return ApiError{ApiErrorCode::kInvalidArgument,
                    "query has no predicate columns"};
  }
  if (q.rect.dims() != static_cast<int>(q.predicate_columns.size())) {
    return ApiError{ApiErrorCode::kInvalidArgument,
                    "rectangle dims (" + std::to_string(q.rect.dims()) +
                        ") != predicate columns (" +
                        std::to_string(q.predicate_columns.size()) + ")"};
  }
  for (int c : q.predicate_columns) {
    if (c < 0 || c >= kMaxColumns) {
      return ApiError{ApiErrorCode::kInvalidArgument,
                      "predicate column " + std::to_string(c) +
                          " outside [0, " + std::to_string(kMaxColumns) + ")"};
    }
  }
  if (q.agg_column < 0 || q.agg_column >= kMaxColumns) {
    return ApiError{ApiErrorCode::kInvalidArgument,
                    "aggregate column " + std::to_string(q.agg_column) +
                        " outside [0, " + std::to_string(kMaxColumns) + ")"};
  }
  return ApiError::Ok();
}

QueryResult ErrorResult(const ApiError& e) {
  QueryResult r;
  r.ok = false;
  r.error_code = static_cast<uint32_t>(e.code);
  r.error_detail = e.detail;
  return r;
}

}  // namespace

// --- public API: the concurrency contract ----------------------------------

void AqpEngine::LoadInitial(const std::vector<Tuple>& rows) {
  ExclusiveRoom room(base_rooms());
  LoadInitialImpl(rows);
}

void AqpEngine::Initialize() {
  ExclusiveRoom room(base_rooms());
  InitializeImpl();
}

void AqpEngine::Insert(const Tuple& t) {
  UpdateRoom room(base_rooms());
  if (update_concurrency() == UpdateConcurrency::kSerial) {
    MutexLock lock(&update_mu_);
    InsertImpl(t);
    return;
  }
  InsertImpl(t);
}

void AqpEngine::InsertBatch(std::span<const Tuple> rows) {
  InsertBatchImpl(rows);
}

void AqpEngine::InsertBatchImpl(std::span<const Tuple> rows) {
  for (const Tuple& t : rows) Insert(t);
}

bool AqpEngine::Delete(uint64_t id) {
  UpdateRoom room(base_rooms());
  if (update_concurrency() == UpdateConcurrency::kSerial) {
    MutexLock lock(&update_mu_);
    return DeleteImpl(id);
  }
  return DeleteImpl(id);
}

QueryResult AqpEngine::Query(const AggQuery& q) const {
  const ApiError bad = ValidateQuery(q);
  if (!bad.ok()) return ErrorResult(bad);
  ReadRoom room(base_rooms());
  try {
    return QueryImpl(q);
  } catch (const std::exception& e) {
    // The typed surface: a backend exception becomes an error-slotted
    // result, never an escaped exception (the serving tier relies on this —
    // a served query must produce a response frame, not a connection reset).
    return ErrorResult(ApiErrorFromException(e));
  }
}

std::vector<QueryResult> AqpEngine::QueryBatch(
    const std::vector<AggQuery>& queries, ThreadPool* pool) const {
  // Shape-validate up front; a batch with any invalid member still answers
  // the valid ones (results are positionally aligned, so per-query error
  // slots carry the rejections).
  std::vector<size_t> valid;
  valid.reserve(queries.size());
  std::vector<QueryResult> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const ApiError bad = ValidateQuery(queries[i]);
    if (bad.ok()) {
      valid.push_back(i);
    } else {
      out[i] = ErrorResult(bad);
    }
  }
  if (valid.empty()) return out;
  // All-valid batches (the hot path) avoid the compaction copy.
  const bool all_valid = valid.size() == queries.size();
  std::vector<AggQuery> accepted;
  if (!all_valid) {
    accepted.reserve(valid.size());
    for (size_t i : valid) accepted.push_back(queries[i]);
  }
  ReadRoom room(base_rooms());
  try {
    std::vector<QueryResult> answered =
        QueryBatchImpl(all_valid ? queries : accepted, pool);
    for (size_t j = 0; j < valid.size(); ++j) {
      out[valid[j]] = std::move(answered[j]);
    }
  } catch (const std::exception& e) {
    const QueryResult err = ErrorResult(ApiErrorFromException(e));
    for (size_t i : valid) out[i] = err;
  }
  return out;
}

void AqpEngine::RunCatchupToGoal() {
  // Catch-up shares the update room with inserts/deletes (leaf statistics
  // are per-leaf locked) but is serialized against itself: the catch-up
  // engine's draw RNG and progress counters are single-writer state.
  UpdateRoom room(base_rooms());
  MutexLock lock(&update_mu_);
  RunCatchupToGoalImpl();
}

size_t AqpEngine::StepCatchup(size_t batch) {
  UpdateRoom room(base_rooms());
  MutexLock lock(&update_mu_);
  return StepCatchupImpl(batch);
}

void AqpEngine::Reinitialize() {
  ExclusiveRoom room(base_rooms());
  ReinitializeImpl();
}

EngineStats AqpEngine::Stats() const {
  ReadRoom room(base_rooms());
  return StatsImpl();
}

void AqpEngine::CheckInvariants() const {
  // Reader role: the audit only inspects state, and fencing out updates for
  // its duration is exactly what makes a mid-stream audit meaningful.
  ReadRoom room(base_rooms());
  CheckInvariantsImpl();
}

void AqpEngine::CheckInvariantsImpl() const {
  if (const DynamicTable* t = table()) t->store().CheckInvariants();
}

std::vector<QueryResult> AqpEngine::QueryBatchImpl(
    const std::vector<AggQuery>& queries, ThreadPool* pool) const {
  std::vector<QueryResult> out(queries.size());
  if (pool == nullptr || pool->num_threads() <= 1 || queries.size() < 2) {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = QueryImpl(queries[i]);
    return out;
  }
  // Work-stealing over a shared cursor (scan::ForEachIndex): each worker
  // grabs the next unanswered query, so skewed per-query costs still
  // balance, and workers call QueryImpl directly — the caller already holds
  // the read room for the whole batch. Helpers arrive via one gang
  // dispatch, the caller drains the cursor too, and a batch issued from
  // inside another fan-out's worker runs inline, so concurrent batches on
  // one shared pool neither wait on each other nor deadlock.
  scan::ExecContext ctx;
  ctx.pool = pool;
  const size_t workers = std::min(pool->num_threads() + 1, queries.size());
  scan::ForEachIndex(ctx, queries.size(), workers, [this, &queries, &out](
                                                       size_t i) {
    out[i] = QueryImpl(queries[i]);
  });
  return out;
}

void AqpEngine::SaveState(persist::Writer* w) const {
  (void)w;
  throw persist::PersistError(std::string("engine '") + name() +
                              "' does not implement snapshot persistence");
}

void AqpEngine::LoadState(persist::Reader* r) {
  (void)r;
  throw persist::PersistError(std::string("engine '") + name() +
                              "' does not implement snapshot persistence");
}

void AqpEngine::Save(const std::string& path, const SnapshotMeta& meta) const {
  // Reader role: concurrent queries may proceed, updates are fenced off for
  // the duration of the state capture (kInternal engines quiesce per shard).
  ReadRoom room(base_rooms());
  persist::Writer payload;
  SnapshotMeta stamped = meta;
  stamped.engine = name();
  persist::WriteMeta(stamped, &payload);
  SaveState(&payload);
  persist::WriteSnapshotFile(path, payload);
}

SnapshotMeta AqpEngine::Load(const std::string& path) {
  ExclusiveRoom room(base_rooms());
  // File-level verification (magic, version, size, checksum) happens fully
  // before any engine state is touched, so file corruption never mutates a
  // live engine. State-level mismatches inside LoadState (wrong config for
  // this snapshot) throw after mutation has begun — discard the engine and
  // recreate it in that case.
  const persist::SnapshotFile file = persist::ReadSnapshotFile(path);
  persist::Reader r(file.payload(), file.payload_size());
  const SnapshotMeta meta = persist::ReadMeta(&r);
  if (meta.engine != name()) {
    throw persist::PersistError("snapshot mismatch: file " + path +
                                " was written by engine '" + meta.engine +
                                "', this engine is '" + name() + "'");
  }
  LoadState(&r);
  if (!r.AtEnd()) {
    throw persist::PersistError("snapshot corrupt: " +
                                std::to_string(r.remaining()) +
                                " trailing bytes after engine state");
  }
  return meta;
}

}  // namespace janus
