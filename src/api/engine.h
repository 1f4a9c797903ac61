#ifndef JANUS_API_ENGINE_H_
#define JANUS_API_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dpt.h"
#include "data/table.h"
#include "data/workload.h"
#include "persist/snapshot.h"
#include "util/mutex.h"
#include "util/room_lock.h"
#include "util/thread_annotations.h"

namespace janus {

class ThreadPool;

/// Uniform operational snapshot of any engine: counters every backend can
/// fill plus the cost metrics the experiment harnesses report. Fields an
/// engine has no notion of stay at their zero values.
struct EngineStats {
  std::string engine;      ///< registry name of the backend
  size_t rows = 0;         ///< live tuples in the archive
  size_t sample_size = 0;  ///< synopsis sample footprint (tuples)
  /// JanusAQP's query templates: 1 for janus, every one seen so far for
  /// multi; 0 for the other engines.
  int num_templates = 0;

  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t repartitions = 0;
  uint64_t partial_repartitions = 0;
  /// Partial re-partitions that silently degraded to a full rebuild
  /// (region too thin, single-leaf subtree, or sub-optimizer failure).
  uint64_t partial_repartition_fallbacks = 0;
  uint64_t trigger_checks = 0;
  uint64_t trigger_fires = 0;
  uint64_t reservoir_resamples = 0;
  /// Re-optimization pipeline: side trees a maintenance thread
  /// (reopt_mode=background) adopted or discarded, and captured delta ops
  /// replayed into side trees in either mode.
  uint64_t background_reopts = 0;
  uint64_t background_discards = 0;
  uint64_t delta_ops_replayed = 0;

  size_t catchup_processed = 0;
  double catchup_processing_seconds = 0;

  /// Archival scans that took the morsel-parallel path vs stayed serial
  /// (cost cutoff, scan_threads=1, or nested inside another scan).
  uint64_t parallel_scans = 0;
  uint64_t serial_scans = 0;
  /// Subset of serial_scans that stayed serial only because they were
  /// issued from inside a scan worker (fan-out suppressed to avoid
  /// deadlocking the shared pool). Persistently non-zero values mean a
  /// heavy path is being re-parallelized from within a parallel region.
  uint64_t nested_serial_scans = 0;
  /// Morsels executed by pool helpers rather than the issuing thread — the
  /// work-stealing share of all parallel scans (0 when helpers never wake
  /// in time, which is the expected idle-pool fast path).
  uint64_t stolen_morsels = 0;
  double last_reopt_seconds = 0;      ///< last re-optimization, wall clock
  /// How long the last re-opt held updates: the whole run in blocking
  /// mode, the adoption step in background mode.
  double last_blocking_seconds = 0;
  double build_seconds = 0;           ///< last full (re)build / retrain
  double partition_seconds = 0;       ///< optimizer-only share of the build

  /// Heap footprint of the columnar archive (ids + columns + id index);
  /// sharded engines report the sum over their shards.
  size_t archive_bytes = 0;
  /// Estimated heap footprint of the synopsis state answering queries
  /// (partition trees, reservoirs / strata samples, learned models).
  size_t synopsis_bytes = 0;
};

/// The one dynamic-AQP engine interface (the paper's data/query API of
/// Sec. 3.2): bulk load, build, a stream of inserts and deletes, approximate
/// aggregate queries with confidence intervals, and explicit control over
/// catch-up and re-optimization. Every synopsis backend — JanusAQP (janus,
/// and multi with one tree per query template), the RS/SRS/SPN baselines
/// and the static SPT —
/// implements it, so benches, examples and the streaming driver are written
/// once against this class and run against any registered engine.
///
/// Concurrency contract (provided by this base class; no external quiescing
/// required for any engine):
///  - Query()/QueryBatch()/Stats()/Save() are *readers*: any number may run
///    concurrently, against one engine, from any threads.
///  - Insert()/InsertBatch()/Delete()/StepCatchup()/RunCatchupToGoal() are
///    *updaters*: they exclude readers but run concurrently with each other
///    when the backend's maintenance path is thread-safe
///    (update_concurrency() kConcurrent — janus, multi); otherwise the base
///    class serializes them too.
///  - LoadInitial()/Initialize()/Reinitialize()/Load() are *exclusive*.
/// The two rooms alternate under contention (util/room_lock.h), so a steady
/// update stream cannot starve queries or vice versa. The "sharded:<inner>"
/// engines implement their own, stronger synchronization (per-shard quiesce
/// points give read-your-writes) and opt out of the base locking entirely.
///
/// Subclasses implement the protected *Impl hooks; the public non-virtual
/// API wraps them in the contract above.
class AqpEngine {
 public:
  virtual ~AqpEngine() = default;

  /// How the base class synchronizes this engine.
  enum class UpdateConcurrency {
    kSerial,      ///< base serializes updates (single-threaded backends)
    kConcurrent,  ///< backend accepts concurrent updates (janus)
    kInternal,    ///< fully internally synchronized (sharded); no base locks
  };

  /// Registry name of this engine ("janus", "rs", ...).
  virtual const char* name() const = 0;

  /// Bulk-load historical data without per-update overhead.
  void LoadInitial(const std::vector<Tuple>& rows);

  /// Build the synopsis from the loaded archive.
  void Initialize();

  /// Process one insertion.
  void Insert(const Tuple& t);

  /// Insert each row, in order. Room-locked engines take one update-room
  /// hold per row, so a batch never locks readers out for all its rows; the
  /// sharded engines hand each shard its rows in one enqueue.
  void InsertBatch(std::span<const Tuple> rows);

  /// Process one deletion by tuple id. Returns false if the id is not live.
  bool Delete(uint64_t id);

  /// Answer one query from the synopsis (never touches the archive).
  QueryResult Query(const AggQuery& q) const;

  /// Answer a whole workload. With a pool, queries fan out over its worker
  /// threads under one read-room hold (the synopsis is read-only during a
  /// batch); without one the batch runs inline. Results are positionally
  /// aligned with `queries`.
  std::vector<QueryResult> QueryBatch(const std::vector<AggQuery>& queries,
                                      ThreadPool* pool = nullptr) const;

  /// Drive background statistics refinement to its goal. No-op for engines
  /// without a catch-up phase.
  void RunCatchupToGoal();

  /// Absorb up to `batch` catch-up samples; returns how many were absorbed
  /// (0 for engines without catch-up).
  size_t StepCatchup(size_t batch);

  /// Full re-optimization / retrain from the current archive. No-op for
  /// engines whose synopsis never moves (rs, srs).
  void Reinitialize();

  /// Uniform counter/memory snapshot.
  EngineStats Stats() const;

  /// Deep structural self-audit (util/invariants.h): walks every index and
  /// synopsis structure the backend owns and throws InvariantViolation with
  /// a description of the first inconsistency found. Runs as a *reader* —
  /// audits never mutate. O(state) per call; intended for debug builds and
  /// the conformance/property suites (see MaybeAuditInvariants in
  /// util/invariants.h for the JANUS_AUDIT_INVARIANTS gate), not for
  /// production hot paths.
  void CheckInvariants() const;

  /// The evolving archive table, when the engine owns one (all built-in
  /// engines do). Exact ground truths in examples run the columnar scan
  /// kernels over table()->store().
  virtual const DynamicTable* table() const { return nullptr; }

  /// The primary partition-tree synopsis, for experiment introspection
  /// (leaf rectangles, tree shape); nullptr for engines without one.
  virtual const Dpt* synopsis() const { return nullptr; }

  // --- snapshot persistence & crash recovery --------------------------------
  //
  // Every built-in backend (sharded compositions included) captures its
  // *complete* operational state: a restored engine answers queries
  // bit-identically to the saved one, and — because samplers, RNGs and index
  // structures round-trip exactly — processing the same update stream after
  // restore reproduces the uninterrupted run exactly. Recovery therefore
  // composes with the broker: snapshot + replayed stream tail == never
  // crashed (see EngineDriver::SaveSnapshot/LoadSnapshot).
  //
  // Concurrency: Save() reads in the read room (concurrent updates are
  // fenced off for the duration); Load() is exclusive. Direct
  // SaveState/LoadState calls bypass the rooms — quiesce externally. The
  // "sharded:*" engines quiesce each shard internally, so a snapshot taken
  // under concurrent ingest is a consistent per-shard cut of everything
  // enqueued before the call.

  /// Serialize complete engine state into `w`. Engines registered at
  /// runtime without an override reject with persist::PersistError.
  virtual void SaveState(persist::Writer* w) const;

  /// Restore state from `r` into an engine constructed with the *same*
  /// EngineConfig (configuration is not part of the snapshot). Throws
  /// persist::PersistError on corrupt or mismatched payloads.
  virtual void LoadState(persist::Reader* r);

  /// Write a versioned, checksummed snapshot file (magic + format version +
  /// FNV-1a checksum; see persist/snapshot.h). `meta.engine` is stamped with
  /// name() automatically; the broker offsets are the caller's. Throws
  /// persist::PersistError on failure; on success the file is complete (the
  /// write is staged through a temp file and renamed).
  void Save(const std::string& path, const SnapshotMeta& meta = {}) const;

  /// Verify and load a snapshot file written by an engine of the same
  /// registry name; returns the recovery metadata (broker offsets at save
  /// time). Throws persist::PersistError on bad magic / version / checksum /
  /// truncation / engine mismatch — never crashes on corrupt input.
  SnapshotMeta Load(const std::string& path);

 protected:
  /// How the base class must synchronize updates for this backend.
  virtual UpdateConcurrency update_concurrency() const {
    return UpdateConcurrency::kSerial;
  }

  // Backend hooks behind the public API above. Implementations may assume
  // the base class has provided the documented synchronization (kInternal
  // engines are called bare and synchronize themselves).
  virtual void LoadInitialImpl(const std::vector<Tuple>& rows) = 0;
  virtual void InitializeImpl() = 0;
  virtual void InsertImpl(const Tuple& t) = 0;
  /// Called with no room held. The default inserts row by row through
  /// Insert(); kInternal engines override it to apply a batch at once.
  virtual void InsertBatchImpl(std::span<const Tuple> rows);
  virtual bool DeleteImpl(uint64_t id) = 0;
  virtual QueryResult QueryImpl(const AggQuery& q) const = 0;
  /// Default: work-stealing fan-out over `pool` calling QueryImpl (already
  /// inside the read room).
  virtual std::vector<QueryResult> QueryBatchImpl(
      const std::vector<AggQuery>& queries, ThreadPool* pool) const;
  virtual void RunCatchupToGoalImpl() {}
  virtual size_t StepCatchupImpl(size_t batch) {
    (void)batch;
    return 0;
  }
  virtual void ReinitializeImpl() {}
  virtual EngineStats StatsImpl() const = 0;
  /// Backend hook behind CheckInvariants(). The default audits the archive
  /// table when the engine exposes one; backends override to walk their
  /// synopsis structures too and then delegate to this base audit.
  virtual void CheckInvariantsImpl() const;

  /// The base-class room lock, for backends that run their own maintenance
  /// threads (the background re-optimization pipeline): such a thread takes
  /// rooms exactly like an external caller — the update room for pipeline
  /// stages that coexist with queries being fenced, the exclusive room for
  /// the adoption swap. nullptr for kInternal engines.
  RoomLock* rooms() const { return base_rooms(); }

 private:
  bool internal() const {
    return update_concurrency() == UpdateConcurrency::kInternal;
  }

  /// The base-class room lock, or nullptr for engines that synchronize
  /// internally (kInternal) and are called bare.
  RoomLock* base_rooms() const {
    return internal() ? nullptr : &rooms_;
  }

  mutable RoomLock rooms_;
  /// Serializes updates among themselves for kSerial backends.
  mutable Mutex update_mu_;
};

}  // namespace janus

#endif  // JANUS_API_ENGINE_H_
