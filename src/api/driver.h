#ifndef JANUS_API_DRIVER_H_
#define JANUS_API_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/config.h"
#include "api/engine.h"
#include "stream/broker.h"

namespace janus {

struct EngineDriverOptions {
  /// Max records pulled from each topic per poll round.
  size_t poll_batch = 4096;
  /// Catch-up samples absorbed after each pump round (0 disables).
  size_t catchup_step = 0;
  /// Automatic snapshotting: after every `snapshot_every` data records
  /// (inserts + deletes) the driver writes the engine plus its consumer
  /// offsets to `snapshot_path`. 0 / empty disables.
  std::string snapshot_path;
  uint64_t snapshot_every = 0;

  /// Pull the snapshot knobs out of an EngineConfig.
  static EngineDriverOptions FromConfig(const EngineConfig& cfg) {
    EngineDriverOptions o;
    o.snapshot_path = cfg.snapshot_path;
    o.snapshot_every = cfg.snapshot_every;
    return o;
  }
};

struct EngineDriverStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t queries = 0;
};

/// Consumes a Broker's insert/delete/query request streams (Sec. 3.2)
/// through the AqpEngine interface, so the full streaming scenario runs
/// against any registered backend. The driver is a plain consumer: it owns
/// its offsets, polls in batches, applies data updates in arrival order and
/// answers query requests from the synopsis, collecting results in
/// query-topic order.
class EngineDriver {
 public:
  EngineDriver(AqpEngine* engine, Broker* broker,
               EngineDriverOptions opts = {});

  /// One poll round over the three topics. Returns the number of records
  /// consumed (0 means the streams are drained).
  size_t PumpOnce();

  /// Pump until every topic is exhausted; returns total records consumed.
  size_t Drain();

  const EngineDriverStats& stats() const { return stats_; }

  /// Number of results currently buffered (waiting for TakeResults()).
  size_t pending_results() const { return results_.size(); }

  /// Answers to the consumed query requests, in query-topic order, moved
  /// out; the buffer is cleared. Long-running drivers must drain
  /// periodically — the buffer otherwise grows linearly in query count.
  /// Offsets, stats and snapshot semantics are unaffected: a snapshot taken
  /// after a drain records the same offsets it would have with the results
  /// still buffered (results are derived data and are not part of the
  /// snapshot).
  std::vector<QueryResult> TakeResults();

  // --- snapshot persistence & crash recovery --------------------------------

  uint64_t insert_offset() const { return insert_offset_; }
  uint64_t delete_offset() const { return delete_offset_; }
  uint64_t query_offset() const { return query_offset_; }

  /// Write the engine's state plus this driver's consumer offsets to `path`
  /// (AqpEngine::Save with the offsets as recovery metadata). Call between
  /// pump rounds — the driver applies updates synchronously, so the snapshot
  /// is an exact cut of the consumed stream prefix.
  void SaveSnapshot(const std::string& path) const;

  /// Restore engine state and consumer offsets from a snapshot. The next
  /// PumpOnce()/Drain() replays the stream tail past the recorded offsets;
  /// because engine state round-trips bit-exactly, the recovered run is
  /// indistinguishable from one that never stopped. Throws
  /// persist::PersistError on corrupt or mismatched snapshots.
  void LoadSnapshot(const std::string& path);

 private:
  AqpEngine* engine_;
  Broker* broker_;
  EngineDriverOptions opts_;
  uint64_t insert_offset_ = 0;
  uint64_t delete_offset_ = 0;
  uint64_t query_offset_ = 0;
  uint64_t records_since_snapshot_ = 0;
  EngineDriverStats stats_;
  std::vector<QueryResult> results_;
};

}  // namespace janus

#endif  // JANUS_API_DRIVER_H_
