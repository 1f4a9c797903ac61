#ifndef JANUS_NET_SERVER_H_
#define JANUS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/config.h"
#include "api/engine.h"
#include "net/socket.h"
#include "net/wire.h"
#include "stream/broker.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace janus {
namespace net {

/// Serving-tier knobs. Parsed from the shared ArgMap like EngineConfig;
/// KnownKeys()/KeyNames() publish the registry so binaries can whitelist
/// these keys with EngineConfig::FromArgs and the README table can list
/// them from the same source of truth.
struct ServerOptions {
  /// TCP port to listen on (loopback); 0 binds an ephemeral port — tests
  /// read the actual one back via AqpServer::port().
  uint16_t listen_port = 0;
  /// Query coalescing window: single-query requests arriving within this
  /// many microseconds are answered by ONE engine QueryBatch call under a
  /// single read-room hold (sharded engines quiesce each shard once per
  /// batch instead of once per query). 0 disables batching — every query
  /// dispatches immediately.
  int64_t batch_window_us = 0;
  /// Upper bound on queries coalesced into one batch; a full batch
  /// dispatches before the window elapses.
  size_t batch_max = 64;
  /// Token-bucket refill rate per tenant, in queries/second (a batch of N
  /// costs N tokens). 0 disables admission control.
  double tenant_rate = 0;
  /// Bucket capacity (burst allowance); 0 defaults to max(1, tenant_rate).
  double tenant_burst = 0;
  /// Cap on queries admitted but not yet answered; beyond it requests get
  /// a typed kRejectedOverloaded reply. 0 disables the cap.
  size_t max_inflight = 0;
  /// Cap on simultaneously served connections; excess connections receive
  /// a typed kRejectedOverloaded error frame and are closed. 0 = unlimited.
  size_t max_clients = 0;

  /// Key registry (key + one-line summary), same shape as
  /// EngineConfig::KnownKeys(); drives the README table and the wire-level
  /// config echo.
  static const std::vector<EngineConfig::KeyInfo>& KnownKeys();
  /// Just the key names — pass as `extra_known` to EngineConfig::FromArgs.
  static std::vector<std::string> KeyNames();

  /// Read the serving keys out of the shared flag parser. Values are
  /// validated (e.g. listen_port must fit a TCP port); violations throw
  /// ApiException(kInvalidArgument).
  static ServerOptions FromArgs(const ArgMap& args);
};

/// The networked multi-tenant serving tier: a multi-threaded TCP server
/// fronting ONE shared AqpEngine through the engine's own read/update-room
/// concurrency contract. Connection threads decode frames (net/wire.h),
/// run requests against the engine and reply in-band — every failure mode
/// (malformed frame, unknown type, rate limit, overload, backend error)
/// produces a typed response frame, never a dropped request.
///
/// Request batching: with batch_window_us > 0, single-query requests from
/// all connections funnel into a dispatcher thread that coalesces them
/// into engine QueryBatch calls of at most batch_max queries, one per
/// window. The engine holds the read room once per batch — for sharded
/// engines that means one per-shard quiesce per batch instead of per query.
///
/// Admission control: a token bucket per tenant id (frame header field),
/// refilled at tenant_rate tokens/sec up to tenant_burst. Rejected
/// requests get a typed kRejectedRateLimit reply on the same connection —
/// a greedy tenant burns its own bucket and cannot starve a compliant one.
///
/// Streamed updates: with a Broker, insert/delete requests are enqueued
/// into the broker's topics and acknowledged as accepted; a pump thread
/// drives an EngineDriver that applies them to the engine in arrival
/// order (drain-only: results are taken and discarded, queries are served
/// directly, not through the query topic). Without a Broker, updates
/// apply synchronously before the acknowledgment.
class AqpServer {
 public:
  AqpServer(AqpEngine* engine, ServerOptions opts, Broker* broker = nullptr);
  ~AqpServer();

  AqpServer(const AqpServer&) = delete;
  AqpServer& operator=(const AqpServer&) = delete;

  /// Bind, listen and start the accept/dispatcher/pump threads. Throws
  /// ApiException(kNetwork) if the port cannot be bound.
  void Start();

  /// Shut down: stop accepting, unblock and join every connection, flush
  /// the batcher (pending queries are answered, not dropped), drain the
  /// broker topics in stream mode. Idempotent.
  void Stop();

  /// Actual listening port (after Start(); resolves listen_port == 0).
  uint16_t port() const { return port_; }

  /// Snapshot of the serving counters.
  ServingStats stats() const;

 private:
  struct Connection {
    Socket sock;
    std::thread thread;
  };

  struct PendingQuery {
    AggQuery query;
    std::promise<QueryResult> result;
  };

  struct TokenBucket {
    double tokens = 0;
    std::chrono::steady_clock::time_point last{};
    bool initialized = false;
  };

  void AcceptLoop();
  void ServeConnection(Socket* sock);
  void DispatchLoop();
  void PumpLoop();

  /// Handle one decoded request; returns the reply payload and sets
  /// *reply_type. Throws ApiException for typed failures (the caller turns
  /// it into an error frame).
  std::vector<uint8_t> HandleRequest(const FrameHeader& header,
                                     const std::vector<uint8_t>& payload,
                                     uint8_t* reply_type);

  /// Token-bucket admission for `cost` queries from `tenant`. Returns
  /// false (with *err filled) when the bucket is dry.
  bool AdmitTenant(uint64_t tenant_id, double cost, ApiError* err);

  /// Answer one query — through the batching dispatcher when a window is
  /// configured, directly otherwise.
  QueryResult RunQuery(const AggQuery& q);

  AqpEngine* const engine_;
  Broker* const broker_;  ///< nullptr = synchronous updates
  const ServerOptions opts_;

  std::unique_ptr<ListenSocket> listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Set only after every connection thread is joined: the dispatcher must
  /// outlive connections so an in-flight RunQuery can never enqueue a
  /// query that nobody answers.
  std::atomic<bool> dispatch_stop_{false};
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread pump_thread_;

  Mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_ GUARDED_BY(conn_mu_);
  size_t active_connections_ GUARDED_BY(conn_mu_) = 0;

  Mutex batch_mu_;
  CondVar batch_cv_;
  std::vector<PendingQuery> pending_ GUARDED_BY(batch_mu_);

  Mutex tenant_mu_;
  std::map<uint64_t, TokenBucket> buckets_ GUARDED_BY(tenant_mu_);

  std::atomic<size_t> inflight_{0};

  mutable Mutex stats_mu_;
  ServingStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace net
}  // namespace janus

#endif  // JANUS_NET_SERVER_H_
