#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <utility>

#include "api/driver.h"
#include "api/error.h"
#include "persist/serde.h"

namespace janus {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMicros(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::microseconds>(now - since)
      .count();
}

/// RAII gauge for the inflight-query cap.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<size_t>* gauge) : gauge_(gauge) {
    gauge_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() { gauge_->fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<size_t>* const gauge_;
};

std::vector<uint8_t> ErrorPayload(const ApiError& err) {
  persist::Writer w;
  WriteApiError(err, &w);
  return w.buffer();
}

}  // namespace

// --- ServerOptions ----------------------------------------------------------

const std::vector<EngineConfig::KeyInfo>& ServerOptions::KnownKeys() {
  static const std::vector<EngineConfig::KeyInfo>* kKeys =
      new std::vector<EngineConfig::KeyInfo>{
          {"listen_port",
           "serving tier TCP port (loopback); 0 binds an ephemeral port"},
          {"batch_window_us",
           "query coalescing window in microseconds; 0 disables batching"},
          {"batch_max", "max queries coalesced into one engine batch"},
          {"tenant_rate",
           "per-tenant admission rate in queries/sec; 0 = unlimited"},
          {"tenant_burst",
           "per-tenant token-bucket capacity; 0 = max(1, tenant_rate)"},
          {"max_inflight",
           "cap on admitted-but-unanswered queries; 0 = uncapped"},
          {"max_clients",
           "cap on simultaneous connections; 0 = unlimited"},
      };
  return *kKeys;
}

std::vector<std::string> ServerOptions::KeyNames() {
  std::vector<std::string> names;
  names.reserve(KnownKeys().size());
  for (const auto& info : KnownKeys()) names.emplace_back(info.key);
  return names;
}

ServerOptions ServerOptions::FromArgs(const ArgMap& args) {
  ServerOptions o;
  const uint64_t port = args.GetUint64("listen_port", o.listen_port);
  if (port > 65535) {
    throw ApiException(ApiErrorCode::kInvalidArgument,
                       "listen_port=" + std::to_string(port) +
                           " does not fit a TCP port");
  }
  o.listen_port = static_cast<uint16_t>(port);
  o.batch_window_us = static_cast<int64_t>(
      args.GetUint64("batch_window_us",
                     static_cast<uint64_t>(o.batch_window_us)));
  o.batch_max = args.GetSize("batch_max", o.batch_max);
  if (o.batch_max == 0) {
    throw ApiException(ApiErrorCode::kInvalidArgument,
                       "batch_max must be at least 1");
  }
  o.tenant_rate = args.GetDouble("tenant_rate", o.tenant_rate);
  o.tenant_burst = args.GetDouble("tenant_burst", o.tenant_burst);
  if (o.tenant_rate < 0 || o.tenant_burst < 0) {
    throw ApiException(ApiErrorCode::kInvalidArgument,
                       "tenant_rate and tenant_burst must be non-negative");
  }
  o.max_inflight = args.GetSize("max_inflight", o.max_inflight);
  o.max_clients = args.GetSize("max_clients", o.max_clients);
  return o;
}

// --- AqpServer --------------------------------------------------------------

AqpServer::AqpServer(AqpEngine* engine, ServerOptions opts, Broker* broker)
    : engine_(engine), broker_(broker), opts_(opts) {}

AqpServer::~AqpServer() { Stop(); }

void AqpServer::Start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  dispatch_stop_.store(false);
  listener_ = std::make_unique<ListenSocket>(opts_.listen_port);
  port_ = listener_->port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (opts_.batch_window_us > 0) {
    dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  }
  if (broker_ != nullptr) {
    pump_thread_ = std::thread([this] { PumpLoop(); });
  }
}

void AqpServer::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();
  // Unblock every connection thread parked in recv, then join. The
  // dispatcher keeps running through this phase: a connection thread
  // mid-request may still enqueue a query, and a pending query must
  // always be answered.
  {
    MutexLock lock(&conn_mu_);
    for (auto& conn : connections_) conn->sock.Shutdown();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      MutexLock lock(&conn_mu_);
      if (connections_.empty()) break;
      conn = std::move(connections_.back());
      connections_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  // No producers remain; now the dispatcher may flush and exit.
  dispatch_stop_.store(true);
  {
    MutexLock lock(&batch_mu_);
    batch_cv_.NotifyAll();
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (pump_thread_.joinable()) pump_thread_.join();
  running_.store(false);
}

ServingStats AqpServer::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

void AqpServer::AcceptLoop() {
  while (!stopping_.load()) {
    Socket sock;
    try {
      sock = listener_->AcceptWithTimeout(/*timeout_ms=*/50);
    } catch (const ApiException&) {
      if (stopping_.load()) break;
      continue;  // transient accept failure; keep serving
    }
    if (!sock.valid()) continue;  // poll timeout: re-check the stop flag

    bool over_capacity = false;
    {
      MutexLock lock(&conn_mu_);
      over_capacity =
          opts_.max_clients > 0 && active_connections_ >= opts_.max_clients;
      if (!over_capacity) ++active_connections_;
    }
    if (over_capacity) {
      // Typed rejection on the new connection, then close it: the client
      // sees kRejectedOverloaded, not a silent RST.
      {
        MutexLock lock(&stats_mu_);
        ++stats_.rejected_overloaded;
      }
      try {
        SendFrame(&sock, kErrorReply, 0, 0,
                  ErrorPayload({ApiErrorCode::kRejectedOverloaded,
                                "server connection limit of " +
                                    std::to_string(opts_.max_clients) +
                                    " reached"}));
      } catch (const ApiException&) {
        // Peer vanished before the rejection landed; nothing to clean up.
      }
      continue;
    }

    {
      MutexLock lock(&stats_mu_);
      ++stats_.connections;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      ServeConnection(&raw->sock);
      // Close under conn_mu_ so the peer sees EOF as soon as this
      // connection is done (not at server Stop()) and so Stop()'s
      // shutdown sweep never races the close.
      MutexLock lock(&conn_mu_);
      raw->sock.Close();
      --active_connections_;
    });
    MutexLock lock(&conn_mu_);
    connections_.push_back(std::move(conn));
  }
}

void AqpServer::ServeConnection(Socket* sock) {
  while (!stopping_.load()) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    try {
      if (!RecvFrame(sock, &header, &payload)) break;  // clean EOF
    } catch (const ApiException& e) {
      if (e.code() != ApiErrorCode::kMalformedFrame) break;  // transport
      // A corrupt header or checksum: the byte stream cannot be resynced,
      // so reply with a typed error and close the connection. request_id 0
      // marks "no request could be identified".
      {
        MutexLock lock(&stats_mu_);
        ++stats_.malformed_frames;
      }
      try {
        SendFrame(sock, kErrorReply, 0, 0, ErrorPayload(e.error()));
      } catch (const ApiException&) {
      }
      break;
    }

    {
      MutexLock lock(&stats_mu_);
      ++stats_.frames;
    }

    uint8_t reply_type = kErrorReply;
    std::vector<uint8_t> reply;
    try {
      reply = HandleRequest(header, payload, &reply_type);
    } catch (const std::exception& e) {
      const ApiError err = ApiErrorFromException(e);
      if (err.code == ApiErrorCode::kMalformedFrame ||
          err.code == ApiErrorCode::kPersistence) {
        // kPersistence here means the payload body failed the
        // bounds-checked Reader — a malformed body, not a storage error.
        MutexLock lock(&stats_mu_);
        ++stats_.malformed_frames;
      }
      reply_type = kErrorReply;
      reply = ErrorPayload(
          err.code == ApiErrorCode::kPersistence
              ? ApiError{ApiErrorCode::kMalformedFrame, err.detail}
              : err);
    }

    try {
      SendFrame(sock, reply_type, header.tenant_id, header.request_id, reply);
    } catch (const ApiException&) {
      break;  // peer is gone; the engine-side effects already happened
    }
  }
}

std::vector<uint8_t> AqpServer::HandleRequest(
    const FrameHeader& header, const std::vector<uint8_t>& payload,
    uint8_t* reply_type) {
  persist::Reader r(payload.data(), payload.size());
  persist::Writer w;
  *reply_type = static_cast<uint8_t>(header.type | kReplyBit);

  switch (static_cast<MsgType>(header.type)) {
    case MsgType::kPing:
      return w.buffer();

    case MsgType::kQuery: {
      const AggQuery q = ReadAggQuery(&r);
      ApiError err;
      if (!AdmitTenant(header.tenant_id, 1.0, &err)) {
        throw ApiException(err.code, err.detail);
      }
      if (opts_.max_inflight > 0 &&
          inflight_.load(std::memory_order_relaxed) >= opts_.max_inflight) {
        MutexLock lock(&stats_mu_);
        ++stats_.rejected_overloaded;
        throw ApiException(ApiErrorCode::kRejectedOverloaded,
                           "server is at max_inflight=" +
                               std::to_string(opts_.max_inflight) +
                               " unanswered queries");
      }
      InflightGuard guard(&inflight_);
      const QueryResult res = RunQuery(q);
      {
        MutexLock lock(&stats_mu_);
        ++stats_.queries;
      }
      WriteQueryResult(res, &w);
      return w.buffer();
    }

    case MsgType::kQueryBatch: {
      const std::vector<AggQuery> qs = ReadQueryVec(&r);
      ApiError err;
      if (!AdmitTenant(header.tenant_id, static_cast<double>(qs.size()),
                       &err)) {
        throw ApiException(err.code, err.detail);
      }
      if (opts_.max_inflight > 0 &&
          inflight_.load(std::memory_order_relaxed) >= opts_.max_inflight) {
        MutexLock lock(&stats_mu_);
        ++stats_.rejected_overloaded;
        throw ApiException(ApiErrorCode::kRejectedOverloaded,
                           "server is at max_inflight=" +
                               std::to_string(opts_.max_inflight) +
                               " unanswered queries");
      }
      InflightGuard guard(&inflight_);
      // A client-assembled batch is already coalesced: one engine call,
      // one read-room hold, no reason to route it through the window.
      const std::vector<QueryResult> results = engine_->QueryBatch(qs);
      {
        MutexLock lock(&stats_mu_);
        ++stats_.batches;
        stats_.queries += qs.size();
      }
      WriteResultVec(results, &w);
      return w.buffer();
    }

    case MsgType::kInsert: {
      const std::vector<Tuple> rows = ReadTupleVec(&r);
      if (broker_ != nullptr) {
        // Streamed-update mode: acknowledge enqueue; the pump thread
        // applies the rows to the engine in arrival order.
        broker_->insert_topic()->AppendBatch(rows);
      } else {
        engine_->InsertBatch(rows);
      }
      {
        MutexLock lock(&stats_mu_);
        stats_.inserts += rows.size();
      }
      w.U64(rows.size());
      return w.buffer();
    }

    case MsgType::kDelete: {
      const std::vector<uint64_t> ids = r.U64Vec();
      uint64_t applied = 0;
      if (broker_ != nullptr) {
        std::vector<Tuple> markers(ids.size());
        for (size_t i = 0; i < ids.size(); ++i) markers[i].id = ids[i];
        broker_->delete_topic()->AppendBatch(markers);
        applied = ids.size();  // enqueued; liveness resolves at apply time
      } else {
        for (uint64_t id : ids) {
          if (engine_->Delete(id)) ++applied;
        }
      }
      {
        MutexLock lock(&stats_mu_);
        stats_.deletes += ids.size();
      }
      w.U64(applied);
      return w.buffer();
    }

    case MsgType::kStats: {
      StatsReply reply;
      reply.engine = engine_->Stats();
      reply.serving = stats();
      WriteStatsReply(reply, &w);
      return w.buffer();
    }

    case MsgType::kConfigEcho: {
      ConfigKeyEcho echo;
      for (const auto& info : EngineConfig::KnownKeys()) {
        echo.emplace_back(info.key, info.summary);
      }
      for (const auto& info : ServerOptions::KnownKeys()) {
        echo.emplace_back(info.key, info.summary);
      }
      WriteConfigEcho(echo, &w);
      return w.buffer();
    }
  }
  throw ApiException(ApiErrorCode::kMalformedFrame,
                     "unknown message type " + std::to_string(header.type));
}

bool AqpServer::AdmitTenant(uint64_t tenant_id, double cost, ApiError* err) {
  if (opts_.tenant_rate <= 0) return true;
  const double burst = opts_.tenant_burst > 0
                           ? opts_.tenant_burst
                           : std::max(1.0, opts_.tenant_rate);
  const auto now = Clock::now();
  MutexLock lock(&tenant_mu_);
  TokenBucket& bucket = buckets_[tenant_id];
  if (!bucket.initialized) {
    bucket.tokens = burst;
    bucket.last = now;
    bucket.initialized = true;
  } else {
    const double dt =
        static_cast<double>(ElapsedMicros(bucket.last, now)) / 1e6;
    bucket.tokens = std::min(burst, bucket.tokens + dt * opts_.tenant_rate);
    bucket.last = now;
  }
  if (bucket.tokens < cost) {
    {
      MutexLock stats_lock(&stats_mu_);
      ++stats_.rejected_rate_limit;
    }
    *err = {ApiErrorCode::kRejectedRateLimit,
            "tenant " + std::to_string(tenant_id) + " exceeded " +
                std::to_string(opts_.tenant_rate) +
                " queries/sec (bucket has " + std::to_string(bucket.tokens) +
                " of " + std::to_string(cost) + " tokens)"};
    return false;
  }
  bucket.tokens -= cost;
  return true;
}

QueryResult AqpServer::RunQuery(const AggQuery& q) {
  if (opts_.batch_window_us <= 0) return engine_->Query(q);
  std::future<QueryResult> fut;
  {
    MutexLock lock(&batch_mu_);
    pending_.push_back(PendingQuery{q, {}});
    fut = pending_.back().result.get_future();
    batch_cv_.NotifyAll();
  }
  return fut.get();
}

void AqpServer::DispatchLoop() {
  for (;;) {
    std::vector<PendingQuery> batch;
    {
      MutexLock lock(&batch_mu_);
      while (pending_.empty() && !dispatch_stop_.load()) {
        batch_cv_.Wait(&batch_mu_);
      }
      if (pending_.empty() && dispatch_stop_.load()) break;
      // The window opens at the first pending query: keep collecting until
      // it elapses, the batch fills, or the server stops (flush, don't
      // drop — a pending query always gets its answer).
      const auto opened = Clock::now();
      while (pending_.size() < opts_.batch_max && !stopping_.load()) {
        const int64_t elapsed = ElapsedMicros(opened, Clock::now());
        const int64_t left = opts_.batch_window_us - elapsed;
        if (left <= 0) break;
        batch_cv_.WaitFor(&batch_mu_, left);
      }
      // Queries that arrived while the previous batch ran can outnumber
      // batch_max; the surplus stays pending for the next batch.
      const size_t take =
          std::min(pending_.size(), std::max<size_t>(1, opts_.batch_max));
      const auto cut = pending_.begin() + static_cast<std::ptrdiff_t>(take);
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(cut));
      pending_.erase(pending_.begin(), cut);
    }
    // One engine call per batch of at most batch_max queries: a single
    // read-room hold (and, for sharded engines, a single per-shard quiesce)
    // amortized over the batch.
    std::vector<AggQuery> queries;
    queries.reserve(batch.size());
    for (const PendingQuery& p : batch) queries.push_back(p.query);
    const std::vector<QueryResult> results = engine_->QueryBatch(queries);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].result.set_value(results[i]);
    }
    {
      MutexLock lock(&stats_mu_);
      ++stats_.batches;
      stats_.batched_queries += batch.size();
    }
  }
}

void AqpServer::PumpLoop() {
  EngineDriver driver(engine_, broker_);
  while (!stopping_.load()) {
    const size_t consumed = driver.PumpOnce();
    // Drain-only: the serving tier answers queries over the wire, so any
    // results from the (unused) query topic are discarded rather than
    // accumulating forever.
    (void)driver.TakeResults();
    if (consumed == 0) {
      // Park until new inserts arrive or a short timeout passes (the
      // timeout also picks up delete-topic appends and the stop flag).
      broker_->insert_topic()->WaitForRecords(driver.insert_offset(),
                                              /*timeout_us=*/20000);
    }
  }
  // Apply everything acknowledged as "accepted" before shutting down.
  driver.Drain();
  (void)driver.TakeResults();
}

}  // namespace net
}  // namespace janus
