// End-to-end contract of the networked serving tier (net/server.h).
//
// What's under test, in order:
//  - Round-trip identity: for EVERY registered engine, a query answered over
//    the wire is bit-identical to the same query answered in-process — the
//    serving tier adds transport, not approximation.
//  - Batching equivalence: results with a coalescing window are identical to
//    window=0, under concurrent clients; and no engine batch exceeds
//    batch_max, also when queries pile up behind a running batch.
//  - Hostile bytes: corrupt headers, bad checksums, truncated frames and
//    unknown message types all produce *typed* error replies (or a clean
//    close), never a crash — and the server keeps serving other connections.
//  - Admission control: a greedy tenant exhausts its own token bucket and
//    collects typed kRejectedRateLimit results; a compliant tenant paced
//    under its rate is never starved. Overloaded connections beyond
//    max_clients get a typed kRejectedOverloaded reply, not a silent RST.
//  - Updates through the server mutate the shared engine in both synchronous
//    and broker-streamed modes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/engine.h"
#include "api/error.h"
#include "api/registry.h"
#include "data/generators.h"
#include "data/workload.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "stream/broker.h"
#include "tests/test_seed.h"

namespace janus {
namespace net {
namespace {

constexpr size_t kRows = 3000;

EngineConfig SmallConfig(const std::string& name) {
  EngineConfig cfg;
  cfg.engine = name;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 16;
  cfg.num_shards = 2;
  cfg.scan_threads = 2;
  cfg.enable_triggers = false;
  cfg.seed = TestSeed();
  return cfg;
}

std::vector<AggQuery> SmallWorkload(const GeneratedDataset& ds, size_t n) {
  WorkloadGenerator gen(ds.rows, {0}, 1);
  WorkloadOptions opts;
  opts.num_queries = n;
  opts.seed = TestSeed() + 3;
  return gen.Generate(ds.rows, opts);
}

void ExpectBitIdentical(const QueryResult& a, const QueryResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.ok, b.ok) << context;
  EXPECT_EQ(a.estimate, b.estimate) << context;
  EXPECT_EQ(a.ci_half_width, b.ci_half_width) << context;
  EXPECT_EQ(a.variance_catchup, b.variance_catchup) << context;
  EXPECT_EQ(a.variance_sample, b.variance_sample) << context;
  EXPECT_EQ(a.covered_nodes, b.covered_nodes) << context;
  EXPECT_EQ(a.partial_leaves, b.partial_leaves) << context;
  EXPECT_EQ(a.exact, b.exact) << context;
  EXPECT_EQ(a.error_code, b.error_code) << context;
}

// ---------------------------------------------------------------------------
// Round-trip identity over the whole engine registry.
// ---------------------------------------------------------------------------

TEST(ServingTest, RoundTripIdentityForEveryRegisteredEngine) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed());
  const std::vector<AggQuery> workload = SmallWorkload(ds, 12);
  for (const std::string& name : EngineRegistry::Global().Names()) {
    auto engine = EngineRegistry::Create(name, SmallConfig(name));
    ASSERT_NE(engine, nullptr) << name;
    engine->LoadInitial(ds.rows);
    engine->Initialize();

    AqpServer server(engine.get(), ServerOptions{});
    server.Start();
    AqpClient client("127.0.0.1", server.port());
    client.Ping();
    for (size_t i = 0; i < workload.size(); ++i) {
      const QueryResult direct = engine->Query(workload[i]);
      const QueryResult wire = client.Query(workload[i]);
      ExpectBitIdentical(wire, direct,
                         name + " query " + std::to_string(i));
    }
    // Batch frames hit the same engine entry point: identical too.
    const std::vector<QueryResult> batched = client.QueryBatch(workload);
    ASSERT_EQ(batched.size(), workload.size()) << name;
    for (size_t i = 0; i < workload.size(); ++i) {
      ExpectBitIdentical(batched[i], engine->Query(workload[i]),
                         name + " batched query " + std::to_string(i));
    }
    server.Stop();
  }
}

TEST(ServingTest, BatchingWindowPreservesResultsUnderConcurrentClients) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 7);
  const std::vector<AggQuery> workload = SmallWorkload(ds, 24);
  auto engine =
      EngineRegistry::Create("sharded:janus", SmallConfig("sharded:janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  ServerOptions opts;
  opts.batch_window_us = 2000;
  opts.batch_max = 4;
  AqpServer server(engine.get(), opts);
  server.Start();

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AqpClient client("127.0.0.1", server.port(),
                       static_cast<uint64_t>(c));
      for (const AggQuery& q : workload) {
        const QueryResult wire = client.Query(q);
        const QueryResult direct = engine->Query(q);
        if (std::memcmp(&wire.estimate, &direct.estimate, sizeof(double)) !=
                0 ||
            wire.ci_half_width != direct.ci_half_width || !wire.ok) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The coalescing path actually ran (some queries rode a shared batch
  // call; with 4 closed-loop clients at least the singleton batches count).
  const ServingStats stats = server.stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.batched_queries, 0u);
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kClients) * workload.size());
  server.Stop();
}

/// Engine whose every batch takes 2 ms, so queries pile up behind a running
/// batch; it records the largest batch it was handed.
class SlowBatchEngine : public AqpEngine {
 public:
  const char* name() const override { return "slow_batch"; }
  size_t largest_batch() const { return largest_.load(); }

 protected:
  void LoadInitialImpl(const std::vector<Tuple>&) override {}
  void InitializeImpl() override {}
  void InsertImpl(const Tuple&) override {}
  bool DeleteImpl(uint64_t) override { return false; }
  QueryResult QueryImpl(const AggQuery&) const override {
    return QueryResult{};
  }
  std::vector<QueryResult> QueryBatchImpl(const std::vector<AggQuery>& queries,
                                          ThreadPool*) const override {
    // Only the dispatcher thread calls this.
    largest_.store(std::max(largest_.load(), queries.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return std::vector<QueryResult>(queries.size());
  }
  EngineStats StatsImpl() const override { return EngineStats{}; }

 private:
  mutable std::atomic<size_t> largest_{0};
};

TEST(ServingTest, BatchesNeverExceedBatchMax) {
  SlowBatchEngine engine;
  ServerOptions opts;
  opts.batch_window_us = 500;
  opts.batch_max = 2;
  AqpServer server(&engine, opts);
  server.Start();

  AggQuery q;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {1.0});
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AqpClient client("127.0.0.1", server.port(),
                       static_cast<uint64_t>(c));
      for (int i = 0; i < kQueriesPerClient; ++i) {
        if (!client.Query(q).ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  // Eight closed-loop clients queue up to seven queries behind each 2 ms
  // batch; only batch_max of them may ride the next one.
  EXPECT_GE(engine.largest_batch(), 1u);
  EXPECT_LE(engine.largest_batch(), opts.batch_max);
  EXPECT_EQ(server.stats().batched_queries,
            static_cast<uint64_t>(kClients) * kQueriesPerClient);
}

// ---------------------------------------------------------------------------
// Hostile bytes: typed errors, no crashes, the server keeps serving.
// ---------------------------------------------------------------------------

class HostileFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = GenerateUniform(kRows, 1, TestSeed() + 11);
    engine_ = EngineRegistry::Create("janus", SmallConfig("janus"));
    engine_->LoadInitial(ds_.rows);
    engine_->Initialize();
    server_ = std::make_unique<AqpServer>(engine_.get(), ServerOptions{});
    server_->Start();
  }

  void TearDown() override { server_->Stop(); }

  /// The server must still answer a fresh well-formed client.
  void ExpectServerHealthy() {
    AqpClient client("127.0.0.1", server_->port());
    client.Ping();
    const QueryResult res = client.Query(SmallWorkload(ds_, 1)[0]);
    EXPECT_TRUE(res.ok);
  }

  GeneratedDataset ds_;
  std::unique_ptr<AqpEngine> engine_;
  std::unique_ptr<AqpServer> server_;
};

TEST_F(HostileFrameTest, GarbageHeaderGetsTypedErrorThenClose) {
  Socket raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  std::vector<uint8_t> junk(kFrameHeaderBytes, 0xAB);
  raw.SendAll(junk.data(), junk.size());

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type, kErrorReply);
  persist::Reader r(payload.data(), payload.size());
  const ApiError err = ReadApiError(&r);
  EXPECT_EQ(err.code, ApiErrorCode::kMalformedFrame);
  // The byte stream cannot be resynced: the server closes after replying.
  EXPECT_FALSE(RecvFrame(&raw, &header, &payload));
  ExpectServerHealthy();
  EXPECT_GE(server_->stats().malformed_frames, 1u);
}

TEST_F(HostileFrameTest, CorruptChecksumGetsTypedErrorThenClose) {
  Socket raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  persist::Writer w;
  WriteAggQuery(SmallWorkload(ds_, 1)[0], &w);
  std::vector<uint8_t> frame = EncodeFrame(
      static_cast<uint8_t>(MsgType::kQuery), 0, 1, w.buffer());
  frame.back() ^= 0x40;  // flip a payload bit; the header checksum catches it
  raw.SendAll(frame.data(), frame.size());

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type, kErrorReply);
  persist::Reader r(payload.data(), payload.size());
  EXPECT_EQ(ReadApiError(&r).code, ApiErrorCode::kMalformedFrame);
  ExpectServerHealthy();
}

TEST_F(HostileFrameTest, TruncatedFrameThenCloseDoesNotWedgeTheServer) {
  {
    Socket raw = Socket::ConnectTcp("127.0.0.1", server_->port());
    const std::vector<uint8_t> partial(10, 0x5A);
    raw.SendAll(partial.data(), partial.size());
    // Destructor closes mid-header; the server sees EOF mid-read.
  }
  ExpectServerHealthy();
}

TEST_F(HostileFrameTest, UnknownMessageTypeIsTypedAndConnectionSurvives) {
  Socket raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  // Valid framing, nonsense type: the request is identifiable, so the
  // server replies typed and keeps the connection open.
  SendFrame(&raw, /*type=*/0x42, /*tenant_id=*/0, /*request_id=*/9, {});
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type, kErrorReply);
  EXPECT_EQ(header.request_id, 9u);
  persist::Reader r(payload.data(), payload.size());
  EXPECT_EQ(ReadApiError(&r).code, ApiErrorCode::kMalformedFrame);

  // Same connection, now a well-formed ping: it must still be served.
  SendFrame(&raw, static_cast<uint8_t>(MsgType::kPing), 0, 10, {});
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type,
            static_cast<uint8_t>(MsgType::kPing) | kReplyBit);
  EXPECT_EQ(header.request_id, 10u);
}

TEST_F(HostileFrameTest, GarbageQueryBodyIsTypedAndConnectionSurvives) {
  Socket raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  // Correct frame envelope (checksum matches) around a body that is not a
  // valid AggQuery: the bounds-checked Reader rejects it in the handler.
  const std::vector<uint8_t> body = {0xDE, 0xAD, 0xBE, 0xEF};
  SendFrame(&raw, static_cast<uint8_t>(MsgType::kQuery), 0, 11, body);
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type, kErrorReply);
  persist::Reader r(payload.data(), payload.size());
  EXPECT_EQ(ReadApiError(&r).code, ApiErrorCode::kMalformedFrame);

  SendFrame(&raw, static_cast<uint8_t>(MsgType::kPing), 0, 12, {});
  ASSERT_TRUE(RecvFrame(&raw, &header, &payload));
  EXPECT_EQ(header.type,
            static_cast<uint8_t>(MsgType::kPing) | kReplyBit);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(ServingTest, GreedyTenantCannotStarveCompliantOne) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 13);
  const AggQuery q = SmallWorkload(ds, 1)[0];
  auto engine = EngineRegistry::Create("janus", SmallConfig("janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  ServerOptions opts;
  opts.tenant_rate = 1000;  // queries/sec
  opts.tenant_burst = 10;
  AqpServer server(engine.get(), opts);
  server.Start();

  std::atomic<uint64_t> compliant_ok{0}, compliant_rejected{0};
  std::atomic<uint64_t> greedy_ok{0}, greedy_rejected{0};

  // The compliant tenant paces itself at ~200 queries/sec — a fifth of its
  // admitted rate — while two greedy tenants hammer without pacing. The
  // property: per-tenant buckets mean the greedy load never causes a single
  // compliant rejection.
  std::thread compliant([&] {
    AqpClient client("127.0.0.1", server.port(), /*tenant_id=*/1);
    for (int i = 0; i < 20; ++i) {
      const QueryResult res = client.Query(q);
      if (res.ok) {
        compliant_ok.fetch_add(1);
      } else {
        compliant_rejected.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::thread> greedy;
  for (uint64_t tenant = 2; tenant <= 3; ++tenant) {
    greedy.emplace_back([&, tenant] {
      AqpClient client("127.0.0.1", server.port(), tenant);
      for (int i = 0; i < 400; ++i) {
        const QueryResult res = client.Query(q);
        if (res.ok) {
          greedy_ok.fetch_add(1);
        } else {
          EXPECT_EQ(res.error_code,
                    static_cast<uint32_t>(ApiErrorCode::kRejectedRateLimit));
          greedy_rejected.fetch_add(1);
        }
      }
    });
  }
  compliant.join();
  for (std::thread& t : greedy) t.join();

  EXPECT_EQ(compliant_rejected.load(), 0u)
      << "a compliant tenant was starved by greedy load";
  EXPECT_EQ(compliant_ok.load(), 20u);
  EXPECT_GT(greedy_rejected.load(), 0u)
      << "greedy tenants were never throttled — admission control inert";
  EXPECT_GT(greedy_ok.load(), 0u)
      << "rejections must be rate-shaping, not a blanket ban";
  EXPECT_EQ(server.stats().rejected_rate_limit, greedy_rejected.load());
  server.Stop();
}

TEST(ServingTest, RateLimitedBatchIsRejectedAtomically) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 17);
  const std::vector<AggQuery> workload = SmallWorkload(ds, 8);
  auto engine = EngineRegistry::Create("janus", SmallConfig("janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  ServerOptions opts;
  opts.tenant_rate = 0.001;  // effectively: the initial burst is all you get
  opts.tenant_burst = 4;
  AqpServer server(engine.get(), opts);
  server.Start();
  AqpClient client("127.0.0.1", server.port(), /*tenant_id=*/5);

  // A batch of 8 costs 8 tokens against a burst of 4: every query in it is
  // rejected as a unit (no partial admission), each with the typed code.
  const std::vector<QueryResult> results = client.QueryBatch(workload);
  ASSERT_EQ(results.size(), workload.size());
  for (const QueryResult& res : results) {
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error_code,
              static_cast<uint32_t>(ApiErrorCode::kRejectedRateLimit));
  }
  // A batch within the burst is admitted whole.
  const std::vector<AggQuery> small(workload.begin(), workload.begin() + 3);
  for (const QueryResult& res : client.QueryBatch(small)) {
    EXPECT_TRUE(res.ok);
  }
  server.Stop();
}

TEST(ServingTest, ConnectionsBeyondMaxClientsGetTypedOverloadReply) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 19);
  auto engine = EngineRegistry::Create("janus", SmallConfig("janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  ServerOptions opts;
  opts.max_clients = 1;
  AqpServer server(engine.get(), opts);
  server.Start();

  AqpClient first("127.0.0.1", server.port());
  first.Ping();  // the slot is held once the server accepted the connection

  // The second connection is rejected with a typed error frame — reading it
  // does not require sending anything first.
  Socket second = Socket::ConnectTcp("127.0.0.1", server.port());
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(&second, &header, &payload));
  EXPECT_EQ(header.type, kErrorReply);
  persist::Reader r(payload.data(), payload.size());
  EXPECT_EQ(ReadApiError(&r).code, ApiErrorCode::kRejectedOverloaded);
  EXPECT_GE(server.stats().rejected_overloaded, 1u);

  first.Ping();  // the admitted client is unaffected
  server.Stop();
}

// ---------------------------------------------------------------------------
// Updates through the server.
// ---------------------------------------------------------------------------

std::vector<Tuple> FreshRows(size_t n, uint64_t first_id) {
  std::vector<Tuple> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = first_id + i;
    rows[i][0] = 0.5;
    rows[i][1] = 10.0;
  }
  return rows;
}

TEST(ServingTest, SynchronousInsertDeleteMutateTheSharedEngine) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 23);
  auto engine = EngineRegistry::Create("janus", SmallConfig("janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  AqpServer server(engine.get(), ServerOptions{});
  server.Start();
  AqpClient client("127.0.0.1", server.port());

  EXPECT_EQ(client.Insert(FreshRows(100, 900000)), 100u);
  EXPECT_EQ(client.Stats().engine.rows, kRows + 100);

  // 50 live ids plus 50 misses: the reply counts only applied deletes.
  std::vector<uint64_t> ids;
  for (uint64_t id = 900000; id < 900050; ++id) ids.push_back(id);
  for (uint64_t id = 77000000; id < 77000050; ++id) ids.push_back(id);
  EXPECT_EQ(client.Delete(ids), 50u);
  EXPECT_EQ(client.Stats().engine.rows, kRows + 50);
  server.Stop();
}

TEST(ServingTest, StreamedInsertsApplyThroughTheBrokerPump) {
  const GeneratedDataset ds = GenerateUniform(kRows, 1, TestSeed() + 29);
  auto engine = EngineRegistry::Create("janus", SmallConfig("janus"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  Broker broker;
  AqpServer server(engine.get(), ServerOptions{}, &broker);
  server.Start();
  {
    AqpClient client("127.0.0.1", server.port());
    // "Accepted" means enqueued; the pump applies in arrival order.
    EXPECT_EQ(client.Insert(FreshRows(200, 900000)), 200u);
    EXPECT_EQ(client.Delete({900000, 900001}), 2u);

    // The pump applies asynchronously; poll the engine stats over the wire
    // until the tail is absorbed (bounded by the deadline below).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.Stats().engine.rows != kRows + 198) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "pump never applied the streamed updates; rows="
          << client.Stats().engine.rows;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Stop() drains the topics: everything acknowledged is applied.
  server.Stop();
  EXPECT_EQ(engine->Stats().rows, kRows + 198);
}

// ---------------------------------------------------------------------------
// Config echo & option validation.
// ---------------------------------------------------------------------------

TEST(ServingTest, ConfigEchoListsEngineAndServingKeys) {
  const GeneratedDataset ds = GenerateUniform(256, 1, TestSeed() + 31);
  auto engine = EngineRegistry::Create("rs", SmallConfig("rs"));
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  AqpServer server(engine.get(), ServerOptions{});
  server.Start();
  AqpClient client("127.0.0.1", server.port());

  const ConfigKeyEcho echo = client.ConfigEcho();
  auto has = [&echo](const std::string& key) {
    for (const auto& [k, summary] : echo) {
      if (k == key) return !summary.empty();
    }
    return false;
  };
  for (const auto& info : EngineConfig::KnownKeys()) {
    EXPECT_TRUE(has(info.key)) << "engine key missing: " << info.key;
  }
  for (const auto& info : ServerOptions::KnownKeys()) {
    EXPECT_TRUE(has(info.key)) << "serving key missing: " << info.key;
  }
  server.Stop();
}

TEST(ServingTest, ServerOptionsFromArgsRejectsInvalidValues) {
  EXPECT_EQ(ServerOptions::FromArgs(ArgMap({"listen_port=0"})).listen_port,
            0);
  const ServerOptions parsed = ServerOptions::FromArgs(
      ArgMap({"batch_window_us=250", "batch_max=8", "tenant_rate=100",
              "tenant_burst=25", "max_inflight=64", "max_clients=32"}));
  EXPECT_EQ(parsed.batch_window_us, 250);
  EXPECT_EQ(parsed.batch_max, 8u);
  EXPECT_EQ(parsed.tenant_rate, 100.0);
  EXPECT_EQ(parsed.tenant_burst, 25.0);
  EXPECT_EQ(parsed.max_inflight, 64u);
  EXPECT_EQ(parsed.max_clients, 32u);

  auto code_of = [](const std::vector<std::string>& tokens) {
    try {
      (void)ServerOptions::FromArgs(ArgMap(tokens));
      return ApiErrorCode::kOk;
    } catch (const ApiException& e) {
      return e.code();
    }
  };
  EXPECT_EQ(code_of({"listen_port=70000"}), ApiErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of({"batch_max=0"}), ApiErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of({"tenant_rate=-3"}), ApiErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace net
}  // namespace janus
