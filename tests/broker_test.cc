#include "stream/broker.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/registry.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace janus {
namespace {

Tuple MakeTuple(uint64_t id) {
  Tuple t;
  t.id = id;
  t[0] = static_cast<double>(id);
  return t;
}

TEST(TopicTest, AppendAndPollInOrder) {
  Topic topic("t", /*poll_overhead_ns=*/0);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(topic.Append(MakeTuple(i)), i);
  }
  std::vector<Tuple> out;
  EXPECT_EQ(topic.Poll(0, 10, &out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].id, i);
}

TEST(TopicTest, PollFromOffset) {
  Topic topic("t", 0);
  for (uint64_t i = 0; i < 50; ++i) topic.Append(MakeTuple(i));
  std::vector<Tuple> out;
  EXPECT_EQ(topic.Poll(45, 10, &out), 5u);  // truncated at end
  EXPECT_EQ(out.front().id, 45u);
  out.clear();
  EXPECT_EQ(topic.Poll(50, 10, &out), 0u);  // at end offset
  EXPECT_EQ(topic.Poll(1000, 10, &out), 0u);
}

TEST(TopicTest, EndOffsetTracksAppends) {
  Topic topic("t", 0);
  EXPECT_EQ(topic.EndOffset(), 0u);
  topic.Append(MakeTuple(0));
  EXPECT_EQ(topic.EndOffset(), 1u);
  topic.AppendBatch({MakeTuple(1), MakeTuple(2)});
  EXPECT_EQ(topic.EndOffset(), 3u);
}

TEST(TopicTest, PollCountAccounting) {
  Topic topic("t", 0);
  topic.Append(MakeTuple(0));
  std::vector<Tuple> out;
  topic.Poll(0, 1, &out);
  topic.Poll(0, 1, &out);
  EXPECT_EQ(topic.poll_count(), 2u);
}

TEST(TopicTest, ConcurrentAppendsAllLand) {
  Topic topic("t", 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&topic, w] {
      for (uint64_t i = 0; i < 1000; ++i) {
        topic.Append(MakeTuple(static_cast<uint64_t>(w) * 1000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(topic.EndOffset(), 4000u);
}

// Regression (data race): set_poll_overhead_ns used to write a plain
// uint64_t that Poll() read outside the log mutex — retuning the knob while
// consumers poll was UB. The knob is atomic now; this test gives TSan the
// concurrent write/read pair to check.
TEST(TopicTest, ConcurrentOverheadRetuneWhilePolling) {
  Topic topic("t", 0);
  for (uint64_t i = 0; i < 64; ++i) topic.Append(MakeTuple(i));

  std::thread tuner([&topic] {
    for (int i = 0; i < 500; ++i) {
      topic.set_poll_overhead_ns(static_cast<uint64_t>(i % 3));
    }
  });
  std::thread poller([&topic] {
    std::vector<Tuple> out;
    for (int i = 0; i < 500; ++i) {
      out.clear();
      topic.Poll(static_cast<uint64_t>(i) % 64, 8, &out);
    }
  });
  tuner.join();
  poller.join();
  EXPECT_LE(topic.poll_overhead_ns(), 2u);
  EXPECT_EQ(topic.EndOffset(), 64u);
}

TEST(BrokerTest, BuiltInAndNamedTopics) {
  Broker broker;
  EXPECT_EQ(broker.insert_topic()->name(), "insert");
  EXPECT_EQ(broker.delete_topic()->name(), "delete");
  EXPECT_EQ(broker.query_topic()->name(), "query");
  Topic* a = broker.GetTopic("archive");
  Topic* b = broker.GetTopic("archive");
  EXPECT_EQ(a, b);  // same instance
  EXPECT_NE(a, broker.GetTopic("other"));
}

TEST(QueryTopicTest, AppendAndPollQueries) {
  QueryTopic topic("q");
  EXPECT_EQ(topic.EndOffset(), 0u);
  for (int i = 0; i < 20; ++i) {
    AggQuery q;
    q.func = AggFunc::kSum;
    q.agg_column = 1;
    q.predicate_columns = {0};
    q.rect = Rectangle({static_cast<double>(i)}, {static_cast<double>(i + 1)});
    EXPECT_EQ(topic.Append(q), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(topic.EndOffset(), 20u);
  std::vector<AggQuery> out;
  EXPECT_EQ(topic.Poll(0, 5, &out), 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[3].rect.lo(0), 3.0);
  out.clear();
  EXPECT_EQ(topic.Poll(15, 50, &out), 5u);  // truncated at end
  EXPECT_EQ(topic.Poll(20, 5, &out), 0u);   // drained
}

TEST(StreamedIngestTest, BrokerPumpMatchesSynchronousInsertFrames) {
  // The same 256-row insert frames go to a broker-mode server, whose
  // EngineDriver pump applies each polled run with InsertBatch, and to a
  // synchronous server, which applies each frame with InsertBatch. Both
  // serve sharded:janus with 4 shards; once Stop() has drained the pump,
  // both engines answer a fixed probe set bit-identically.
  const GeneratedDataset ds = GenerateUniform(6000, 1, 41);
  EngineConfig cfg;
  cfg.engine = "sharded:janus";
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 16;
  cfg.num_shards = 4;
  cfg.seed = 43;
  Rng rng(47);
  std::vector<std::vector<Tuple>> frames(12);
  uint64_t id = 1000000;
  for (std::vector<Tuple>& frame : frames) {
    for (int i = 0; i < 256; ++i) {
      Tuple t;
      t.id = id++;
      t[0] = rng.Uniform(0, 1);
      t[1] = rng.Normal(12, 3);
      frame.push_back(t);
    }
  }
  const auto ingest = [&](Broker* broker) {
    std::unique_ptr<AqpEngine> engine = EngineRegistry::Create(cfg);
    engine->LoadInitial(ds.rows);
    engine->Initialize();
    net::AqpServer server(engine.get(), net::ServerOptions{}, broker);
    server.Start();
    {
      net::AqpClient client("127.0.0.1", server.port());
      for (const std::vector<Tuple>& frame : frames) {
        EXPECT_EQ(client.Insert(frame), frame.size());
      }
    }
    server.Stop();  // a broker-mode server drains its pump first
    return engine;
  };
  Broker broker;
  const std::unique_ptr<AqpEngine> streamed = ingest(&broker);
  const std::unique_ptr<AqpEngine> synchronous = ingest(nullptr);
  EXPECT_EQ(streamed->Stats().rows, ds.rows.size() + 12 * 256);
  EXPECT_EQ(synchronous->Stats().rows, ds.rows.size() + 12 * 256);

  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (int k = 0; k < 8; ++k) {
    const double lo = k / 10.0;
    for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                      AggFunc::kMin, AggFunc::kMax}) {
      AggQuery q;
      q.func = f;
      q.agg_column = 1;
      q.predicate_columns = {0};
      q.rect = Rectangle({lo}, {lo + 0.05 + k * 0.04});
      const QueryResult a = streamed->Query(q);
      const QueryResult b = synchronous->Query(q);
      ASSERT_TRUE(a.ok);
      ASSERT_TRUE(b.ok);
      EXPECT_EQ(bits(a.estimate), bits(b.estimate)) << k;
      EXPECT_EQ(bits(a.ci_half_width), bits(b.ci_half_width)) << k;
      EXPECT_EQ(bits(a.variance_catchup), bits(b.variance_catchup)) << k;
      EXPECT_EQ(bits(a.variance_sample), bits(b.variance_sample)) << k;
      EXPECT_EQ(a.covered_nodes, b.covered_nodes) << k;
      EXPECT_EQ(a.partial_leaves, b.partial_leaves) << k;
      EXPECT_EQ(a.exact, b.exact) << k;
    }
  }
}

}  // namespace
}  // namespace janus
