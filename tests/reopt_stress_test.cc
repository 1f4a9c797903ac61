// Concurrency stress for re-optimization triggers (ISSUE 8 satellite): the
// race-prone surface is CheckTriggers after the update-mutex release — the
// trigger evaluation pins the tree shared, records or runs a re-partition,
// and in background mode hands the request to the engine's maintenance
// thread, which rebuilds off to the side while producers keep inserting and
// deleting and readers keep querying. Both reopt modes run for "janus"
// (concurrent updaters, one maintenance thread) and "sharded:janus" (one
// maintenance thread per shard). "multi" and "sharded:multi" run the same
// concurrent update path while their reader discovers templates.
//
// Runs under ThreadSanitizer in CI, both in the full-suite pass and in the
// pinned JANUS_SCAN_THREADS={2,8} matrix (see .github/workflows/ci.yml).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "data/generators.h"
#include "tests/test_seed.h"
#include "util/rng.h"

namespace janus {
namespace {

EngineConfig StressConfig(const std::string& engine, const std::string& mode) {
  EngineConfig cfg;
  cfg.engine = engine;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 16;
  cfg.sample_rate = 0.02;
  // Every evaluation reports starvation: maximal trigger/re-partition
  // pressure while updates and queries flow.
  cfg.enable_triggers = true;
  cfg.trigger_check_interval = 64;
  cfg.starvation_factor = 1e9;
  cfg.reopt_mode = mode;
  cfg.num_shards = 2;
  cfg.seed = TestSeed();
  return cfg;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

void RunStress(const std::string& engine_name, const std::string& mode) {
  SCOPED_TRACE(engine_name + " reopt_mode=" + mode);
  constexpr int kProducers = 3;
  constexpr uint64_t kInsertsPerProducer = 4000;
  constexpr uint64_t kDeletesPerProducer = 800;
  constexpr uint64_t kInitialRows = 6000;

  auto ds = GenerateUniform(kInitialRows, 1, 71);
  auto engine =
      EngineRegistry::Create(engine_name, StressConfig(engine_name, mode));
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  std::atomic<bool> done{false};

  // Producers: disjoint id ranges; each deletes a prefix of its own
  // insertions, so every delete targets an id whose insert has returned.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      Rng rng(1000 + static_cast<uint64_t>(p));
      const uint64_t base =
          1000000 + static_cast<uint64_t>(p) * kInsertsPerProducer;
      for (uint64_t i = 0; i < kInsertsPerProducer; ++i) {
        Tuple t;
        t.id = base + i;
        t[0] = rng.NextDouble();
        t[1] = rng.Normal(10, 2);
        engine->Insert(t);
        if (i >= kInsertsPerProducer - kDeletesPerProducer) {
          const uint64_t victim =
              base + (i - (kInsertsPerProducer - kDeletesPerProducer));
          EXPECT_TRUE(engine->Delete(victim)) << victim;
        }
      }
    });
  }

  // Reader: queries and stats race the update storm and — in background
  // mode — the maintenance thread's pointer-swap adoptions.
  std::thread reader([&engine, &done] {
    const std::vector<AggQuery> batch = {
        MakeQuery(AggFunc::kCount, 0.0, 1.0),
        MakeQuery(AggFunc::kSum, 0.2, 0.8),
        MakeQuery(AggFunc::kAvg, 0.1, 0.9),
    };
    EngineStats prev;
    while (!done.load(std::memory_order_acquire)) {
      const auto results = engine->QueryBatch(batch, nullptr);
      ASSERT_EQ(results.size(), batch.size());
      for (const QueryResult& r : results) {
        EXPECT_TRUE(std::isfinite(r.estimate));
        EXPECT_GE(r.ci_half_width, 0.0);
      }
      const EngineStats s = engine->Stats();
      EXPECT_GE(s.inserts, prev.inserts);
      EXPECT_GE(s.deletes, prev.deletes);
      EXPECT_GE(s.trigger_fires, prev.trigger_fires);
      EXPECT_GE(s.repartitions, prev.repartitions);
      EXPECT_GE(s.background_reopts, prev.background_reopts);
      EXPECT_GE(s.delta_ops_replayed, prev.delta_ops_replayed);
      prev = s;
    }
  });

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiesced accounting: every update landed exactly once regardless of how
  // many synopsis swaps happened mid-stream.
  const EngineStats s = engine->Stats();
  EXPECT_EQ(s.inserts, kProducers * kInsertsPerProducer);
  EXPECT_EQ(s.deletes, kProducers * kDeletesPerProducer);
  EXPECT_EQ(s.rows, kInitialRows + kProducers * (kInsertsPerProducer -
                                                 kDeletesPerProducer));
  EXPECT_GT(s.trigger_fires, 0u);
  if (mode == "blocking") {
    EXPECT_GT(s.repartitions, 0u);
  } else {
    // The maintenance thread had fires queued throughout; give the last
    // in-flight pipeline a moment to adopt, then require at least one
    // background adoption and no lost updates.
    for (int i = 0; i < 5000 && engine->Stats().background_reopts == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(engine->Stats().background_reopts, 0u);
  }

  // In catch-up mode the full-range COUNT is n0 + inserted - removed: exact
  // up to FP rounding, so an op replayed twice or lost at a swap fails here.
  engine->RunCatchupToGoal();
  const QueryResult r = engine->Query(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  const double live = static_cast<double>(engine->Stats().rows);
  EXPECT_NEAR(r.estimate, live, live * 1e-9);
  engine->CheckInvariants();
}

/// multi: two updaters race one reader whose queries discover two more
/// templates (appending to the template list every update walks) and whose
/// Reinitialize rebuilds every template on the maintenance thread.
void RunMultiStress(const std::string& engine_name) {
  SCOPED_TRACE(engine_name);
  constexpr int kProducers = 2;
  constexpr uint64_t kInsertsPerProducer = 3000;
  constexpr uint64_t kDeletesPerProducer = 600;
  constexpr uint64_t kInitialRows = 6000;

  auto ds = GenerateUniform(kInitialRows, 2, 73);  // predicates 0, 1; agg 2
  EngineConfig cfg = StressConfig(engine_name, "background");
  cfg.agg_column = 2;
  auto engine = EngineRegistry::Create(engine_name, cfg);
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  auto query = [](AggFunc f, std::vector<int> columns, double lo, double hi) {
    AggQuery q;
    q.func = f;
    q.agg_column = 2;
    q.rect = Rectangle(std::vector<double>(columns.size(), lo),
                       std::vector<double>(columns.size(), hi));
    q.predicate_columns = std::move(columns);
    return q;
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      Rng rng(2000 + static_cast<uint64_t>(p));
      const uint64_t base =
          1000000 + static_cast<uint64_t>(p) * kInsertsPerProducer;
      for (uint64_t i = 0; i < kInsertsPerProducer; ++i) {
        Tuple t;
        t.id = base + i;
        t[0] = rng.NextDouble();
        t[1] = rng.NextDouble();
        t[2] = rng.Normal(10, 2);
        engine->Insert(t);
        if (i >= kInsertsPerProducer - kDeletesPerProducer) {
          const uint64_t victim =
              base + (i - (kInsertsPerProducer - kDeletesPerProducer));
          EXPECT_TRUE(engine->Delete(victim)) << victim;
        }
      }
    });
  }

  std::thread reader([&] {
    bool rebuilt = false;
    while (!done.load(std::memory_order_acquire)) {
      for (const std::vector<int>& columns :
           {std::vector<int>{0}, std::vector<int>{1},
            std::vector<int>{0, 1}}) {
        const QueryResult r = engine->Query(query(AggFunc::kSum, columns,
                                                  0.1, 0.9));
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(std::isfinite(r.estimate));
        if (!rebuilt) {
          engine->Reinitialize();  // records a request; returns at once
          rebuilt = true;
        }
      }
      const auto batch =
          engine->QueryBatch({query(AggFunc::kCount, {1}, 0.0, 1.0),
                              query(AggFunc::kAvg, {0, 1}, 0.2, 0.8)});
      for (const QueryResult& r : batch) EXPECT_TRUE(r.ok);
    }
  });

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Every shard's rebuild lands; until it does the maintenance thread may
  // still swap trees.
  const uint64_t rebuilds =
      engine_name == "multi" ? 1 : static_cast<uint64_t>(cfg.num_shards);
  for (int i = 0; i < 5000 && engine->Stats().background_reopts < rebuilds;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const EngineStats s = engine->Stats();
  EXPECT_EQ(s.background_reopts, rebuilds);
  EXPECT_EQ(s.num_templates, 3);
  EXPECT_EQ(s.trigger_checks, 0u);
  EXPECT_EQ(s.inserts, kProducers * kInsertsPerProducer);
  EXPECT_EQ(s.deletes, kProducers * kDeletesPerProducer);
  EXPECT_EQ(s.rows, kInitialRows + kProducers * (kInsertsPerProducer -
                                                 kDeletesPerProducer));

  // After catch-up every template's full-range COUNT is the live row count
  // up to FP rounding: an update lost or applied twice in any tree fails.
  engine->RunCatchupToGoal();
  const double live = static_cast<double>(s.rows);
  for (const std::vector<int>& columns :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1}}) {
    const QueryResult r =
        engine->Query(query(AggFunc::kCount, columns, 0.0, 1.0));
    EXPECT_NEAR(r.estimate, live, live * 1e-9) << columns.size();
  }
  engine->CheckInvariants();
}

TEST(ReoptStressTest, JanusBlocking) { RunStress("janus", "blocking"); }
TEST(ReoptStressTest, JanusBackground) { RunStress("janus", "background"); }
TEST(ReoptStressTest, ShardedJanusBlocking) {
  RunStress("sharded:janus", "blocking");
}
TEST(ReoptStressTest, ShardedJanusBackground) {
  RunStress("sharded:janus", "background");
}
TEST(ReoptStressTest, MultiDiscoversTemplatesUnderConcurrentUpdates) {
  RunMultiStress("multi");
}
TEST(ReoptStressTest, ShardedMultiDiscoversTemplatesUnderConcurrentUpdates) {
  RunMultiStress("sharded:multi");
}

}  // namespace
}  // namespace janus
