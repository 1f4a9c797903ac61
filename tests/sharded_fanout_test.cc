// A shard whose call throws must not hang a sharded fan-out: every shard's
// task still finishes, and the first exception reaches the caller. The ctest
// TIMEOUT on this binary turns a regression into a failure, not a hang.
// Queries skip the fan-out: Query() and QueryBatch() run every shard on the
// calling thread.

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "api/sharded.h"
#include "util/invariants.h"
#include "util/mutex.h"

namespace janus {
namespace {

constexpr size_t kShards = 4;

/// Inner engine whose every fanned-out call throws in one shard of four
/// (the third one built); the other shards answer normally.
class FaultyEngine : public AqpEngine {
 public:
  explicit FaultyEngine(bool faulty) : faulty_(faulty) {}

  const char* name() const override { return "faulty"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    rows_ += rows.size();
  }
  void InitializeImpl() override { Fail("Initialize"); }
  void InsertImpl(const Tuple&) override { ++rows_; }
  bool DeleteImpl(uint64_t) override { return false; }
  QueryResult QueryImpl(const AggQuery&) const override {
    Fail("Query");
    return QueryResult{};
  }
  void RunCatchupToGoalImpl() override { Fail("RunCatchupToGoal"); }
  EngineStats StatsImpl() const override {
    Fail("Stats");
    EngineStats s;
    s.engine = name();
    s.rows = rows_;
    return s;
  }

 protected:
  void CheckInvariantsImpl() const override {
    if (faulty_) {
      invariants::Require(false, "FaultyEngine", "injected violation");
    }
  }

 private:
  void Fail(const char* what) const {
    if (faulty_) throw std::runtime_error(std::string("injected: ") + what);
  }

  bool faulty_;
  size_t rows_ = 0;
};

/// A sharded engine over four FaultyEngine shards, one of them faulty.
std::unique_ptr<ShardedEngine> MakeSharded() {
  static std::atomic<size_t> built{0};
  static const bool registered = [] {
    EngineRegistry::Global().Register(
        "faulty", "throws in one shard of four (tests only)",
        [](const EngineConfig&) {
          return std::make_unique<FaultyEngine>(built.fetch_add(1) % kShards ==
                                                2);
        });
    return true;
  }();
  (void)registered;
  built.store(0);
  EngineConfig cfg;
  cfg.num_shards = static_cast<int>(kShards);
  return std::make_unique<ShardedEngine>("faulty", cfg);
}

TEST(ShardedFanoutTest, InitializeRethrowsAShardException) {
  auto engine = MakeSharded();
  EXPECT_THROW(engine->Initialize(), std::runtime_error);
}

TEST(ShardedFanoutTest, CheckInvariantsRethrowsAShardViolation) {
  auto engine = MakeSharded();
  EXPECT_THROW(engine->CheckInvariants(), InvariantViolation);
}

TEST(ShardedFanoutTest, StatsRethrowsAShardException) {
  auto engine = MakeSharded();
  EXPECT_THROW((void)engine->Stats(), std::runtime_error);
}

TEST(ShardedFanoutTest, CatchupRethrowsAShardException) {
  auto engine = MakeSharded();
  EXPECT_THROW(engine->RunCatchupToGoal(), std::runtime_error);
}

AggQuery SumQuery() {
  AggQuery q;
  q.func = AggFunc::kSum;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {1.0});
  return q;
}

TEST(ShardedFanoutTest, QueryBatchReportsTheShardError) {
  auto engine = MakeSharded();
  const AggQuery q = SumQuery();
  const std::vector<QueryResult> out = engine->QueryBatch({q, q}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  for (const QueryResult& r : out) EXPECT_FALSE(r.ok);
}

TEST(ShardedFanoutTest, SingleQueryReportsTheShardErrorAndTheEngineGoesOn) {
  auto engine = MakeSharded();
  EXPECT_FALSE(engine->Query(SumQuery()).ok);
  // Nothing is left holding a shard's lock: the next fan-out and the next
  // inline query both complete.
  EXPECT_THROW((void)engine->Stats(), std::runtime_error);
  EXPECT_FALSE(engine->Query(SumQuery()).ok);
}

TEST(ShardedFanoutTest, EngineStaysUsableAfterAShardThrows) {
  auto engine = MakeSharded();
  EXPECT_THROW(engine->Initialize(), std::runtime_error);
  // The pool is not left with a waiter or a stuck task: the next fan-outs
  // complete too.
  EXPECT_THROW((void)engine->Stats(), std::runtime_error);
  EXPECT_THROW(engine->RunCatchupToGoal(), std::runtime_error);
}

/// Inner engine that logs which shard answered a query on which thread.
class ThreadLogEngine : public AqpEngine {
 public:
  struct Call {
    size_t shard;
    std::thread::id thread;
  };

  explicit ThreadLogEngine(size_t shard) : shard_(shard) {}

  const char* name() const override { return "thread_log"; }
  void LoadInitialImpl(const std::vector<Tuple>&) override {}
  void InitializeImpl() override {}
  void InsertImpl(const Tuple&) override {}
  bool DeleteImpl(uint64_t) override { return false; }
  QueryResult QueryImpl(const AggQuery&) const override {
    MutexLock lock(&mu());
    calls().push_back({shard_, std::this_thread::get_id()});
    return QueryResult{};
  }
  void RunCatchupToGoalImpl() override {}
  EngineStats StatsImpl() const override { return EngineStats{}; }

  /// Every call logged since the last TakeCalls().
  static std::vector<Call> TakeCalls() {
    MutexLock lock(&mu());
    return std::exchange(calls(), {});
  }

 private:
  static Mutex& mu() {
    static Mutex m;
    return m;
  }
  static std::vector<Call>& calls() {
    static std::vector<Call> c;
    return c;
  }

  const size_t shard_;
};

/// A sharded engine over four ThreadLogEngine shards, with an empty log.
std::unique_ptr<ShardedEngine> MakeThreadLogged() {
  static std::atomic<size_t> built{0};
  static const bool registered = [] {
    EngineRegistry::Global().Register(
        "thread_log", "logs the thread of every query (tests only)",
        [](const EngineConfig&) {
          const size_t shard = built.fetch_add(1) % kShards;
          return std::make_unique<ThreadLogEngine>(shard);
        });
    return true;
  }();
  (void)registered;
  built.store(0);
  EngineConfig cfg;
  cfg.num_shards = static_cast<int>(kShards);
  auto engine = std::make_unique<ShardedEngine>("thread_log", cfg);
  (void)ThreadLogEngine::TakeCalls();
  return engine;
}

/// How many logged calls each shard answered.
std::vector<size_t> CallsPerShard(
    const std::vector<ThreadLogEngine::Call>& log) {
  std::vector<size_t> per_shard(kShards, 0);
  for (const ThreadLogEngine::Call& c : log) ++per_shard.at(c.shard);
  return per_shard;
}

TEST(ShardedFanoutTest, QueriesRunEveryShardOnTheCallingThread) {
  auto engine = MakeThreadLogged();
  const std::thread::id caller = std::this_thread::get_id();
  // A lone Query(), a batch of one and a batch of two: each query reaches
  // every shard once, and no pool thread answers any of them.
  for (const size_t batch : {0u, 1u, 2u}) {
    if (batch == 0) {
      (void)engine->Query(SumQuery());
    } else {
      const std::vector<AggQuery> queries(batch, SumQuery());
      ASSERT_EQ(engine->QueryBatch(queries, nullptr).size(), batch);
    }
    const std::vector<ThreadLogEngine::Call> log = ThreadLogEngine::TakeCalls();
    EXPECT_EQ(CallsPerShard(log),
              std::vector<size_t>(kShards, std::max<size_t>(1, batch)))
        << "batch=" << batch;
    for (const ThreadLogEngine::Call& c : log) {
      EXPECT_EQ(c.thread, caller) << "shard " << c.shard << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace janus
