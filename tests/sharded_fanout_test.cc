// A shard whose call throws must not hang a sharded fan-out: every shard's
// task still finishes, and the first exception reaches the caller. The ctest
// TIMEOUT on this binary turns a regression into a failure, not a hang.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "api/sharded.h"
#include "util/invariants.h"

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

TEST(ShardedFanoutTest, QueryBatchReportsTheShardError) {
  auto engine = MakeSharded();
  AggQuery q;
  q.func = AggFunc::kSum;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {1.0});
  const std::vector<QueryResult> out = engine->QueryBatch({q, q}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  for (const QueryResult& r : out) EXPECT_FALSE(r.ok);
}

TEST(ShardedFanoutTest, EngineStaysUsableAfterAShardThrows) {
  auto engine = MakeSharded();
  EXPECT_THROW(engine->Initialize(), std::runtime_error);
  // The pool is not left with a waiter or a stuck task: the next fan-outs
  // complete too.
  EXPECT_THROW((void)engine->Stats(), std::runtime_error);
  EXPECT_THROW(engine->RunCatchupToGoal(), std::runtime_error);
}

}  // namespace
}  // namespace janus
