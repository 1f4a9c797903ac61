// Conformance suite for the unified AqpEngine API: every registered engine
// (including every "sharded:*" composition, at 1 and 4 shards) runs the same
// load / initialize / insert / delete / query / catch-up scenario through
// the facade, with estimate-sanity and CI-coverage checks. Also covers the
// registry, the shared ArgMap/EngineConfig parser, QueryBatch and the
// broker-driven EngineDriver.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/driver.h"
#include "api/engine.h"
#include "api/error.h"
#include "api/registry.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workload.h"
#include "persist/serde.h"
#include "tests/test_seed.h"
#include "util/invariants.h"
#include "util/thread_pool.h"

namespace janus {
namespace {

/// One conformance instantiation: a registry key plus, for sharded engines,
/// the shard count to run the scenario at (0 = engine has no shards).
struct ConformanceParam {
  std::string name;
  int shards = 0;
};

std::ostream& operator<<(std::ostream& os, const ConformanceParam& p) {
  os << p.name;
  if (p.shards > 0) os << " shards=" << p.shards;
  return os;
}

bool IsSharded(const std::string& name) {
  return name.rfind("sharded:", 0) == 0;
}

/// Registry key of the backend doing the estimating ("sharded:spn" -> "spn").
std::string InnerName(const std::string& name) {
  return IsSharded(name) ? name.substr(std::string("sharded:").size()) : name;
}

/// The full conformance matrix, derived from the registry: plain engines run
/// once, sharded engines run at 1 and 4 shards.
std::vector<ConformanceParam> BuildConformanceParams() {
  std::vector<ConformanceParam> out;
  for (const std::string& name : EngineRegistry::Global().Names()) {
    if (IsSharded(name)) {
      out.push_back({name, 1});
      out.push_back({name, 4});
    } else {
      out.push_back({name, 0});
    }
  }
  return out;
}

/// Snapshot used both to instantiate the suite and to verify coverage, so
/// the coverage check fails if the registry grows past the instantiation.
const std::vector<ConformanceParam>& InstantiatedParams() {
  static const std::vector<ConformanceParam> params =
      BuildConformanceParams();
  return params;
}

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 32;
  cfg.sample_rate = 0.02;
  cfg.catchup_rate = 0.10;
  cfg.enable_triggers = false;
  cfg.seed = TestSeed();
  return cfg;
}

EngineConfig ConfigFor(const ConformanceParam& p) {
  EngineConfig cfg = BaseConfig();
  if (p.shards > 0) cfg.num_shards = p.shards;
  return cfg;
}

/// Live row count however the engine exposes it: directly from the archive
/// table, or from the stats snapshot when the archive lives in shards.
size_t LiveRows(const AqpEngine& engine) {
  return engine.table() != nullptr ? engine.table()->size()
                                   : engine.Stats().rows;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

/// Workloads wide enough that every backend's resolution suffices.
std::vector<AggQuery> WideWorkload(const std::vector<Tuple>& rows,
                                   size_t n, uint64_t seed) {
  WorkloadGenerator gen(rows, {0}, 1);
  WorkloadOptions o;
  o.num_queries = n;
  o.func = AggFunc::kSum;
  o.min_count = std::max<size_t>(50, rows.size() / 100);
  o.seed = seed;
  return gen.Generate(rows, o);
}

/// Median relative error the scenario tolerates per engine (keyed by the
/// inner backend; sharding pools unbiased per-shard estimators, so the
/// budget carries over). The learned model has fixed resolution; everything
/// else is sampling-based.
double ErrorBudget(const std::string& engine) {
  return InnerName(engine) == "spn" ? 0.50 : 0.25;
}

class EngineConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(EngineConformanceTest, InsertDeleteQueryCatchupScenario) {
  const std::string name = GetParam().name;
  auto ds = GenerateUniform(20000, 1, TestSeed() + 31);
  auto engine = EngineRegistry::Create(name, ConfigFor(GetParam()));
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), name);

  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();
  // Structural audit after every mutation phase (debug builds / the
  // JANUS_AUDIT_INVARIANTS knob; a violation throws and fails the test).
  invariants::MaybeAudit(*engine);

  // Phase 1: estimate sanity on the historical data.
  auto rows = ds.rows;
  {
    const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
    const auto truth = ExactAnswer(rows, q);
    const QueryResult r = engine->Query(q);
    EXPECT_NEAR(r.estimate, *truth, *truth * ErrorBudget(name)) << name;
  }

  // Phase 2: stream 2000 inserts and 1000 deletes.
  Rng rng(TestSeed() + 77);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.id = 500000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    engine->Insert(t);
    rows.push_back(t);
  }
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_TRUE(engine->Delete(id * 7)) << name;
  }
  EXPECT_FALSE(engine->Delete(999999999)) << name;
  invariants::MaybeAudit(*engine);
  std::vector<Tuple> live;
  for (const Tuple& t : rows) {
    if (t.id >= 500000 || t.id % 7 != 0 || t.id >= 7000) live.push_back(t);
  }

  // The archive tracks the stream exactly (sharded engines expose the row
  // count through Stats, which quiesces every shard first; every other
  // engine must still expose its archive table).
  if (IsSharded(name)) {
    EXPECT_EQ(engine->table(), nullptr) << name;
  } else {
    ASSERT_NE(engine->table(), nullptr) << name;
  }
  EXPECT_EQ(LiveRows(*engine), live.size()) << name;

  // Phase 3: updates are reflected (after a refresh for engines whose
  // synopsis only moves on Reinitialize).
  const std::string inner = InnerName(name);
  if (inner == "spn" || inner == "spt") engine->Reinitialize();
  engine->RunCatchupToGoal();
  invariants::MaybeAudit(*engine);
  {
    const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
    const auto truth = ExactAnswer(live, q);
    const QueryResult r = engine->Query(q);
    EXPECT_NEAR(r.estimate, *truth, *truth * ErrorBudget(name)) << name;
  }

  // Phase 4: workload-level estimate sanity and CI coverage.
  const auto queries = WideWorkload(live, 30, TestSeed() + 13);
  const auto truths = ExactAnswers(live, queries);
  std::vector<double> errors;
  size_t with_ci = 0, covered = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult r = engine->Query(queries[i]);
    EXPECT_GE(r.ci_half_width, 0.0) << name;
    EXPECT_TRUE(std::isfinite(r.estimate)) << name;
    const auto rel = RelativeError(truths[i], r.estimate);
    if (rel.has_value()) errors.push_back(*rel);
    if (r.ci_half_width > 0 && truths[i].has_value()) {
      ++with_ci;
      if (std::abs(r.estimate - *truths[i]) <= r.ci_half_width) ++covered;
    }
  }
  ASSERT_FALSE(errors.empty()) << name;
  std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                   errors.end());
  EXPECT_LT(errors[errors.size() / 2], ErrorBudget(name)) << name;
  // Engines that report confidence intervals must cover the truth at least
  // half the time at 95% nominal confidence (a loose floor; estimators are
  // biased only through the sample).
  if (with_ci >= queries.size() / 2) {
    EXPECT_GE(static_cast<double>(covered) / static_cast<double>(with_ci),
              0.5)
        << name;
  }

  // Stats snapshot is consistent with the stream.
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.engine, name);
  EXPECT_EQ(stats.rows, live.size()) << name;
  EXPECT_GE(stats.inserts, 2000u) << name;
  EXPECT_GE(stats.deletes, 1000u) << name;
  invariants::MaybeAudit(*engine);
}

TEST_P(EngineConformanceTest, QueryBatchMatchesSerialQueries) {
  const std::string name = GetParam().name;
  auto ds = GenerateUniform(8000, 1, TestSeed() + 57);
  auto engine = EngineRegistry::Create(name, ConfigFor(GetParam()));
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  const auto queries = WideWorkload(ds.rows, 24, TestSeed() + 5);
  std::vector<QueryResult> serial;
  for (const AggQuery& q : queries) serial.push_back(engine->Query(q));

  ThreadPool pool(4);
  const auto inline_batch = engine->QueryBatch(queries, nullptr);
  const auto pooled_batch = engine->QueryBatch(queries, &pool);
  ASSERT_EQ(inline_batch.size(), queries.size());
  ASSERT_EQ(pooled_batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(inline_batch[i].estimate, serial[i].estimate) << name;
    EXPECT_DOUBLE_EQ(pooled_batch[i].estimate, serial[i].estimate) << name;
    EXPECT_DOUBLE_EQ(pooled_batch[i].ci_half_width, serial[i].ci_half_width)
        << name;
  }
}

/// Bitwise equality of two query results: a restored engine must be
/// indistinguishable from the saved one, down to the last ulp of every
/// variance term (the persist layer round-trips doubles through their
/// IEEE-754 bits and serializes index structures shape-exactly).
void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& name, size_t query_index) {
  EXPECT_EQ(a.estimate, b.estimate) << name << " q" << query_index;
  EXPECT_EQ(a.ci_half_width, b.ci_half_width) << name << " q" << query_index;
  EXPECT_EQ(a.variance_catchup, b.variance_catchup)
      << name << " q" << query_index;
  EXPECT_EQ(a.variance_sample, b.variance_sample)
      << name << " q" << query_index;
  EXPECT_EQ(a.covered_nodes, b.covered_nodes) << name << " q" << query_index;
  EXPECT_EQ(a.partial_leaves, b.partial_leaves) << name << " q" << query_index;
  EXPECT_EQ(a.exact, b.exact) << name << " q" << query_index;
}

void ExpectSameStats(const EngineStats& a, const EngineStats& b,
                     const std::string& name) {
  EXPECT_EQ(a.engine, b.engine) << name;
  EXPECT_EQ(a.rows, b.rows) << name;
  EXPECT_EQ(a.sample_size, b.sample_size) << name;
  EXPECT_EQ(a.num_templates, b.num_templates) << name;
  EXPECT_EQ(a.inserts, b.inserts) << name;
  EXPECT_EQ(a.deletes, b.deletes) << name;
  EXPECT_EQ(a.repartitions, b.repartitions) << name;
  EXPECT_EQ(a.partial_repartitions, b.partial_repartitions) << name;
  EXPECT_EQ(a.partial_repartition_fallbacks, b.partial_repartition_fallbacks)
      << name;
  EXPECT_EQ(a.background_reopts, b.background_reopts) << name;
  EXPECT_EQ(a.background_discards, b.background_discards) << name;
  EXPECT_EQ(a.delta_ops_replayed, b.delta_ops_replayed) << name;
  EXPECT_EQ(a.trigger_checks, b.trigger_checks) << name;
  EXPECT_EQ(a.trigger_fires, b.trigger_fires) << name;
  EXPECT_EQ(a.reservoir_resamples, b.reservoir_resamples) << name;
  EXPECT_EQ(a.catchup_processed, b.catchup_processed) << name;
  EXPECT_EQ(a.catchup_processing_seconds, b.catchup_processing_seconds)
      << name;
  EXPECT_EQ(a.last_reopt_seconds, b.last_reopt_seconds) << name;
  EXPECT_EQ(a.last_blocking_seconds, b.last_blocking_seconds) << name;
  if (InnerName(a.engine) == "janus" || InnerName(a.engine) == "multi") {
    // janus (either name) times the builds its own process ran and persists
    // none, so a restored copy reads zero until it builds.
    EXPECT_EQ(b.build_seconds, 0.0) << name;
    EXPECT_EQ(b.partition_seconds, 0.0) << name;
  } else {
    EXPECT_EQ(a.build_seconds, b.build_seconds) << name;
    EXPECT_EQ(a.partition_seconds, b.partition_seconds) << name;
  }
  // Byte footprints derive from container capacities (allocator growth
  // history, not logical state): a restored engine is typically tighter.
  EXPECT_GT(b.archive_bytes, 0u) << name;
  EXPECT_LE(a.archive_bytes, 3 * b.archive_bytes) << name;
  EXPECT_LE(b.archive_bytes, 3 * a.archive_bytes) << name;
  EXPECT_LE(a.synopsis_bytes, 3 * b.synopsis_bytes + 1024) << name;
  EXPECT_LE(b.synopsis_bytes, 3 * a.synopsis_bytes + 1024) << name;
}

TEST_P(EngineConformanceTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string name = GetParam().name;
  const EngineConfig cfg = ConfigFor(GetParam());
  auto ds = GenerateUniform(8000, 1, TestSeed() + 3);
  auto engine = EngineRegistry::Create(name, cfg);
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  // Stream updates so the snapshot carries dynamic state: post-init deltas,
  // reservoir churn, swap-removed archive slots.
  Rng rng(TestSeed() + 4);
  for (int i = 0; i < 600; ++i) {
    Tuple t;
    t.id = 700000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    engine->Insert(t);
  }
  for (uint64_t id = 0; id < 200; ++id) engine->Delete(id * 11);

  std::string label = name;
  std::replace(label.begin(), label.end(), ':', '_');
  const std::string path = ::testing::TempDir() + "/roundtrip_" + label +
                           "_" + std::to_string(GetParam().shards) + ".snap";
  SnapshotMeta meta;
  meta.insert_offset = 123;
  meta.delete_offset = 45;
  meta.query_offset = 6;
  engine->Save(path, meta);

  // A fresh engine from the same config, restored from the file: no
  // LoadInitial, no Initialize.
  auto restored = EngineRegistry::Create(name, cfg);
  const SnapshotMeta back = restored->Load(path);
  EXPECT_EQ(back.engine, name);
  EXPECT_EQ(back.insert_offset, 123u);
  EXPECT_EQ(back.delete_offset, 45u);
  EXPECT_EQ(back.query_offset, 6u);

  // Fixed workload over the engine's own template, every aggregate: the
  // restored engine must answer bit-identically.
  std::vector<AggQuery> queries = WideWorkload(ds.rows, 20, TestSeed() + 5);
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    queries.push_back(MakeQuery(f, 0.1, 0.8));
    queries.push_back(MakeQuery(f, 0.4, 0.6));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(engine->Query(queries[i]), restored->Query(queries[i]),
                     name, i);
  }
  ExpectSameStats(engine->Stats(), restored->Stats(), name);

  // And the restored engine keeps *behaving* identically: the same further
  // update stream leaves both engines in the same state (RNGs, reservoirs
  // and index shapes round-tripped exactly).
  Rng follow_a(TestSeed() + 6), follow_b(TestSeed() + 6);
  auto feed = [](AqpEngine* e, Rng* r) {
    for (int i = 0; i < 150; ++i) {
      Tuple t;
      t.id = 800000 + static_cast<uint64_t>(i);
      t[0] = r->NextDouble();
      t[1] = r->Normal(10, 2);
      e->Insert(t);
    }
    for (uint64_t id = 300; id < 340; ++id) e->Delete(id * 7);
  };
  feed(engine.get(), &follow_a);
  feed(restored.get(), &follow_b);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(engine->Query(queries[i]), restored->Query(queries[i]),
                     name, i);
  }
  ExpectSameStats(engine->Stats(), restored->Stats(), name);

  std::remove(path.c_str());
}

TEST_P(EngineConformanceTest, LoadRejectsSnapshotFromOtherEngine) {
  const std::string name = GetParam().name;
  // A snapshot written by a different backend must be rejected by name, not
  // misparsed. ("rs" engines get an "srs" snapshot, everything else "rs".)
  const std::string other = name == "rs" ? "srs" : "rs";
  auto donor = EngineRegistry::Create(other, BaseConfig());
  auto ds = GenerateUniform(500, 1, TestSeed() + 7);
  donor->LoadInitial(ds.rows);
  donor->Initialize();
  std::string label = name;
  std::replace(label.begin(), label.end(), ':', '_');
  const std::string path = ::testing::TempDir() + "/mismatch_" + label +
                           "_" + std::to_string(GetParam().shards) + ".snap";
  donor->Save(path);

  auto engine = EngineRegistry::Create(name, ConfigFor(GetParam()));
  EXPECT_THROW(engine->Load(path), persist::PersistError) << name;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest,
    ::testing::ValuesIn(InstantiatedParams()),
    [](const ::testing::TestParamInfo<ConformanceParam>& info) {
      std::string label = info.param.name;
      std::replace(label.begin(), label.end(), ':', '_');
      if (info.param.shards > 0) {
        label += "_" + std::to_string(info.param.shards) + "shards";
      }
      return label;
    });

TEST(EngineStatsTest, JanusReportsItsLastBuild) {
  auto ds = GenerateUniform(20000, 1, TestSeed() + 61);
  for (const char* name : {"janus", "sharded:janus"}) {
    EngineConfig cfg = BaseConfig();
    if (IsSharded(name)) cfg.num_shards = 2;
    auto engine = EngineRegistry::Create(name, cfg);
    engine->LoadInitial(ds.rows);
    engine->Initialize();
    const EngineStats init = engine->Stats();
    EXPECT_GT(init.partition_seconds, 0.0) << name;
    EXPECT_LE(init.partition_seconds, init.build_seconds) << name;
    engine->Reinitialize();
    const EngineStats rebuilt = engine->Stats();
    EXPECT_GT(rebuilt.partition_seconds, 0.0) << name;
    EXPECT_LE(rebuilt.partition_seconds, rebuilt.build_seconds) << name;
    EXPECT_NE(rebuilt.partition_seconds, init.partition_seconds) << name;
    EXPECT_NE(rebuilt.build_seconds, init.build_seconds) << name;
  }
}

TEST(EngineStatsTest, MultiAnswersItsConfiguredTemplateLikeJanus) {
  // One class serves both names: on the configured template multi answers
  // exactly as janus with triggers off, tracked columns included (multi once
  // dropped them and answered tracked aggregates from the pooled sample).
  auto ds = GenerateUniform(20000, 2, TestSeed() + 71);
  for (const bool tracked : {false, true}) {
    EngineConfig cfg = BaseConfig();
    if (tracked) cfg.extra_tracked_columns = {2};
    auto janus = EngineRegistry::Create("janus", cfg);
    auto multi = EngineRegistry::Create("multi", cfg);
    for (AqpEngine* e : {janus.get(), multi.get()}) {
      e->LoadInitial(ds.rows);
      e->Initialize();
      e->RunCatchupToGoal();
      Rng rng(TestSeed() + 72);
      for (uint64_t i = 0; i < 4000; ++i) {
        Tuple t;
        t.id = 900000 + i;
        t[0] = rng.NextDouble();
        t[1] = rng.NextDouble();
        t[2] = rng.Normal(10, 2);
        e->Insert(t);
        ASSERT_TRUE(e->Delete(3 * i));
      }
    }
    Rng rng(TestSeed() + 73);
    size_t index = 0;
    for (int i = 0; i < 20; ++i) {
      const double lo = 0.7 * rng.NextDouble();
      const double hi = lo + 0.05 + 0.25 * rng.NextDouble();
      for (const int column : {1, 2}) {
        for (const AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                                AggFunc::kMin, AggFunc::kMax}) {
          AggQuery q = MakeQuery(f, lo, hi);
          q.agg_column = column;
          const QueryResult b = multi->Query(q);
          ExpectSameResult(janus->Query(q), b,
                           tracked ? "tracked=2" : "untracked", index++);
          if (tracked && column == 2 && f == AggFunc::kSum) {
            EXPECT_GT(b.covered_nodes, 0u) << "window " << i;
          }
        }
      }
    }
    EXPECT_EQ(multi->Stats().num_templates, 1);
  }
}

TEST(EngineRegistryTest, CoversAllBackends) {
  const auto names = EngineRegistry::Global().Names();
  for (const char* expected :
       {"janus", "multi", "rs", "srs", "spn", "spt", "sharded:janus",
        "sharded:multi", "sharded:rs", "sharded:srs", "sharded:spn",
        "sharded:spt"}) {
    EXPECT_TRUE(EngineRegistry::Global().Contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    EXPECT_FALSE(EngineRegistry::Global().Description(expected).empty());
  }
}

TEST(EngineRegistryTest, ConformanceSuiteCoversEveryRegisteredEngine) {
  // The suite is instantiated from a registry snapshot taken at static
  // initialization; every engine registered by query time must be in it.
  // Registering a backend without conformance coverage is a test failure.
  std::set<std::string> covered;
  for (const ConformanceParam& p : InstantiatedParams()) {
    covered.insert(p.name);
  }
  for (const std::string& name : EngineRegistry::Global().Names()) {
    EXPECT_TRUE(covered.contains(name))
        << "engine '" << name
        << "' is registered but missing from the conformance suite";
  }
  // Every sharded composition must run at both 1 and 4 shards.
  for (const ConformanceParam& p : InstantiatedParams()) {
    if (p.name.rfind("sharded:", 0) != 0) continue;
    size_t variants = 0;
    for (const ConformanceParam& q : InstantiatedParams()) {
      if (q.name == p.name && (q.shards == 1 || q.shards == 4)) ++variants;
    }
    EXPECT_EQ(variants, 2u) << p.name;
  }
}

TEST(EngineRegistryTest, UnknownEngineThrowsWithKnownNames) {
  try {
    EngineRegistry::Create("nope", EngineConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("janus"), std::string::npos);
  }
}

TEST(EngineRegistryTest, RuntimeRegistrationWins) {
  EngineRegistry registry;
  registry.Register("custom", "test engine", [](const EngineConfig& c) {
    return EngineRegistry::Global().CreateEngine("rs", c);
  });
  EXPECT_TRUE(registry.Contains("custom"));
  auto engine = registry.CreateEngine("custom", BaseConfig());
  EXPECT_STREQ(engine->name(), "rs");
}

TEST(ArgMapTest, AcceptsAllFlagStyles) {
  const char* argv[] = {"prog",        "rows=100",  "--queries", "7",
                        "--beta=2.5",  "engine=srs", "pred=0,2",  "--verbose"};
  ArgMap args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.GetSize("rows", 0), 100u);
  EXPECT_EQ(args.GetSize("queries", 0), 7u);
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 0), 2.5);
  EXPECT_EQ(args.GetString("engine", ""), "srs");
  EXPECT_EQ(args.GetIntList("pred", {}), (std::vector<int>{0, 2}));
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetSize("missing", 42), 42u);
}

TEST(ArgMapTest, NegativeValuesAreNotFlags) {
  const char* argv[] = {"prog", "--beta", "-2.5", "--agg", "-1", "--flag"};
  ArgMap args(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 0), -2.5);
  EXPECT_EQ(args.GetInt("agg", 0), -1);
  EXPECT_TRUE(args.GetBool("flag", false));
}

TEST(ArgMapTest, BareFlagDoesNotSwallowKeyValueToken) {
  const char* argv[] = {"prog", "--verbose", "engine=rs"};
  ArgMap args(3, const_cast<char**>(argv));
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetString("engine", ""), "rs");
}

// Regression: strtoull-based getters wrapped "rows=-1" to 2^64-1 and read
// "10x" as 10 with the trailing garbage silently ignored. Strict parsing
// must fall back to the caller's default for all of these.
TEST(ArgMapTest, NegativeValueForUnsignedGetterFallsBackToDefault) {
  const char* argv[] = {"prog", "rows=-1", "every=-37"};
  ArgMap args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetSize("rows", 123), 123u);
  EXPECT_EQ(args.GetUint64("every", 7), 7u);
  // The signed getter still accepts negatives, of course.
  EXPECT_EQ(args.GetInt("rows", 0), -1);
}

TEST(ArgMapTest, NonNumericValueFallsBackToDefault) {
  const char* argv[] = {"prog", "rows=abc", "seed=xyz", "beta=nope"};
  ArgMap args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.GetSize("rows", 55), 55u);
  EXPECT_EQ(args.GetUint64("seed", 42), 42u);
  EXPECT_EQ(args.GetInt("rows", -3), -3);
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 1.5), 1.5);
}

TEST(ArgMapTest, TrailingGarbageFallsBackToDefault) {
  const char* argv[] = {"prog", "rows=10x", "leaves=64k", "beta=2.5oops"};
  ArgMap args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.GetSize("rows", 9), 9u);
  EXPECT_EQ(args.GetInt("leaves", 128), 128);
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 0.25), 0.25);
}

TEST(ArgMapTest, OverflowFallsBackToDefault) {
  const char* argv[] = {"prog",
                        "seed=99999999999999999999999999",  // > 2^64
                        "leaves=99999999999"};              // > INT_MAX
  ArgMap args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetUint64("seed", 42), 42u);
  EXPECT_EQ(args.GetSize("seed", 17), 17u);
  EXPECT_EQ(args.GetInt("leaves", 128), 128);
}

TEST(ArgMapTest, StrictParsingStillAcceptsValidExtremes) {
  const char* argv[] = {"prog", "seed=18446744073709551615",  // 2^64-1
                        "leaves=-2147483648", "beta=1e-3", "rows=0"};
  ArgMap args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetUint64("seed", 0), 18446744073709551615ull);
  EXPECT_EQ(args.GetInt("leaves", 0), -2147483648);
  EXPECT_DOUBLE_EQ(args.GetDouble("beta", 0), 1e-3);
  EXPECT_EQ(args.GetSize("rows", 5), 0u);
}

TEST(EngineConfigTest, ToStringRoundTripsEveryKnob) {
  EngineConfig cfg;
  cfg.engine = "srs";
  cfg.beta = 4.0;
  cfg.partial_repartition_psi = 2;
  cfg.confidence = 0.99;
  cfg.num_strata = 17;
  cfg.train_fraction = 0.2;
  cfg.num_shards = 6;
  cfg.enable_triggers = false;
  cfg.reopt_mode = "background";
  cfg.reopt_delta_tail = 99;
  // Feed the canonical rendering back through the parser: every knob must
  // survive the round trip.
  const std::string line = cfg.ToString();
  std::vector<std::string> tokens{"prog"};
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  std::vector<char*> argv;
  for (auto& t : tokens) argv.push_back(t.data());
  const EngineConfig back = EngineConfig::FromArgs(
      ArgMap(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(back.engine, cfg.engine);
  EXPECT_DOUBLE_EQ(back.beta, cfg.beta);
  EXPECT_EQ(back.partial_repartition_psi, cfg.partial_repartition_psi);
  EXPECT_DOUBLE_EQ(back.confidence, cfg.confidence);
  EXPECT_EQ(back.num_strata, cfg.num_strata);
  EXPECT_DOUBLE_EQ(back.train_fraction, cfg.train_fraction);
  EXPECT_EQ(back.num_shards, cfg.num_shards);
  EXPECT_EQ(back.enable_triggers, cfg.enable_triggers);
  EXPECT_EQ(back.trigger_check_interval, cfg.trigger_check_interval);
  EXPECT_DOUBLE_EQ(back.starvation_factor, cfg.starvation_factor);
  EXPECT_EQ(back.reopt_mode, cfg.reopt_mode);
  EXPECT_EQ(back.reopt_delta_tail, cfg.reopt_delta_tail);
}

TEST(EngineConfigTest, FromArgsParsesEveryKnob) {
  const char* argv[] = {"prog",           "engine=spt",  "agg=3",
                        "pred=1,2",       "leaves=64",   "alpha=0.05",
                        "catchup=0.2",    "algorithm=dp", "triggers=off",
                        "seed=9"};
  ArgMap args(10, const_cast<char**>(argv));
  const EngineConfig cfg = EngineConfig::FromArgs(args);
  EXPECT_EQ(cfg.engine, "spt");
  EXPECT_EQ(cfg.agg_column, 3);
  EXPECT_EQ(cfg.predicate_columns, (std::vector<int>{1, 2}));
  EXPECT_EQ(cfg.num_leaves, 64);
  EXPECT_DOUBLE_EQ(cfg.sample_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.catchup_rate, 0.2);
  EXPECT_EQ(cfg.algorithm, PartitionAlgorithm::kDynamicProgram);
  EXPECT_FALSE(cfg.enable_triggers);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_NE(cfg.ToString().find("engine=spt"), std::string::npos);
}

TEST(EngineConfigTest, DpOnAMultiColumnTemplateIsRejected) {
  // The DP partitioner splits one column; on a two-column template its tree
  // would ignore the second column's bounds and answer wrongly.
  auto expect_rejected = [](const std::function<void()>& fn,
                            const std::string& label) {
    try {
      fn();
      ADD_FAILURE() << label << " accepted algorithm=dp on two columns";
    } catch (const ApiException& e) {
      EXPECT_EQ(e.code(), ApiErrorCode::kInvalidArgument) << label;
      EXPECT_NE(std::string(e.what()).find("dp"), std::string::npos)
          << e.what();
    }
  };
  for (const char* engine : {"janus", "multi", "spt", "sharded:janus"}) {
    EngineConfig cfg = BaseConfig();
    cfg.engine = engine;
    cfg.predicate_columns = {0, 1};
    cfg.algorithm = PartitionAlgorithm::kDynamicProgram;
    expect_rejected([&] { (void)EngineRegistry::Create(cfg); }, engine);
  }

  // multi discovers a two-column template at query time: the query fails
  // with the same typed error, and the engine keeps serving its template.
  EngineConfig cfg = BaseConfig();
  cfg.engine = "multi";
  cfg.algorithm = PartitionAlgorithm::kDynamicProgram;
  auto engine = EngineRegistry::Create(cfg);
  auto ds = GenerateUniform(4000, 2, TestSeed() + 7);
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  AggQuery wide;
  wide.func = AggFunc::kSum;
  wide.agg_column = cfg.agg_column;
  wide.predicate_columns = {0, 1};
  wide.rect = Rectangle({0.0, 0.0}, {0.5, 0.5});
  const QueryResult r = engine->Query(wide);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code,
            static_cast<uint32_t>(ApiErrorCode::kInvalidArgument));
  for (const QueryResult& b : engine->QueryBatch({wide}, nullptr)) {
    EXPECT_FALSE(b.ok);
  }
  AggQuery narrow = wide;
  narrow.predicate_columns = cfg.predicate_columns;
  narrow.rect = Rectangle({0.0}, {0.5});
  EXPECT_TRUE(engine->Query(narrow).ok);
  EXPECT_EQ(engine->Stats().num_templates, 1u);
}

/// FromArgs on one `key=value` flag must throw kInvalidArgument naming both.
void ExpectRejectedValue(const char* key, const char* value) {
  const std::string flag = std::string(key) + "=" + value;
  const char* argv[] = {"prog", flag.c_str()};
  ArgMap args(2, const_cast<char**>(argv));
  try {
    (void)EngineConfig::FromArgs(args);
    ADD_FAILURE() << flag << " was accepted";
  } catch (const ApiException& e) {
    EXPECT_EQ(e.code(), ApiErrorCode::kInvalidArgument) << flag;
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
        << e.what();
  }
}

TEST(EngineConfigTest, FromArgsRejectsUnknownFocus) {
  ExpectRejectedValue("focus", "summ");
}

TEST(EngineConfigTest, FromArgsRejectsUnknownAlgorithm) {
  ExpectRejectedValue("algorithm", "dpp");
}

TEST(EngineConfigTest, FromArgsRejectsUnknownReoptMode) {
  ExpectRejectedValue("reopt_mode", "backgroud");
}

TEST(EngineConfigTest, EngineRejectsUnknownReoptModeSetInCode) {
  for (const char* engine : {"janus", "multi", "sharded:janus"}) {
    EngineConfig cfg;
    cfg.engine = engine;
    cfg.reopt_mode = "backgroud";
    try {
      (void)EngineRegistry::Create(cfg);
      ADD_FAILURE() << engine << " accepted reopt_mode=backgroud";
    } catch (const ApiException& e) {
      EXPECT_EQ(e.code(), ApiErrorCode::kInvalidArgument) << engine;
      EXPECT_NE(std::string(e.what()).find("backgroud"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EngineDriverTest, ConsumesAllThreeTopics) {
  auto ds = GenerateUniform(10000, 1, TestSeed() + 91);
  auto engine = EngineRegistry::Create("janus", BaseConfig());
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  Broker broker;
  Rng rng(TestSeed() + 15);
  std::vector<Tuple> fresh;
  for (int i = 0; i < 3000; ++i) {
    Tuple t;
    t.id = 800000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    fresh.push_back(t);
  }
  broker.insert_topic()->AppendBatch(fresh);
  // Deletions address ids only; the delete stream carries bare tuples.
  std::vector<Tuple> dels;
  for (uint64_t id = 0; id < 500; ++id) {
    Tuple t;
    t.id = id;
    dels.push_back(t);
  }
  broker.delete_topic()->AppendBatch(dels);
  broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  broker.query_topic()->Append(MakeQuery(AggFunc::kSum, 0.2, 0.8));

  EngineDriver driver(engine.get(), &broker);
  const size_t consumed = driver.Drain();
  EXPECT_EQ(consumed, 3000u + 500u + 2u);
  EXPECT_EQ(driver.stats().inserts, 3000u);
  EXPECT_EQ(driver.stats().deletes, 500u);
  EXPECT_EQ(driver.stats().queries, 2u);
  ASSERT_EQ(driver.pending_results(), 2u);
  const std::vector<QueryResult> answers = driver.TakeResults();

  // The engine saw every record: 10000 + 3000 - 500 live tuples.
  EXPECT_EQ(engine->table()->size(), 12500u);
  EXPECT_NEAR(answers[0].estimate, 12500.0, 12500.0 * 0.15);

  // A second Drain with nothing new is a no-op.
  EXPECT_EQ(driver.Drain(), 0u);
}

// Regression: results_ grew with every polled query forever; TakeResults()
// is the drain API long-running consumers use to bound it.
TEST(EngineDriverTest, TakeResultsDrainsBuffer) {
  auto ds = GenerateUniform(5000, 1, TestSeed() + 92);
  auto engine = EngineRegistry::Create("janus", BaseConfig());
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  Broker broker;
  broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  broker.query_topic()->Append(MakeQuery(AggFunc::kSum, 0.2, 0.8));
  EngineDriver driver(engine.get(), &broker);
  driver.Drain();
  ASSERT_EQ(driver.pending_results(), 2u);

  const std::vector<QueryResult> taken = driver.TakeResults();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(driver.pending_results(), 0u);
  // Offsets and stats are untouched by the drain.
  EXPECT_EQ(driver.query_offset(), 2u);
  EXPECT_EQ(driver.stats().queries, 2u);

  // Later queries land in the (now empty) buffer, in topic order.
  broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 0.5));
  driver.Drain();
  ASSERT_EQ(driver.pending_results(), 1u);
  EXPECT_EQ(driver.query_offset(), 3u);
}

TEST(EngineDriverTest, DrainThenSnapshotRoundTrips) {
  auto ds = GenerateUniform(5000, 1, TestSeed() + 93);
  auto engine = EngineRegistry::Create("janus", BaseConfig());
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  Broker broker;
  broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  broker.query_topic()->Append(MakeQuery(AggFunc::kSum, 0.1, 0.9));
  EngineDriver driver(engine.get(), &broker);
  driver.Drain();
  (void)driver.TakeResults();

  // A snapshot taken after the drain records the same offsets it would have
  // with the results still buffered (results are derived data).
  const std::string path =
      ::testing::TempDir() + "/drain_snapshot_roundtrip.snap";
  driver.SaveSnapshot(path);

  auto engine2 = EngineRegistry::Create("janus", BaseConfig());
  EngineDriver driver2(engine2.get(), &broker);
  driver2.LoadSnapshot(path);
  EXPECT_EQ(driver2.query_offset(), driver.query_offset());
  EXPECT_EQ(driver2.insert_offset(), driver.insert_offset());
  EXPECT_EQ(driver2.delete_offset(), driver.delete_offset());

  // The recovered driver answers only queries past the snapshot cut.
  broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 0.5));
  driver2.Drain();
  EXPECT_EQ(driver2.pending_results(), 1u);
  std::remove(path.c_str());
}

TEST(EngineDriverTest, WorksAgainstEveryEngine) {
  // The streaming scenario is engine-agnostic: replay the same topics into
  // each registered backend, sharded compositions included (the driver is
  // routed through them unchanged).
  for (const std::string& name : EngineRegistry::Global().Names()) {
    auto ds = GenerateUniform(5000, 1, TestSeed() + 17);
    EngineConfig cfg = BaseConfig();
    cfg.num_shards = 2;
    auto engine = EngineRegistry::Create(name, cfg);
    engine->LoadInitial(ds.rows);
    engine->Initialize();

    Broker broker;
    Rng rng(TestSeed() + 19);
    for (int i = 0; i < 500; ++i) {
      Tuple t;
      t.id = 900000 + static_cast<uint64_t>(i);
      t[0] = rng.NextDouble();
      t[1] = rng.Normal(10, 2);
      broker.insert_topic()->Append(t);
    }
    broker.query_topic()->Append(MakeQuery(AggFunc::kCount, 0.0, 1.0));

    EngineDriver driver(engine.get(), &broker);
    driver.Drain();
    EXPECT_EQ(driver.stats().inserts, 500u) << name;
    ASSERT_EQ(driver.pending_results(), 1u) << name;
    EXPECT_EQ(LiveRows(*engine), 5500u) << name;
  }
}

}  // namespace
}  // namespace janus
