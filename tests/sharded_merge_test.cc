// Property tests for the sharded engine's variance-correct merge: against a
// deterministic exact backend, the merged estimate/variance must equal the
// hand-pooled per-shard estimators to 1e-9 for every aggregate type, and on
// a real backend (janus) CI coverage over a large randomized workload must
// stay within tolerance of the unsharded engine. Recorded digests pin every
// bit of sharded:janus answers, single queries and batches alike, and the
// answers after batched inserts.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/registry.h"
#include "api/sharded.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workload.h"
#include "persist/serde.h"
#include "tests/test_digest.h"
#include "util/rng.h"

namespace janus {
namespace {

/// Deterministic stand-in backend: exact aggregates over its rows plus a
/// synthetic-but-deterministic "variance" derived from the matching moments,
/// so the pooling algebra is checkable to machine precision. The nu_c/nu_s
/// split and the ci = 2*sqrt(nu_c + nu_s) shape mirror the real estimators.
class MockExactEngine : public AqpEngine {
 public:
  explicit MockExactEngine(const EngineConfig&) {}

  const char* name() const override { return "mock"; }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    rows_.insert(rows_.end(), rows.begin(), rows.end());
  }
  void InitializeImpl() override {}
  void InsertImpl(const Tuple& t) override { rows_.push_back(t); }
  bool DeleteImpl(uint64_t id) override {
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].id == id) {
        rows_[i] = rows_.back();
        rows_.pop_back();
        return true;
      }
    }
    return false;
  }

  QueryResult QueryImpl(const AggQuery& q) const override {
    QueryResult r;
    double count = 0, sum = 0, sumsq = 0;
    double mn = 0, mx = 0;
    std::vector<double> point(q.predicate_columns.size());
    for (const Tuple& t : rows_) {
      ProjectTuple(t, q.predicate_columns, point.data());
      if (!q.rect.Contains(point.data())) continue;
      const double v = t[q.agg_column];
      if (count == 0) {
        mn = mx = v;
      } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      count += 1;
      sum += v;
      sumsq += v * v;
    }
    switch (q.func) {
      case AggFunc::kSum:
        r.estimate = sum;
        break;
      case AggFunc::kCount:
        r.estimate = count;
        break;
      case AggFunc::kAvg:
        r.estimate = count > 0 ? sum / count : 0;
        break;
      case AggFunc::kMin:
        r.estimate = mn;
        break;
      case AggFunc::kMax:
        r.estimate = mx;
        break;
    }
    r.variance_catchup = 0.25 * count;
    r.variance_sample = sumsq / (count + 1.0);
    r.ci_half_width =
        2.0 * std::sqrt(r.variance_catchup + r.variance_sample);
    r.covered_nodes = 1;
    r.partial_leaves = static_cast<size_t>(count) % 3;
    r.exact = true;
    return r;
  }

  EngineStats StatsImpl() const override {
    EngineStats s;
    s.engine = name();
    s.rows = rows_.size();
    return s;
  }

 private:
  std::vector<Tuple> rows_;
};

void RegisterMockOnce() {
  static const bool done = [] {
    EngineRegistry::Global().Register(
        "mock", "deterministic exact backend (tests only)",
        [](const EngineConfig& c) {
          return std::make_unique<MockExactEngine>(c);
        });
    return true;
  }();
  (void)done;
}

/// Synthetic strata with known moments: 4 blocks of col0 with different
/// means/spreads of col1, so predicates hit heterogeneous regions.
std::vector<Tuple> StratifiedRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    t.id = i;
    const int stratum = static_cast<int>(i % 4);
    t[0] = 0.25 * stratum + 0.25 * rng.NextDouble();
    t[1] = rng.Normal(5.0 * (stratum + 1), 0.5 * (stratum + 1));
    rows.push_back(t);
  }
  return rows;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

/// Hand-pool per-shard mock results with the documented stratified algebra.
QueryResult HandPooled(
    const std::vector<std::unique_ptr<MockExactEngine>>& shards,
    const AggQuery& q) {
  std::vector<QueryResult> parts;
  std::vector<double> counts;
  AggQuery cq = q;
  cq.func = AggFunc::kCount;
  for (const auto& s : shards) {
    parts.push_back(s->Query(q));
    counts.push_back(s->Query(cq).estimate);
  }
  QueryResult pooled;
  switch (q.func) {
    case AggFunc::kSum:
    case AggFunc::kCount: {
      double ci_sq = 0;
      for (const QueryResult& r : parts) {
        pooled.estimate += r.estimate;
        pooled.variance_catchup += r.variance_catchup;
        pooled.variance_sample += r.variance_sample;
        ci_sq += r.ci_half_width * r.ci_half_width;
      }
      pooled.ci_half_width = std::sqrt(ci_sq);
      break;
    }
    case AggFunc::kAvg: {
      double total = 0;
      for (double c : counts) total += c;
      if (total <= 0) break;
      double ci_sq = 0;
      for (size_t i = 0; i < parts.size(); ++i) {
        if (counts[i] <= 0) continue;
        const double w = counts[i] / total;
        pooled.estimate += w * parts[i].estimate;
        pooled.variance_catchup += w * w * parts[i].variance_catchup;
        pooled.variance_sample += w * w * parts[i].variance_sample;
        ci_sq += w * w * parts[i].ci_half_width * parts[i].ci_half_width;
      }
      pooled.ci_half_width = std::sqrt(ci_sq);
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      bool any = false;
      for (size_t i = 0; i < parts.size(); ++i) {
        if (counts[i] <= 0) continue;
        if (!any) {
          pooled.estimate = parts[i].estimate;
        } else if (q.func == AggFunc::kMin) {
          pooled.estimate = std::min(pooled.estimate, parts[i].estimate);
        } else {
          pooled.estimate = std::max(pooled.estimate, parts[i].estimate);
        }
        pooled.ci_half_width =
            std::max(pooled.ci_half_width, parts[i].ci_half_width);
        any = true;
      }
      break;
    }
  }
  return pooled;
}

TEST(ShardedMergeTest, MergedEstimatorEqualsPooledEstimator) {
  RegisterMockOnce();
  const auto rows = StratifiedRows(6000, 11);

  for (const int num_shards : {1, 3, 4, 8}) {
    EngineConfig cfg;
    cfg.num_shards = num_shards;
    ShardedEngine sharded("mock", cfg);
    ASSERT_EQ(sharded.num_shards(), static_cast<size_t>(num_shards));
    sharded.LoadInitial(rows);
    sharded.Initialize();

    // The reference pooling: identical hash partition, one mock per shard.
    // Engines carry their synchronization state (room lock), so the
    // reference shards are heap-held rather than copied into the vector.
    std::vector<std::unique_ptr<MockExactEngine>> manual;
    for (int i = 0; i < num_shards; ++i) {
      manual.push_back(std::make_unique<MockExactEngine>(cfg));
    }
    for (const Tuple& t : rows) {
      manual[ShardIndexForId(t.id, manual.size())]->Insert(t);
    }

    Rng rng(23);
    for (int trial = 0; trial < 40; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                        AggFunc::kMin, AggFunc::kMax}) {
        const AggQuery q = MakeQuery(f, a, b);
        const QueryResult got = sharded.Query(q);
        // A single shard is served verbatim (identity merge); pooling only
        // kicks in across two or more shards.
        const QueryResult want =
            num_shards == 1 ? manual[0]->Query(q) : HandPooled(manual, q);
        EXPECT_NEAR(got.estimate, want.estimate, 1e-9)
            << AggFuncName(f) << " shards=" << num_shards;
        EXPECT_NEAR(got.variance_catchup, want.variance_catchup, 1e-9)
            << AggFuncName(f) << " shards=" << num_shards;
        EXPECT_NEAR(got.variance_sample, want.variance_sample, 1e-9)
            << AggFuncName(f) << " shards=" << num_shards;
        EXPECT_NEAR(got.ci_half_width, want.ci_half_width, 1e-9)
            << AggFuncName(f) << " shards=" << num_shards;
      }
    }
  }
}

TEST(ShardedMergeTest, MergeSurvivesInsertsAndDeletes) {
  RegisterMockOnce();
  const auto rows = StratifiedRows(3000, 31);
  EngineConfig cfg;
  cfg.num_shards = 4;
  ShardedEngine sharded("mock", cfg);
  sharded.LoadInitial(rows);
  sharded.Initialize();
  std::vector<std::unique_ptr<MockExactEngine>> manual;
  for (int i = 0; i < 4; ++i) {
    manual.push_back(std::make_unique<MockExactEngine>(cfg));
  }
  for (const Tuple& t : rows) {
    manual[ShardIndexForId(t.id, 4)]->Insert(t);
  }

  // Stream async inserts and synchronous deletes through the sharded
  // facade; mirror them into the manual shards.
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.id = 100000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(8, 3);
    sharded.Insert(t);
    manual[ShardIndexForId(t.id, 4)]->Insert(t);
  }
  for (uint64_t id = 0; id < 1500; id += 3) {
    EXPECT_TRUE(sharded.Delete(id));
    EXPECT_TRUE(manual[ShardIndexForId(id, 4)]->Delete(id));
  }
  EXPECT_FALSE(sharded.Delete(999999999));

  // Query() quiesces every shard, so all async inserts are visible.
  for (AggFunc f :
       {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg, AggFunc::kMin}) {
    const AggQuery q = MakeQuery(f, 0.1, 0.9);
    const QueryResult got = sharded.Query(q);
    const QueryResult want = HandPooled(manual, q);
    EXPECT_NEAR(got.estimate, want.estimate, 1e-9) << AggFuncName(f);
    EXPECT_NEAR(got.ci_half_width, want.ci_half_width, 1e-9)
        << AggFuncName(f);
  }
}

TEST(ShardedMergeTest, MergeShardResultsAlgebra) {
  // Direct unit check of the pooling algebra on hand-written parts.
  QueryResult a, b;
  a.estimate = 10;
  a.variance_catchup = 1;
  a.variance_sample = 3;
  a.ci_half_width = 4;
  a.exact = true;
  b.estimate = 32;
  b.variance_catchup = 2;
  b.variance_sample = 6;
  b.ci_half_width = 3;
  b.exact = true;

  const QueryResult sum = MergeShardResults(AggFunc::kSum, {a, b}, {});
  EXPECT_DOUBLE_EQ(sum.estimate, 42);
  EXPECT_DOUBLE_EQ(sum.variance_catchup, 3);
  EXPECT_DOUBLE_EQ(sum.variance_sample, 9);
  EXPECT_DOUBLE_EQ(sum.ci_half_width, 5);  // sqrt(16 + 9)
  EXPECT_TRUE(sum.exact);

  // AVG: count-weighted mean, variances scaled by w^2.
  const QueryResult avg =
      MergeShardResults(AggFunc::kAvg, {a, b}, {30, 10});
  EXPECT_DOUBLE_EQ(avg.estimate, 0.75 * 10 + 0.25 * 32);
  EXPECT_DOUBLE_EQ(avg.variance_catchup, 0.5625 * 1 + 0.0625 * 2);
  EXPECT_DOUBLE_EQ(avg.variance_sample, 0.5625 * 3 + 0.0625 * 6);
  EXPECT_DOUBLE_EQ(avg.ci_half_width,
                   std::sqrt(0.5625 * 16 + 0.0625 * 9));

  // MIN skips shards whose count estimate is zero.
  const QueryResult mn = MergeShardResults(AggFunc::kMin, {a, b}, {0, 5});
  EXPECT_DOUBLE_EQ(mn.estimate, 32);
  EXPECT_DOUBLE_EQ(mn.ci_half_width, 3);

  // A non-exact shard poisons exactness.
  b.exact = false;
  const QueryResult mixed = MergeShardResults(AggFunc::kSum, {a, b}, {});
  EXPECT_FALSE(mixed.exact);

  // Empty input merges to the zero result.
  const QueryResult empty = MergeShardResults(AggFunc::kSum, {}, {});
  EXPECT_DOUBLE_EQ(empty.estimate, 0);
}

/// CI coverage of an engine over a workload: fraction of queries whose
/// truth lies inside [estimate - ci, estimate + ci].
double Coverage(const AqpEngine& engine,
                const std::vector<AggQuery>& queries,
                const std::vector<std::optional<double>>& truths) {
  size_t with_truth = 0, covered = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!truths[i].has_value()) continue;
    const QueryResult r = engine.Query(queries[i]);
    ++with_truth;
    if (std::abs(r.estimate - *truths[i]) <= r.ci_half_width) ++covered;
  }
  return with_truth > 0
             ? static_cast<double>(covered) / static_cast<double>(with_truth)
             : 0.0;
}

TEST(ShardedMergeTest, CiCoverageTracksUnshardedEngine) {
  // 1000 randomized SUM queries: the sharded engine's pooled CIs must cover
  // the truth about as often as the unsharded engine's (both nominally 95%).
  auto ds = GenerateUniform(20000, 1, 101);
  WorkloadGenerator gen(ds.rows, {0}, 1);
  WorkloadOptions wo;
  wo.num_queries = 1000;
  wo.func = AggFunc::kSum;
  wo.min_count = 100;
  wo.seed = 7;
  const auto queries = gen.Generate(ds.rows, wo);
  const auto truths = ExactAnswers(ds.rows, queries);

  EngineConfig cfg;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 32;
  cfg.sample_rate = 0.02;
  cfg.enable_triggers = false;
  cfg.num_shards = 4;

  auto plain = EngineRegistry::Create("janus", cfg);
  plain->LoadInitial(ds.rows);
  plain->Initialize();
  plain->RunCatchupToGoal();

  auto sharded = EngineRegistry::Create("sharded:janus", cfg);
  sharded->LoadInitial(ds.rows);
  sharded->Initialize();
  sharded->RunCatchupToGoal();

  const double cov_plain = Coverage(*plain, queries, truths);
  const double cov_sharded = Coverage(*sharded, queries, truths);

  // Both track the nominal level loosely; more importantly, sharding must
  // not degrade coverage beyond sampling noise.
  EXPECT_GE(cov_plain, 0.60);
  EXPECT_GE(cov_sharded, 0.60);
  EXPECT_NEAR(cov_sharded, cov_plain, 0.10)
      << "sharded=" << cov_sharded << " plain=" << cov_plain;
}

/// Every field of `r` that a digest pins.
void RecordAnswer(const QueryResult& r, persist::Writer* w) {
  w->Bool(r.ok);
  w->F64(r.estimate);
  w->F64(r.ci_half_width);
  w->F64(r.variance_catchup);
  w->F64(r.variance_sample);
  w->U64(r.covered_nodes);
  w->U64(r.partial_leaves);
  w->Bool(r.exact);
}

TEST(ShardedMergeTest, ShardedJanusAnswersMatchRecordedDigest) {
  // Four janus shards over a sliding window (inserts at the head, deletes
  // at the tail, so the triggers fire), queried between the slides through
  // Query, a batch of one and a batch of many. Every field of every answer
  // hashes to a digest recorded from an earlier build.
  constexpr uint64_t kRows = 8000;
  constexpr uint64_t kSlide = 1500;
  Rng rng(67);
  const auto window_row = [&rng](uint64_t id) {
    Tuple t;
    t.id = id;
    t[0] = static_cast<double>(id) / kRows;
    t[1] = rng.Normal(10, 3);
    return t;
  };
  std::vector<Tuple> rows;
  rows.reserve(kRows);
  for (uint64_t id = 0; id < kRows; ++id) rows.push_back(window_row(id));
  EngineConfig cfg;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 16;
  cfg.num_shards = 4;
  cfg.seed = 19;
  auto engine = EngineRegistry::Create("sharded:janus", cfg);
  engine->LoadInitial(rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  persist::Writer answers;
  const auto record = [&answers](const QueryResult& r) {
    RecordAnswer(r, &answers);
  };
  uint64_t oldest = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<AggQuery> batch;
    for (int k = 0; k < 4; ++k) {
      const double lo = (oldest + rng.Uniform(0, 0.8) * kRows) / kRows;
      const double hi = lo + rng.Uniform(0.01, 0.2);
      for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                        AggFunc::kMin, AggFunc::kMax}) {
        const AggQuery q = MakeQuery(f, lo, hi);
        record(engine->Query(q));
        batch.push_back(q);
      }
    }
    for (const QueryResult& r : engine->QueryBatch({batch.back()})) record(r);
    for (const QueryResult& r : engine->QueryBatch(batch)) record(r);
    for (uint64_t i = 0; i < kSlide; ++i) {
      engine->Insert(window_row(oldest + kRows));
      ASSERT_TRUE(engine->Delete(oldest++));
    }
  }
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.rows, kRows);
  EXPECT_GT(stats.repartitions, 0u);
  answers.U64(stats.trigger_checks);
  answers.U64(stats.trigger_fires);
  answers.U64(stats.repartitions);
  EXPECT_EQ(DigestHex(answers), "0x3cc62cb544d8fe23");
}

TEST(ShardedMergeTest, InsertBatchFramesMatchRecordedDigest) {
  // Four janus shards take 256-row InsertBatch frames at the head of a
  // sliding window, with the tail's deletes between frames, so the triggers
  // fire. Every field of every answer (all five aggregates) hashes to a
  // digest recorded with one Insert call per row: a batch hands each shard
  // the row sequence that per-row inserts give it.
  constexpr uint64_t kRows = 8000;
  constexpr size_t kFrameRows = 256;
  Rng rng(71);
  const auto window_row = [&rng](uint64_t id) {
    Tuple t;
    t.id = id;
    t[0] = static_cast<double>(id) / kRows;
    t[1] = rng.Normal(10, 3);
    return t;
  };
  std::vector<Tuple> rows;
  rows.reserve(kRows);
  for (uint64_t id = 0; id < kRows; ++id) rows.push_back(window_row(id));
  EngineConfig cfg;
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 16;
  cfg.num_shards = 4;
  cfg.seed = 23;
  auto engine = EngineRegistry::Create("sharded:janus", cfg);
  engine->LoadInitial(rows);
  engine->Initialize();
  engine->RunCatchupToGoal();

  persist::Writer answers;
  uint64_t oldest = 0;
  uint64_t head = kRows;
  std::vector<Tuple> frame;
  for (int round = 0; round < 32; ++round) {
    frame.clear();
    for (size_t i = 0; i < kFrameRows; ++i) frame.push_back(window_row(head++));
    engine->InsertBatch(frame);
    for (size_t i = 0; i < kFrameRows / 2; ++i) {
      ASSERT_TRUE(engine->Delete(oldest++));
    }
    if (round % 4 != 3) continue;
    for (int k = 0; k < 3; ++k) {
      const double lo = (oldest + rng.Uniform(0, 0.8) * kRows) / kRows;
      const double hi = lo + rng.Uniform(0.01, 0.2);
      for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                        AggFunc::kMin, AggFunc::kMax}) {
        RecordAnswer(engine->Query(MakeQuery(f, lo, hi)), &answers);
      }
    }
  }
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.rows, kRows + 32 * kFrameRows / 2);
  EXPECT_GT(stats.repartitions, 0u);
  answers.U64(stats.trigger_checks);
  answers.U64(stats.trigger_fires);
  answers.U64(stats.repartitions);
  EXPECT_EQ(DigestHex(answers), "0x93c5cdca2f7460c7");
}

}  // namespace
}  // namespace janus
