// Failure-injection and degenerate-input tests: tiny tables, constant and
// negative aggregation values, duplicate keys, queries outside the data
// domain, and full churn cycles (everything deleted, then re-grown).

#include <cmath>

#include <gtest/gtest.h>

#include "core/janus.h"
#include "data/generators.h"
#include "data/ground_truth.h"

namespace janus {
namespace {

JanusOptions SmallOptions() {
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 16;
  o.sample_rate = 0.05;
  o.catchup_rate = 0.20;
  o.enable_triggers = false;
  return o;
}

Tuple MakeTuple(uint64_t id, double key, double value) {
  Tuple t;
  t.id = id;
  t[0] = key;
  t[1] = value;
  return t;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

TEST(EdgeCaseTest, TinyTableInitializes) {
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  for (uint64_t i = 0; i < 5; ++i) rows.push_back(MakeTuple(i, i * 0.1, 1.0));
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const QueryResult r = system.Query(MakeQuery(AggFunc::kCount, -1.0, 1.0));
  EXPECT_NEAR(r.estimate, 5.0, 2.0);
}

TEST(EdgeCaseTest, SingleRowTable) {
  JanusAqp system(SmallOptions());
  system.LoadInitial({MakeTuple(0, 0.5, 7.0)});
  system.Initialize();
  system.RunCatchupToGoal();
  const QueryResult r = system.Query(MakeQuery(AggFunc::kSum, 0.0, 1.0));
  EXPECT_NEAR(r.estimate, 7.0, 1e-6);
}

TEST(EdgeCaseTest, ConstantAggregationValues) {
  // Zero variance everywhere: every estimate should be near-exact and every
  // CI tiny.
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  Rng rng(1);
  for (uint64_t i = 0; i < 5000; ++i) {
    rows.push_back(MakeTuple(i, rng.NextDouble(), 3.0));
  }
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kAvg, 0.2, 0.8);
  const QueryResult r = system.Query(q);
  EXPECT_NEAR(r.estimate, 3.0, 1e-9);
}

TEST(EdgeCaseTest, NegativeAggregationValues) {
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  Rng rng(2);
  for (uint64_t i = 0; i < 10000; ++i) {
    rows.push_back(MakeTuple(i, rng.NextDouble(), rng.Normal(-50, 5)));
  }
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.1, 0.9);
  const auto truth = ExactAnswer(system.table().store(), q);
  const QueryResult r = system.Query(q);
  ASSERT_LT(*truth, 0);
  EXPECT_LT(std::abs(r.estimate - *truth) / std::abs(*truth), 0.05);
}

TEST(EdgeCaseTest, AllKeysIdentical) {
  // Degenerate predicate domain: one point carries everything.
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  Rng rng(3);
  for (uint64_t i = 0; i < 2000; ++i) {
    rows.push_back(MakeTuple(i, 42.0, rng.Normal(10, 2)));
  }
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const auto truth =
      ExactAnswer(system.table().store(), MakeQuery(AggFunc::kSum, 42.0, 42.0));
  const QueryResult hit = system.Query(MakeQuery(AggFunc::kSum, 40.0, 44.0));
  const QueryResult miss = system.Query(MakeQuery(AggFunc::kSum, 0.0, 41.0));
  EXPECT_NEAR(hit.estimate, *truth, std::abs(*truth) * 0.05);
  EXPECT_NEAR(miss.estimate, 0.0, std::abs(*truth) * 0.01);
}

TEST(EdgeCaseTest, QueryOutsideDomainIsZero) {
  auto ds = GenerateUniform(5000, 1, 4);
  JanusAqp system(SmallOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount}) {
    const QueryResult r = system.Query(MakeQuery(f, 100.0, 200.0));
    EXPECT_DOUBLE_EQ(r.estimate, 0.0) << AggFuncName(f);
  }
}

TEST(EdgeCaseTest, DeleteEverythingThenRegrow) {
  auto ds = GenerateUniform(3000, 1, 5);
  JanusAqp system(SmallOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  // Drain the table completely except one tuple (reservoir invariants and
  // resamples must survive).
  for (uint64_t id = 0; id + 1 < 3000; ++id) {
    ASSERT_TRUE(system.Delete(id));
  }
  EXPECT_EQ(system.table().size(), 1u);
  const QueryResult empty = system.Query(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  EXPECT_LT(empty.estimate, 50.0);
  // Regrow.
  Rng rng(6);
  for (uint64_t i = 0; i < 4000; ++i) {
    Tuple t = MakeTuple(100000 + i, rng.NextDouble(), rng.Normal(10, 2));
    system.Insert(t);
  }
  const QueryResult after = system.Query(MakeQuery(AggFunc::kCount, 0.0, 1.0));
  EXPECT_NEAR(after.estimate, 4001.0, 4001.0 * 0.1);
}

TEST(EdgeCaseTest, ZeroInflatedAggregates) {
  // Intel-light-style data: mostly zeros with bursts. The error-ladder
  // bounds of Lemma D.2 handle zero values explicitly.
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  Rng rng(7);
  for (uint64_t i = 0; i < 20000; ++i) {
    const double v = rng.Bernoulli(0.8) ? 0.0 : rng.LogNormal(3, 1);
    rows.push_back(MakeTuple(i, rng.NextDouble(), v));
  }
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.1, 0.7);
  const auto truth = ExactAnswer(system.table().store(), q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / std::abs(*truth), 0.15);
}

TEST(EdgeCaseTest, RepeatedReinitializeIsStable) {
  auto ds = GenerateUniform(8000, 1, 8);
  JanusAqp system(SmallOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  for (int i = 0; i < 5; ++i) {
    system.Reinitialize();
    system.RunCatchupToGoal();
    const AggQuery q = MakeQuery(AggFunc::kSum, 0.2, 0.8);
    const auto truth = ExactAnswer(system.table().store(), q);
    const QueryResult r = system.Query(q);
    ASSERT_LT(std::abs(r.estimate - *truth) / std::abs(*truth), 0.08)
        << "round " << i;
  }
  EXPECT_EQ(system.counters().repartitions, 5u);
}

TEST(EdgeCaseTest, PointQueryRectangle) {
  // Degenerate rectangle lo == hi: legal, selects a measure-zero slice.
  auto ds = GenerateUniform(5000, 1, 9);
  JanusAqp system(SmallOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const double key = ds.rows[100][0];
  const AggQuery q = MakeQuery(AggFunc::kCount, key, key);
  const QueryResult r = system.Query(q);
  EXPECT_GE(r.estimate, 0.0);
  EXPECT_LT(r.estimate, 100.0);
}

TEST(EdgeCaseTest, SecondTemplateIsBuiltAfterInitialize) {
  auto ds = GenerateUniform(5000, 2, 10);
  JanusOptions o = SmallOptions();
  o.spec.agg_column = 2;
  JanusAqp system(o);
  system.LoadInitial(ds.rows);
  system.Initialize();  // builds template 0 only
  EXPECT_EQ(system.num_templates(), 1u);
  EXPECT_EQ(system.TemplateFor({1}), -1);
  // A template discovered after Initialize gets its tree from the pooled
  // sample at once.
  SynopsisSpec spec;
  spec.agg_column = 2;
  spec.predicate_columns = {1};
  EXPECT_EQ(system.AddTemplate(spec), 1);
  EXPECT_EQ(system.TemplateFor({1}), 1);
  EXPECT_EQ(system.num_templates(), 2u);
  AggQuery q;
  q.func = AggFunc::kCount;
  q.agg_column = 2;
  q.predicate_columns = {1};
  q.rect = Rectangle({0.0}, {1.0});
  EXPECT_NEAR(system.dpt(1).Query(q).estimate, 5000.0, 600.0);
  system.CheckInvariants();
}

TEST(EdgeCaseTest, InsertFarOutsideInitialDomain) {
  // Domain growth: tuples far outside the initial bounding box must still
  // route to a boundary leaf and be counted.
  auto ds = GenerateUniform(5000, 1, 11);
  JanusAqp system(SmallOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  for (uint64_t i = 0; i < 100; ++i) {
    system.Insert(MakeTuple(900000 + i, 1e6 + static_cast<double>(i), 5.0));
  }
  const QueryResult far =
      system.Query(MakeQuery(AggFunc::kCount, 1e6 - 1, 2e6));
  EXPECT_NEAR(far.estimate, 100.0, 10.0);
  const QueryResult sum = system.Query(MakeQuery(AggFunc::kSum, 1e6 - 1, 2e6));
  EXPECT_NEAR(sum.estimate, 500.0, 50.0);
}

TEST(EdgeCaseTest, MinMaxOnNegativeAndMixedSigns) {
  JanusAqp system(SmallOptions());
  std::vector<Tuple> rows;
  Rng rng(12);
  for (uint64_t i = 0; i < 5000; ++i) {
    rows.push_back(MakeTuple(i, rng.NextDouble(), rng.Uniform(-100, 100)));
  }
  system.LoadInitial(rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const auto tmin =
      ExactAnswer(system.table().store(), MakeQuery(AggFunc::kMin, 0.0, 1.0));
  const auto tmax =
      ExactAnswer(system.table().store(), MakeQuery(AggFunc::kMax, 0.0, 1.0));
  // Sample extremes: inner approximations.
  EXPECT_GE(system.Query(MakeQuery(AggFunc::kMin, 0.0, 1.0)).estimate, *tmin);
  EXPECT_LE(system.Query(MakeQuery(AggFunc::kMax, 0.0, 1.0)).estimate, *tmax);
}

}  // namespace
}  // namespace janus
