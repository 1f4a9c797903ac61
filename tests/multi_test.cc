// One pooled sample, one partition tree per query template (Sec. 5.5):
// JanusAqp's template list.

#include <cmath>

#include <gtest/gtest.h>

#include "core/janus.h"
#include "data/generators.h"
#include "data/ground_truth.h"

namespace janus {
namespace {

/// Template 0 is an aggregate of column 3 over predicate column 0.
JanusOptions BaseOptions() {
  JanusOptions o;
  o.spec.agg_column = 3;
  o.spec.predicate_columns = {0};
  o.num_leaves = 32;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  o.enable_triggers = false;
  return o;
}

AggQuery MakeQuery(AggFunc f, std::vector<int> preds, int agg,
                   std::vector<double> lo, std::vector<double> hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = agg;
  q.predicate_columns = std::move(preds);
  q.rect = Rectangle(std::move(lo), std::move(hi));
  return q;
}

class MultiTemplateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = GenerateUniform(20000, 3, 66);  // cols 0,1,2 predicates; 3 agg
    system_ = std::make_unique<JanusAqp>(BaseOptions());
    system_->LoadInitial(ds_.rows);
  }

  /// Route `q` to the template with its predicate columns, building one on
  /// demand for a template not seen before (what the multi engine does).
  QueryResult Query(const AggQuery& q) {
    int idx = system_->TemplateFor(q.predicate_columns);
    if (idx < 0) {
      idx = system_->AddTemplate({q.agg_column, q.predicate_columns});
    }
    return system_->dpt(idx).Query(q);
  }

  GeneratedDataset ds_;
  std::unique_ptr<JanusAqp> system_;
};

TEST_F(MultiTemplateTest, TwoTemplatesShareOneReservoir) {
  SynopsisSpec a, b;
  a.agg_column = 3;
  a.predicate_columns = {0};
  b.agg_column = 3;
  b.predicate_columns = {1};
  EXPECT_EQ(system_->AddTemplate(a), 0);  // template 0 is opts.spec
  EXPECT_EQ(system_->AddTemplate(b), 1);
  EXPECT_EQ(system_->AddTemplate(b), 1);  // dedup
  system_->Initialize();
  system_->RunCatchupToGoal();
  ASSERT_EQ(system_->num_templates(), 2u);
  // Both trees mirror the same pooled sample.
  EXPECT_EQ(system_->dpt(0).sample_size(), system_->reservoir().size());
  EXPECT_EQ(system_->dpt(1).sample_size(), system_->reservoir().size());

  const AggQuery qa =
      MakeQuery(AggFunc::kSum, {0}, 3, {0.2}, {0.8});
  const AggQuery qb =
      MakeQuery(AggFunc::kSum, {1}, 3, {0.1}, {0.6});
  const auto ta = ExactAnswer(ds_.rows, qa);
  const auto tb = ExactAnswer(ds_.rows, qb);
  EXPECT_LT(std::abs(Query(qa).estimate - *ta) / *ta, 0.05);
  EXPECT_LT(std::abs(Query(qb).estimate - *tb) / *tb, 0.05);
}

TEST_F(MultiTemplateTest, UpdatesReachEveryTree) {
  SynopsisSpec b;
  b.agg_column = 3;
  b.predicate_columns = {1, 2};
  system_->AddTemplate(b);
  system_->Initialize();
  system_->RunCatchupToGoal();
  Rng rng(5);
  auto rows = ds_.rows;
  for (int i = 0; i < 5000; ++i) {
    Tuple t;
    t.id = 1000000 + static_cast<uint64_t>(i);
    for (int c = 0; c < 3; ++c) t[c] = rng.NextDouble();
    t[3] = rng.Normal(10, 2);
    system_->Insert(t);
    rows.push_back(t);
  }
  for (uint64_t id = 0; id < 2000; ++id) system_->Delete(id);
  rows.erase(rows.begin(), rows.begin() + 2000);

  const AggQuery qa = MakeQuery(AggFunc::kCount, {0}, 3, {0.0}, {1.0});
  const AggQuery qb =
      MakeQuery(AggFunc::kCount, {1, 2}, 3, {0.0, 0.0}, {1.0, 1.0});
  const double n = static_cast<double>(rows.size());
  EXPECT_NEAR(Query(qa).estimate, n, n * 0.05);
  EXPECT_NEAR(Query(qb).estimate, n, n * 0.05);
}

TEST_F(MultiTemplateTest, NewTemplateBuiltOnDemand) {
  system_->Initialize();
  system_->RunCatchupToGoal();
  ASSERT_EQ(system_->num_templates(), 1u);
  // A query over a predicate set nobody registered: a tree is built for it
  // on the fly (Sec. 5.5).
  const AggQuery q = MakeQuery(AggFunc::kSum, {2}, 3, {0.3}, {0.9});
  const auto truth = ExactAnswer(ds_.rows, q);
  const QueryResult first = Query(q);
  EXPECT_EQ(system_->num_templates(), 2u);
  EXPECT_LT(std::abs(first.estimate - *truth) / *truth, 0.15);
  // After its catch-up finishes, accuracy tightens.
  system_->RunCatchupToGoal();
  const QueryResult after = Query(q);
  EXPECT_LT(std::abs(after.estimate - *truth) / *truth, 0.05);
  EXPECT_LE(after.ci_half_width, first.ci_half_width + 1e-9);
}

TEST_F(MultiTemplateTest, TemplateRoutingByPredicateColumns) {
  SynopsisSpec b;
  b.agg_column = 3;
  b.predicate_columns = {1};
  system_->AddTemplate(b);
  EXPECT_EQ(system_->TemplateFor({0}), 0);
  EXPECT_EQ(system_->TemplateFor({1}), 1);
  EXPECT_EQ(system_->TemplateFor({2}), -1);
  EXPECT_EQ(system_->TemplateFor({0, 1}), -1);
}

TEST_F(MultiTemplateTest, HeavyDeletionResampleKeepsTreesConsistent) {
  SynopsisSpec b;
  b.agg_column = 3;
  b.predicate_columns = {1};
  system_->AddTemplate(b);
  system_->Initialize();
  system_->RunCatchupToGoal();
  for (uint64_t id = 0; id < 15000; ++id) system_->Delete(id);
  EXPECT_EQ(system_->table().size(), 5000u);
  EXPECT_GT(system_->counters().reservoir_resamples, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(system_->dpt(i).sample_size(), system_->reservoir().size());
    // Every mirrored sample is still live.
    for (const auto& [id, t] : system_->dpt(i).sample_tuples()) {
      (void)t;
      EXPECT_TRUE(system_->table().Find(id).has_value());
    }
  }
  system_->CheckInvariants();
}

}  // namespace
}  // namespace janus
