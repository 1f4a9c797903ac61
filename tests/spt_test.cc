#include "core/spt.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/max_variance.h"
#include "core/partitioner_1d.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/scan.h"
#include "data/workload.h"
#include "util/rng.h"

namespace janus {
namespace {

class SptAlgorithmTest : public ::testing::TestWithParam<PartitionAlgorithm> {
 protected:
  SptOptions BaseOptions() {
    SptOptions o;
    o.spec.agg_column = 1;
    o.spec.predicate_columns = {0};
    o.num_leaves = 32;
    o.sample_rate = 0.02;
    o.algorithm = GetParam();
    return o;
  }
};

TEST_P(SptAlgorithmTest, BuildsAndAnswersAccurately) {
  auto ds = GenerateUniform(20000, 1, 5);
  SptBuildResult built =
      BuildSpt(scan::ToColumnStore(ds.rows, {}), BaseOptions());
  ASSERT_NE(built.synopsis, nullptr);
  EXPECT_GT(built.total_seconds, 0);
  EXPECT_EQ(built.synopsis->mode(), StatMode::kExact);

  WorkloadGenerator gen(ds.rows, {0}, 1);
  WorkloadOptions wopts;
  wopts.num_queries = 100;
  auto queries = gen.Generate(ds.rows, wopts);
  auto truths = ExactAnswers(ds.rows, queries);
  std::vector<double> errors;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!truths[i].has_value() || *truths[i] == 0) continue;
    const QueryResult r = built.synopsis->Query(queries[i]);
    errors.push_back(std::abs(r.estimate - *truths[i]) /
                     std::abs(*truths[i]));
  }
  ASSERT_GT(errors.size(), 50u);
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() / 2], 0.05);  // median rel error < 5%
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SptAlgorithmTest,
    ::testing::Values(PartitionAlgorithm::kBinarySearch,
                      PartitionAlgorithm::kDynamicProgram,
                      PartitionAlgorithm::kEqualDepth,
                      PartitionAlgorithm::kKdTree),
    [](const auto& info) {
      switch (info.param) {
        case PartitionAlgorithm::kBinarySearch:
          return "BS";
        case PartitionAlgorithm::kDynamicProgram:
          return "DP";
        case PartitionAlgorithm::kEqualDepth:
          return "EqualDepth";
        case PartitionAlgorithm::kKdTree:
          return "KdTree";
      }
      return "?";
    });

TEST(SptTest, PartitionTimeReportedSeparately) {
  auto ds = GenerateUniform(10000, 1, 7);
  SptOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 16;
  SptBuildResult built = BuildSpt(scan::ToColumnStore(ds.rows, {}), o);
  EXPECT_GE(built.total_seconds, built.partition_seconds);
}

TEST(SptTest, MultiDimUsesKdPartitioner) {
  auto ds = GenerateUniform(20000, 3, 9);
  SptOptions o;
  o.spec.agg_column = 3;
  o.spec.predicate_columns = {0, 1, 2};
  o.num_leaves = 64;
  o.sample_rate = 0.05;
  o.algorithm = PartitionAlgorithm::kBinarySearch;  // must reroute to kd
  SptBuildResult built = BuildSpt(scan::ToColumnStore(ds.rows, {}), o);
  ASSERT_NE(built.synopsis, nullptr);
  EXPECT_EQ(built.synopsis->tree().dims, 3);
  EXPECT_GT(built.synopsis->tree().num_leaves(), 8);

  WorkloadGenerator gen(ds.rows, {0, 1, 2}, 3);
  WorkloadOptions wopts;
  wopts.num_queries = 60;
  wopts.min_count = 50;
  auto queries = gen.Generate(ds.rows, wopts);
  auto truths = ExactAnswers(ds.rows, queries);
  std::vector<double> errors;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!truths[i].has_value() || *truths[i] == 0) continue;
    const QueryResult r = built.synopsis->Query(queries[i]);
    errors.push_back(std::abs(r.estimate - *truths[i]) /
                     std::abs(*truths[i]));
  }
  ASSERT_GT(errors.size(), 30u);
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() / 2], 0.2);
}

TEST(SptTest, OptimizePartitionStandalone) {
  auto ds = GenerateUniform(5000, 1, 11);
  SptOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 8;
  std::vector<Tuple> sample(ds.rows.begin(), ds.rows.begin() + 500);
  const PartitionResult pr = OptimizePartition(sample, o, ds.rows.size());
  ASSERT_TRUE(pr.ok);
  EXPECT_LE(pr.spec.num_leaves(), 8);
  EXPECT_GE(pr.spec.num_leaves(), 2);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(SptTest, OneDimOptimizerMatchesAnInsertBuiltIndex) {
  // The optimizer bulk-builds a rank-only index; the reference grows the
  // full index (k-d tree included) one Insert per sample. Their partitions
  // must agree bit for bit.
  const size_t kDataSize = 400000;
  Rng rng(31);
  for (const bool few_keys : {false, true}) {
    std::vector<Tuple> samples(3000);
    for (size_t i = 0; i < samples.size(); ++i) {
      samples[i].id = i;
      samples[i][0] = few_keys ? static_cast<double>(rng.NextUint64(7))
                               : rng.NextDouble();
      samples[i][1] = rng.LogNormal(0, 1);
    }
    for (const AggFunc focus :
         {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
      for (const PartitionAlgorithm algo :
           {PartitionAlgorithm::kBinarySearch,
            PartitionAlgorithm::kEqualDepth}) {
        SptOptions o;
        o.spec.agg_column = 1;
        o.spec.predicate_columns = {0};
        o.num_leaves = 32;
        o.focus = focus;
        o.algorithm = algo;
        const PartitionResult got = OptimizePartition(samples, o, kDataSize);

        MaxVarianceIndex::Options mo;
        mo.dims = 1;
        mo.focus = focus;
        mo.sampling_rate = o.sample_rate;
        mo.delta = o.delta;
        MaxVarianceIndex ref(mo);
        for (const Tuple& t : samples) ref.Insert(MakeKdPoint(t, {0}, 1));
        PartitionResult want;
        if (algo == PartitionAlgorithm::kBinarySearch) {
          Partitioner1dOptions bo;
          bo.num_leaves = o.num_leaves;
          bo.focus = focus;
          bo.rho = o.rho;
          bo.data_size = kDataSize;
          want = BuildPartition1D(ref, bo);
        } else {
          want = BuildEqualDepth1D(ref, o.num_leaves);
        }

        const std::string label = std::string(AggFuncName(focus)) +
                                  (few_keys ? " few keys" : " distinct keys");
        ASSERT_TRUE(got.ok) << label;
        EXPECT_TRUE(SameBits(got.achieved_error, want.achieved_error))
            << label;
        EXPECT_TRUE(SameBits(got.spec.worst_error, want.spec.worst_error))
            << label;
        EXPECT_EQ(got.spec.leaves, want.spec.leaves) << label;
        ASSERT_EQ(got.spec.nodes.size(), want.spec.nodes.size()) << label;
        for (size_t i = 0; i < got.spec.nodes.size(); ++i) {
          const PartitionNode& g = got.spec.nodes[i];
          const PartitionNode& w = want.spec.nodes[i];
          EXPECT_EQ(g.left, w.left) << label << " node " << i;
          EXPECT_EQ(g.right, w.right) << label << " node " << i;
          EXPECT_EQ(g.parent, w.parent) << label << " node " << i;
          EXPECT_EQ(g.split_dim, w.split_dim) << label << " node " << i;
          EXPECT_TRUE(SameBits(g.split_val, w.split_val))
              << label << " node " << i;
          EXPECT_TRUE(SameBits(g.rect.lo(0), w.rect.lo(0)) &&
                      SameBits(g.rect.hi(0), w.rect.hi(0)))
              << label << " node " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace janus
