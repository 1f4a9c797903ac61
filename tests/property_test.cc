// Property-style tests: statistical invariants (unbiasedness, coverage,
// proportional allocation) and structural invariants under parameter sweeps.

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/catchup.h"
#include "core/janus.h"
#include "core/partitioner_1d.h"
#include "core/spt.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "persist/serde.h"
#include "sampling/reservoir.h"
#include "util/invariants.h"
#include "util/stats.h"

namespace janus {
namespace {

// ---------------------------------------------------------------------------
// Reservoir invariant: m <= |S| <= 2m under arbitrary insert/delete churn.
// ---------------------------------------------------------------------------

class ReservoirChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReservoirChurnTest, SizeBoundsHoldUnderChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  DynamicTable table(Schema{{"x"}});
  DynamicReservoir res(100, seed);
  uint64_t next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    if (table.size() < 200 || rng.NextDouble() < 0.55) {
      Tuple t;
      t.id = next_id++;
      t[0] = rng.NextDouble();
      table.Insert(t);
      res.OnInsert(t, table.size());
    } else {
      const Tuple victim = table.SampleOne(&rng);
      table.Delete(victim.id);
      ReservoirChange ch = res.OnDelete(victim.id);
      if (ch.needs_resample) {
        res.Reset(table.SampleUniform(&rng, res.capacity()));
      }
    }
    // m <= |S| <= 2m once the reservoir has had a chance to fill (the table
    // itself can be smaller than m early on or right after a reset).
    ASSERT_GE(res.size(), std::min(res.lower_bound(), table.size()));
    ASSERT_LE(res.size(), res.capacity());
    // Every sample is live, and the reservoir's internal slot index stays a
    // bijection (periodically — the audit is O(|S|)).
    if (step % 2500 == 0) {
      for (const Tuple& t : res.samples()) {
        ASSERT_TRUE(table.Find(t.id).has_value());
      }
      invariants::MaybeAudit(res);
      invariants::MaybeAudit(table.store());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservoirChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Proportional allocation (Appendix B): strata of size >= (16/alpha) log k
// receive at least half their proportional sample share w.h.p.
// ---------------------------------------------------------------------------

TEST(ProportionalAllocationTest, LargeStrataGetProportionalShare) {
  const size_t n = 50000;
  const double alpha = 0.02;
  const int k = 16;
  auto ds = GenerateUniform(n, 1, 1234);
  int violations = 0;
  const int reps = 20;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(static_cast<uint64_t>(rep) + 1);
    auto sample = [&] {
      std::vector<size_t> idx =
          rng.SampleIndices(n, static_cast<size_t>(alpha * n));
      std::vector<int> counts(k, 0);
      for (size_t i : idx) {
        int s = std::min(k - 1, static_cast<int>(ds.rows[i][0] * k));
        counts[static_cast<size_t>(s)]++;
      }
      return counts;
    }();
    const double expected = alpha * n / k;
    for (int c : sample) {
      if (c < expected / 2) ++violations;
    }
  }
  // Appendix B: violation probability <= 1/k per stratum set; across
  // 20 * 16 = 320 stratum draws we allow a generous handful.
  EXPECT_LE(violations, 4);
}

// ---------------------------------------------------------------------------
// Estimator unbiasedness: the mean DPT estimate over independent reservoirs
// matches the truth within Monte-Carlo error.
// ---------------------------------------------------------------------------

class UnbiasednessTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(UnbiasednessTest, CatchupEstimatorCentersOnTruth) {
  const AggFunc f = GetParam();
  auto ds = GenerateUniform(10000, 1, 55);
  SynopsisSpec spec;
  spec.agg_column = 1;
  spec.predicate_columns = {0};
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.23}, {0.81});
  const auto truth = ExactAnswer(ds.rows, q);
  ASSERT_TRUE(truth.has_value());

  std::vector<double> estimates;
  for (uint64_t rep = 0; rep < 30; ++rep) {
    DptOptions opts;
    opts.spec = spec;
    std::vector<double> boundaries;
    for (int b = 1; b < 8; ++b) boundaries.push_back(b / 8.0);
    Dpt dpt(opts, BuildBalanced1dTree(boundaries));
    Rng rng(rep * 131 + 7);
    std::vector<size_t> idx = rng.SampleIndices(ds.rows.size(), 300);
    std::vector<Tuple> sample;
    for (size_t i : idx) sample.push_back(ds.rows[i]);
    dpt.InitializeFromReservoir(sample, ds.rows.size());
    for (int c = 0; c < 700; ++c) {
      dpt.AddCatchupSample(ds.rows[rng.NextUint64(ds.rows.size())]);
    }
    estimates.push_back(dpt.Query(q).estimate);
  }
  const double mean = Mean(estimates);
  // Mean of 30 estimates within 3% of truth (each is already ~2% accurate).
  EXPECT_NEAR(mean / *truth, 1.0, 0.03) << AggFuncName(f);
}

INSTANTIATE_TEST_SUITE_P(Funcs, UnbiasednessTest,
                         ::testing::Values(AggFunc::kSum, AggFunc::kCount,
                                           AggFunc::kAvg),
                         [](const auto& info) {
                           return AggFuncName(info.param);
                         });

// ---------------------------------------------------------------------------
// Partition-tree structural invariants across a (k, focus, data-shape) sweep.
// ---------------------------------------------------------------------------

struct SweepParam {
  int num_leaves;
  AggFunc focus;
  uint64_t seed;
};

class PartitionSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PartitionSweepTest, InvariantsHold) {
  const SweepParam p = GetParam();
  auto ds = GenerateUniform(4000, 1, p.seed);
  SptOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = p.num_leaves;
  o.focus = p.focus;
  o.sample_rate = 0.1;
  std::vector<Tuple> sample(ds.rows.begin(), ds.rows.begin() + 800);
  const PartitionResult pr = OptimizePartition(sample, o, ds.rows.size());
  ASSERT_TRUE(pr.ok);
  const PartitionTreeSpec& spec = pr.spec;
  ASSERT_LE(spec.num_leaves(), p.num_leaves);
  // (1) Every child is a subset of its parent; (2) siblings tile the parent;
  // (3) every sample routes to exactly one leaf containing it.
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const PartitionNode& n = spec.nodes[i];
    if (n.IsLeaf()) continue;
    const PartitionNode& l = spec.nodes[static_cast<size_t>(n.left)];
    const PartitionNode& r = spec.nodes[static_cast<size_t>(n.right)];
    ASSERT_TRUE(n.rect.Covers(l.rect));
    ASSERT_TRUE(n.rect.Covers(r.rect));
    ASSERT_DOUBLE_EQ(l.rect.hi(n.split_dim), n.split_val);
    ASSERT_DOUBLE_EQ(r.rect.lo(n.split_dim), n.split_val);
  }
  for (const Tuple& t : sample) {
    const double x = t[0];
    const int leaf = spec.LeafFor(&x);
    ASSERT_TRUE(spec.nodes[static_cast<size_t>(leaf)].IsLeaf());
    ASSERT_TRUE(spec.nodes[static_cast<size_t>(leaf)].rect.Contains(&x));
  }
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (int k : {2, 8, 32, 128}) {
    for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
      for (uint64_t seed : {11u, 22u}) {
        out.push_back({k, f, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweepTest,
                         ::testing::ValuesIn(MakeSweep()),
                         [](const auto& info) {
                           return std::string("k") +
                                  std::to_string(info.param.num_leaves) +
                                  AggFuncName(info.param.focus) + "s" +
                                  std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// System-level conservation: after arbitrary mixed churn, the DPT's root
// count estimate tracks the live table size.
// ---------------------------------------------------------------------------

class ChurnConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnConservationTest, RootCountTracksTableSize) {
  auto ds = GenerateUniform(8000, 1, GetParam());
  JanusOptions opts;
  opts.spec.agg_column = 1;
  opts.spec.predicate_columns = {0};
  opts.num_leaves = 16;
  opts.sample_rate = 0.02;
  opts.enable_triggers = false;
  JanusAqp system(opts);
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  Rng rng(GetParam() * 31 + 1);
  uint64_t next_id = 1000000;
  std::vector<uint64_t> live_ids;
  for (const Tuple& t : ds.rows) live_ids.push_back(t.id);
  for (int step = 0; step < 5000; ++step) {
    if (rng.NextDouble() < 0.6) {
      Tuple t;
      t.id = next_id++;
      t[0] = rng.NextDouble();
      t[1] = rng.Normal(10, 2);
      system.Insert(t);
      live_ids.push_back(t.id);
    } else if (!live_ids.empty()) {
      const size_t i = rng.NextUint64(live_ids.size());
      if (system.Delete(live_ids[i])) {
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
      }
    }
  }
  const double n = static_cast<double>(system.table().size());
  EXPECT_NEAR(system.dpt().NodeCountEstimate(0), n, n * 0.03);
  // Full-system structural audit after the churn: archive store, reservoir
  // liveness, synopsis trees and the sample mirror.
  invariants::MaybeAudit(system);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnConservationTest,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Catch-up archive snapshots: copy-on-write views of a table that random
// inserts and deletes keep reshaping read, row for row and byte for byte,
// as the copy taken when each view started.
// ---------------------------------------------------------------------------

/// A view and the copy of the table taken with it.
struct CheckedView {
  std::shared_ptr<ArchiveSnapshot> view;
  ColumnStore expected;
};

void ExpectViewReadsAsCopy(CheckedView* c, Rng* rng) {
  const ColumnStore& expected = c->expected;
  ASSERT_EQ(c->view->size(), expected.size());
  ASSERT_LE(c->view->copied_rows(), expected.size());
  std::vector<size_t> positions(1 + rng->NextUint64(64));
  for (size_t& p : positions) p = rng->NextUint64(expected.size());
  const std::vector<Tuple> rows = c->view->Gather(positions);
  for (size_t i = 0; i < positions.size(); ++i) {
    const Tuple want = expected.RowTuple(positions[i]);
    ASSERT_EQ(rows[i].id, want.id) << "position " << positions[i];
    for (int col = 0; col < expected.num_columns(); ++col) {
      ASSERT_EQ(rows[i][col], want[col]) << "position " << positions[i];
    }
  }
  persist::Writer got, want;
  c->view->SaveTo(&got);
  expected.SaveTo(&want);
  ASSERT_EQ(got.buffer(), want.buffer());
}

class ArchiveSnapshotTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArchiveSnapshotTest, ViewsReadAsTheCopyTakenAtTheirStart) {
  constexpr size_t kPage = ArchiveSnapshot::kPageRows;
  Rng rng(GetParam());
  DynamicTable table(Schema{{"x", "y"}});
  uint64_t next_id = 0;
  auto insert = [&] {
    Tuple t;
    t.id = next_id++;
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    table.Insert(t);
  };
  for (size_t i = 0; i < 24 * kPage; ++i) insert();

  Mutex mu;
  auto start = [&] {
    MutexLock lock(&mu);
    return CheckedView{std::make_shared<ArchiveSnapshot>(table.store(), &mu),
                       table.store().WithoutIndex()};
  };
  std::vector<CheckedView> views;
  views.push_back(start());
  const size_t n0 = views[0].view->size();
  const uint64_t first_new_id = next_id;

  bool swapped_begin_row_forward = false;
  bool deleted_new_row = false;
  bool checked_partial_views = false;
  size_t min_rows = n0;
  // Phase 0 shrinks the table below n0, deleting in the first pages only,
  // so the first view copies its ends and reads its middle live; phase 1
  // runs a second view beside it; phase 2 deletes anywhere until the first
  // view has copied every page.
  int phase = 0;
  int phase_ends = 0;
  for (int op = 0; op < 40000 && phase < 3; ++op) {
    {
      MutexLock lock(&mu);
      const double delete_prob = phase == 0 ? 0.7 : 0.5;
      if (table.empty() || rng.NextDouble() >= delete_prob) {
        insert();
      } else {
        const ColumnStore& store = table.store();
        const size_t band = phase == 2 ? store.size() : 4 * kPage;
        const size_t pos = rng.NextUint64(std::min(band, store.size()));
        const size_t last = store.size() - 1;
        const uint64_t id = store.id_at(pos);
        swapped_begin_row_forward |=
            pos < last && last < n0 && store.id_at(last) < first_new_id;
        deleted_new_row |= id >= first_new_id;
        // The owner's update path: every live view copies what the delete
        // changes, then the swap-remove.
        ASSERT_TRUE(table.Delete(id, [&](size_t p) {
          for (CheckedView& c : views) c.view->BeforeDelete(p);
        }));
        min_rows = std::min(min_rows, table.size());
      }
    }
    if (rng.NextDouble() < 0.02) {
      bool partial = views.size() == 2;
      for (CheckedView& c : views) {
        ASSERT_NO_FATAL_FAILURE(ExpectViewReadsAsCopy(&c, &rng));
        partial &= c.view->copied_rows() > 0 &&
                   c.view->copied_rows() < c.view->size();
      }
      checked_partial_views |= partial;
    }
    const ArchiveSnapshot& first = *views[0].view;
    if (phase == 0 && table.size() + 2 * kPage < n0) {
      views.push_back(start());
      phase = 1;
      phase_ends = op + 2000;
    } else if (phase == 1 && op == phase_ends) {
      phase = 2;
    } else if (phase == 2 && first.copied_rows() == first.size()) {
      phase = 3;
    }
  }

  ASSERT_EQ(phase, 3);
  EXPECT_TRUE(swapped_begin_row_forward);
  EXPECT_TRUE(deleted_new_row);
  EXPECT_TRUE(checked_partial_views);
  EXPECT_LT(min_rows, n0);
  for (CheckedView& c : views) {
    ASSERT_NO_FATAL_FAILURE(ExpectViewReadsAsCopy(&c, &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveSnapshotTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// CI calibration sweep: coverage stays sane across sample rates.
// ---------------------------------------------------------------------------

class CoverageSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverageSweepTest, CiCoverageAboveFloor) {
  const double rate = GetParam();
  auto ds = GenerateUniform(10000, 1, 777);
  JanusOptions opts;
  opts.spec.agg_column = 1;
  opts.spec.predicate_columns = {0};
  opts.num_leaves = 16;
  opts.sample_rate = rate;
  opts.enable_triggers = false;
  JanusAqp system(opts);
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  Rng qrng(5);
  int covered = 0, total = 0;
  for (int i = 0; i < 150; ++i) {
    double a = qrng.NextDouble(), b = qrng.NextDouble();
    if (a > b) std::swap(a, b);
    AggQuery q;
    q.func = AggFunc::kSum;
    q.agg_column = 1;
    q.predicate_columns = {0};
    q.rect = Rectangle({a}, {b});
    const auto truth = ExactAnswer(ds.rows, q);
    if (!truth.has_value() || *truth == 0) continue;
    const QueryResult r = system.Query(q);
    if (r.ci_half_width <= 0) continue;
    ++total;
    covered += std::abs(r.estimate - *truth) <= r.ci_half_width;
  }
  ASSERT_GT(total, 60);
  EXPECT_GT(static_cast<double>(covered) / total, 0.75);
}

INSTANTIATE_TEST_SUITE_P(Rates, CoverageSweepTest,
                         ::testing::Values(0.005, 0.01, 0.02, 0.05));

}  // namespace
}  // namespace janus
