#include "core/catchup.h"

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/partitioner_1d.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/table.h"
#include "persist/serde.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace janus {
namespace {

class CatchupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = GenerateUniform(20000, 1, 4);
    SynopsisSpec spec;
    spec.agg_column = 1;
    spec.predicate_columns = {0};
    DptOptions opts;
    opts.spec = spec;
    std::vector<double> boundaries;
    for (int b = 1; b < 16; ++b) boundaries.push_back(b / 16.0);
    dpt_ = std::make_unique<Dpt>(opts, BuildBalanced1dTree(boundaries));
    Rng rng(1);
    std::vector<size_t> idx = rng.SampleIndices(ds_.rows.size(), 400);
    for (size_t i : idx) sample_.push_back(ds_.rows[i]);
    dpt_->InitializeFromReservoir(sample_, ds_.rows.size());
  }

  GeneratedDataset ds_;
  std::vector<Tuple> sample_;
  std::unique_ptr<Dpt> dpt_;
};

TEST_F(CatchupTest, StepsAccumulateTowardGoal) {
  CatchupEngine engine(dpt_.get(), ds_.rows, 1000, 2);
  EXPECT_EQ(engine.goal(), 1000u);
  EXPECT_FALSE(engine.Done());
  EXPECT_EQ(engine.Step(300), 300u);
  EXPECT_EQ(engine.processed(), 300u);
  EXPECT_EQ(engine.Step(900), 700u);  // clamped at the goal
  EXPECT_TRUE(engine.Done());
  EXPECT_EQ(engine.Step(100), 0u);
}

TEST_F(CatchupTest, RunToGoalFeedsDpt) {
  const double before = dpt_->catchup_count();
  CatchupEngine engine(dpt_.get(), ds_.rows, 2000, 3);
  engine.RunToGoal();
  EXPECT_DOUBLE_EQ(dpt_->catchup_count(), before + 2000);
  EXPECT_GT(engine.processing_seconds(), 0.0);
}

TEST_F(CatchupTest, EmptySnapshotIsDone) {
  CatchupEngine engine(dpt_.get(), std::vector<Tuple>{}, 1000, 4);
  EXPECT_TRUE(engine.Done());
  EXPECT_EQ(engine.Step(10), 0u);
}

TEST_F(CatchupTest, EstimatesConvergeWithCatchup) {
  AggQuery q;
  q.func = AggFunc::kSum;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.1}, {0.8});
  const auto truth = ExactAnswer(ds_.rows, q);
  ASSERT_TRUE(truth.has_value());

  CatchupEngine engine(dpt_.get(), ds_.rows, 8000, 5);
  double prev_ci = dpt_->Query(q).ci_half_width;
  // CI must shrink monotonically (in expectation) as catch-up progresses.
  int shrank = 0, rounds = 0;
  while (!engine.Done()) {
    engine.Step(2000);
    const QueryResult r = dpt_->Query(q);
    shrank += (r.ci_half_width <= prev_ci);
    prev_ci = r.ci_half_width;
    ++rounds;
  }
  EXPECT_GE(shrank, (rounds + 1) / 2);
  const QueryResult final = dpt_->Query(q);
  EXPECT_LT(std::abs(final.estimate - *truth) / *truth, 0.05);
}

TEST_F(CatchupTest, MidCatchupEstimatesAreUsable) {
  // Queries issued mid-catch-up must still be valid (unbiased, finite CI) —
  // Sec. 4.3's "queries close to the beginning will have a higher error".
  AggQuery q;
  q.func = AggFunc::kCount;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {0.5});
  const auto truth = ExactAnswer(ds_.rows, q);
  CatchupEngine engine(dpt_.get(), ds_.rows, 4000, 6);
  engine.Step(100);  // barely started
  const QueryResult r = dpt_->Query(q);
  EXPECT_GT(r.estimate, 0);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.25);
}

TEST_F(CatchupTest, StepsThroughAViewWhileAnotherThreadDeletes) {
  // The table's owner deletes under its mutex while this thread steps
  // catch-up through a view of the table. Each hold of the mutex gathers a
  // chunk, so gathers and deletes interleave, and the view copies pages of
  // the table mid-run; the samples are absorbed on a pool. The statistics
  // must match a catch-up over a copy taken with the view.
  ThreadPool pool(4);
  DptOptions opts = dpt_->options();
  opts.exec.pool = &pool;
  auto make_dpt = [&] {
    auto dpt = std::make_unique<Dpt>(opts, dpt_->tree());
    dpt->InitializeFromReservoir(sample_, ds_.rows.size());
    return dpt;
  };
  DynamicTable table(Schema{{"x", "a"}});
  for (const Tuple& t : ds_.rows) table.Insert(t);
  Mutex mu;
  std::shared_ptr<ArchiveSnapshot> view;
  {
    MutexLock lock(&mu);
    view = std::make_shared<ArchiveSnapshot>(table.store(), &mu);
  }
  const ColumnStore at_start = table.store().WithoutIndex();
  auto delete_ids = [&](uint64_t from, uint64_t to) {
    for (uint64_t id = from; id < to; ++id) {
      MutexLock lock(&mu);
      table.Delete(id, [&](size_t pos) { view->BeforeDelete(pos); });
    }
  };
  const auto live_dpt = make_dpt();
  CatchupEngine live(live_dpt.get(), view, 16000, 7);
  delete_ids(0, 1000);
  live.Step(4096);
  const size_t copied = view->copied_rows();
  EXPECT_GT(copied, 0u);
  std::thread deleter(delete_ids, 1000, 3000);
  while (!live.Done()) live.Step(8192);
  deleter.join();
  // The deletes reached pages of both ends, never all of them.
  EXPECT_GT(view->copied_rows(), copied);
  EXPECT_LT(view->copied_rows(), view->size());

  const auto copy_dpt = make_dpt();
  CatchupEngine copy(copy_dpt.get(),
                     std::make_shared<ArchiveSnapshot>(at_start.WithoutIndex()),
                     16000, 7);
  while (!copy.Done()) copy.Step(8192);
  persist::Writer got, want;
  live_dpt->SaveTo(&got);
  copy_dpt->SaveTo(&want);
  EXPECT_EQ(got.buffer(), want.buffer());
  persist::Writer got_rows, want_rows;
  view->SaveTo(&got_rows);
  at_start.SaveTo(&want_rows);
  EXPECT_EQ(got_rows.buffer(), want_rows.buffer());
}

}  // namespace
}  // namespace janus
