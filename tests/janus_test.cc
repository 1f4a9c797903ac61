#include "core/janus.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>
#include <thread>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/ground_truth.h"
#include "persist/serde.h"
#include "tests/test_digest.h"
#include "util/thread_pool.h"

namespace janus {
namespace {

JanusOptions BaseOptions() {
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 32;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  o.enable_triggers = false;  // triggers tested separately
  return o;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

TEST(JanusTest, InitializeAndQuery) {
  auto ds = GenerateUniform(20000, 1, 3);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.2, 0.8);
  const auto truth = ExactAnswer(ds.rows, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.05);
  EXPECT_GE(system.catchup_processed(), 2000u);  // 10% of 20k
}

TEST(JanusTest, InsertsReflectInQueries) {
  auto ds = GenerateUniform(10000, 1, 5);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  auto rows = ds.rows;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    Tuple t;
    t.id = 1000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    system.Insert(t);
    rows.push_back(t);
  }
  EXPECT_EQ(system.counters().inserts, 5000u);
  EXPECT_EQ(system.table().size(), 15000u);
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  const auto truth = ExactAnswer(rows, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.05);
}

TEST(JanusTest, DeletesReflectInQueries) {
  auto ds = GenerateUniform(10000, 1, 9);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  auto rows = ds.rows;
  // Delete 2000 random tuples.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(system.Delete(static_cast<uint64_t>(i * 5)));
  }
  std::vector<Tuple> remaining;
  for (const Tuple& t : rows) {
    if (t.id % 5 != 0 || t.id >= 10000) remaining.push_back(t);
  }
  EXPECT_EQ(system.table().size(), remaining.size());
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.1, 0.9);
  const auto truth = ExactAnswer(remaining, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.08);
}

TEST(JanusTest, DeleteMissingIdReturnsFalse) {
  auto ds = GenerateUniform(1000, 1, 13);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  EXPECT_FALSE(system.Delete(999999));
  EXPECT_TRUE(system.Delete(5));
  EXPECT_FALSE(system.Delete(5));
}

TEST(JanusTest, HeavyDeletionsTriggerReservoirResample) {
  auto ds = GenerateUniform(5000, 1, 15);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  // Delete 80% of the data; the reservoir must re-sample at least once.
  for (uint64_t id = 0; id < 4000; ++id) system.Delete(id);
  EXPECT_GE(system.counters().reservoir_resamples, 1u);
  // Reservoir samples must all still be live tuples.
  for (const Tuple& t : system.reservoir().samples()) {
    EXPECT_TRUE(system.table().Find(t.id).has_value());
  }
}

TEST(JanusTest, ReinitializeRebuildsAndRestartsCatchup) {
  auto ds = GenerateUniform(10000, 1, 17);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const size_t processed_before = system.catchup_processed();
  system.Reinitialize();
  EXPECT_EQ(system.counters().repartitions, 1u);
  EXPECT_LT(system.catchup_processed(), processed_before);
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.3, 0.7);
  const auto truth = ExactAnswer(ds.rows, q);
  EXPECT_LT(std::abs(system.Query(q).estimate - *truth) / *truth, 0.10);
  EXPECT_GT(system.counters().last_reopt_seconds, 0.0);
  EXPECT_GE(system.counters().last_reopt_seconds,
            system.counters().last_blocking_seconds);
}

TEST(JanusTest, ConcurrentReinitializeServesOldSynopsisMeanwhile) {
  auto ds = GenerateUniform(20000, 1, 19);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  ASSERT_TRUE(system.BeginBackgroundReopt());
  // While the side tree builds on another thread, updates and queries keep
  // working against the old synopsis.
  std::thread build([&system] { system.BuildBackgroundReopt(); });
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    Tuple t;
    t.id = 2000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    system.Insert(t);
  }
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  EXPECT_GT(system.Query(q).estimate, 0);
  build.join();
  ASSERT_TRUE(system.FinishBackgroundReopt());
  const double blocking = system.counters().last_blocking_seconds;
  EXPECT_GE(blocking, 0.0);
  EXPECT_EQ(system.counters().repartitions, 1u);
  // New synopsis sees all 21000 tuples.
  system.RunCatchupToGoal();
  const auto r = system.Query(q);
  EXPECT_NEAR(r.estimate, 21000.0, 21000.0 * 0.05);
}

TEST(JanusTest, PipelineBuildStageReportsItsTimings) {
  auto ds = GenerateUniform(20000, 1, 23);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  const JanusCounters init = system.counters();
  EXPECT_GT(init.last_partition_seconds, 0.0);
  EXPECT_LE(init.last_partition_seconds, init.last_build_seconds);
  ASSERT_TRUE(system.BeginBackgroundReopt());
  system.BuildBackgroundReopt();
  // Published with the run's outcome, at Finish.
  EXPECT_EQ(system.counters().last_build_seconds, init.last_build_seconds);
  ASSERT_TRUE(system.FinishBackgroundReopt());
  const JanusCounters& run = system.counters();
  EXPECT_GT(run.last_partition_seconds, 0.0);
  EXPECT_LE(run.last_partition_seconds, run.last_build_seconds);
  EXPECT_NE(run.last_build_seconds, init.last_build_seconds);
  // The Build stage excludes Begin and Finish; the whole run includes it.
  EXPECT_LE(run.last_build_seconds, run.last_reopt_seconds);
}

TEST(JanusTest, TriggerFiresRunInlineUnlessAnOwnerIsRegistered) {
  auto ds = GenerateUniform(5000, 1, 27);
  JanusOptions opts = BaseOptions();
  opts.enable_triggers = true;
  opts.trigger_check_interval = 16;
  opts.starvation_factor = 1e9;  // every evaluation reports starvation
  auto insert64 = [](JanusAqp* system) {
    Rng rng(29);
    for (int i = 0; i < 64; ++i) {
      Tuple t;
      t.id = 4000000 + static_cast<uint64_t>(i);
      t[0] = rng.NextDouble();
      t[1] = rng.Normal(10, 2);
      system->Insert(t);
    }
  };

  // No owner: each of the 4 fires runs all three stages on the updater.
  JanusAqp inline_system(opts);
  inline_system.LoadInitial(ds.rows);
  inline_system.Initialize();
  insert64(&inline_system);
  const JanusCounters& c = inline_system.counters();
  EXPECT_EQ(c.trigger_fires, 4u);
  EXPECT_EQ(c.repartitions, 4u);
  EXPECT_EQ(c.background_reopts, 0u);
  EXPECT_EQ(c.background_discards, 0u);
  EXPECT_EQ(c.last_blocking_seconds, c.last_reopt_seconds);
  EXPECT_FALSE(inline_system.ReoptRequested());
  EXPECT_FALSE(inline_system.BackgroundReoptActive());

  // With an owner: fires only record the request and call the hook; the
  // owner's run counts as a background re-optimization.
  JanusAqp owned(opts);
  owned.LoadInitial(ds.rows);
  owned.Initialize();
  int kicks = 0;
  owned.SetReoptNotify([&kicks] { ++kicks; });
  insert64(&owned);
  EXPECT_EQ(kicks, 4);
  EXPECT_EQ(owned.counters().repartitions, 0u);
  ASSERT_TRUE(owned.ReoptRequested());
  ASSERT_TRUE(owned.BeginBackgroundReopt());
  owned.BuildBackgroundReopt();
  ASSERT_TRUE(owned.FinishBackgroundReopt());
  EXPECT_FALSE(owned.ReoptRequested());
  EXPECT_EQ(owned.counters().repartitions, 1u);
  EXPECT_EQ(owned.counters().background_reopts, 1u);
}

TEST(JanusTest, MultiThreadedUpdatesAreConsistent) {
  auto ds = GenerateUniform(10000, 1, 23);
  JanusOptions opts = BaseOptions();
  JanusAqp system(opts);
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  // 8 worker threads, each inserting 1000 distinct tuples.
  ThreadPool pool(8);
  for (int w = 0; w < 8; ++w) {
    pool.Submit([&system, w] {
      Rng rng(static_cast<uint64_t>(w) + 100);
      for (int i = 0; i < 1000; ++i) {
        Tuple t;
        t.id = 3000000 + static_cast<uint64_t>(w) * 1000 +
               static_cast<uint64_t>(i);
        t[0] = rng.NextDouble();
        t[1] = rng.Normal(10, 2);
        system.Insert(t);
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(system.counters().inserts, 8000u);
  EXPECT_EQ(system.table().size(), 18000u);
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  EXPECT_NEAR(system.Query(q).estimate, 18000.0, 18000.0 * 0.05);
}

TEST(JanusTest, MinMaxSupported) {
  auto ds = GenerateUniform(10000, 1, 25);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery qmin = MakeQuery(AggFunc::kMin, 0.0, 1.0);
  const AggQuery qmax = MakeQuery(AggFunc::kMax, 0.0, 1.0);
  const auto tmin = ExactAnswer(ds.rows, qmin);
  const auto tmax = ExactAnswer(ds.rows, qmax);
  // Catch-up statistics see a sample of the data, so the extremes are
  // sample extremes: inner approximations of the true MIN/MAX.
  EXPECT_GE(system.Query(qmin).estimate, *tmin - 1e-9);
  EXPECT_LE(system.Query(qmax).estimate, *tmax + 1e-9);
  EXPECT_NEAR(system.Query(qmin).estimate, *tmin, 3.0);
  EXPECT_NEAR(system.Query(qmax).estimate, *tmax, 3.0);
}

TEST(JanusTest, QueryLatencyIndependentOfTableSize) {
  // The query procedure never touches the archive: latency is a function of
  // the synopsis (k, m), not of |D| (Sec. 4.4's zero-I/O claim, tested as a
  // node-access property rather than wall clock).
  auto small = GenerateUniform(5000, 1, 27);
  auto large = GenerateUniform(50000, 1, 29);
  for (const auto* ds : {&small, &large}) {
    JanusAqp system(BaseOptions());
    system.LoadInitial(ds->rows);
    system.Initialize();
    system.RunCatchupToGoal();
    const AggQuery q = MakeQuery(AggFunc::kSum, 0.25, 0.75);
    const QueryResult r = system.Query(q);
    // Frontier sizes are bounded by the tree, not the data.
    EXPECT_LE(r.covered_nodes, 64u);
    EXPECT_LE(r.partial_leaves, 4u);
  }
}

/// Serialized bytes of any SaveTo-able part of a system.
template <typename T>
std::vector<uint8_t> SavedBytes(const T& part) {
  persist::Writer w;
  part.SaveTo(&w);
  return w.buffer();
}

/// A sliding window over arrival order with a drifting aggregate: the
/// oldest leaf drains (starvation fires) and the values drift (drift fires).
void SlideWindow(JanusAqp* system, uint64_t first_id, uint64_t oldest,
                 int ops) {
  Rng rng(29);
  for (int i = 0; i < ops; ++i) {
    const uint64_t id = first_id + static_cast<uint64_t>(i);
    Tuple t;
    t.id = id;
    t[0] = static_cast<double>(id);
    t[1] = rng.Normal(10.0 + 1e-3 * static_cast<double>(i), 2.0);
    system->Insert(t);
    ASSERT_TRUE(system->Delete(oldest + static_cast<uint64_t>(i)));
  }
}

TEST(JanusTest, PooledReoptimizationIsBitIdenticalToSerial) {
  // With a scan pool a blocking fire copies the archive beside the
  // optimizer, builds the side tree's parts in parallel and frees the
  // retired tree on the pool. None of it may change a bit.
  std::vector<Tuple> rows(20000);
  Rng rng(27);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].id = i;
    rows[i][0] = static_cast<double>(i);
    rows[i][1] = rng.Normal(10.0, 2.0);
  }
  auto run = [&](ThreadPool* threads) {
    JanusOptions o = BaseOptions();
    o.num_leaves = 16;
    o.enable_triggers = true;
    o.exec.pool = threads;
    auto system = std::make_unique<JanusAqp>(o);
    system->LoadInitial(rows);
    system->Initialize();
    SlideWindow(system.get(), rows.size(), 0, 12000);
    system->RunCatchupToGoal();
    return system;
  };
  const auto serial = run(nullptr);
  ASSERT_GT(serial->counters().repartitions, 1u);
  ASSERT_GT(serial->counters().trigger_fires,
            serial->counters().repartitions);
  for (const size_t width : {2, 4, 8}) {
    ThreadPool threads(width);
    const auto pooled = run(&threads);
    const std::string label = std::to_string(width) + " pool threads";
    EXPECT_EQ(pooled->counters().trigger_checks,
              serial->counters().trigger_checks) << label;
    EXPECT_EQ(pooled->counters().trigger_fires,
              serial->counters().trigger_fires) << label;
    EXPECT_EQ(pooled->counters().repartitions,
              serial->counters().repartitions) << label;
    EXPECT_EQ(SavedBytes(pooled->table()), SavedBytes(serial->table()))
        << label;
    EXPECT_EQ(SavedBytes(pooled->reservoir()),
              SavedBytes(serial->reservoir())) << label;
    EXPECT_EQ(SavedBytes(pooled->dpt()), SavedBytes(serial->dpt())) << label;
    const AggQuery q = MakeQuery(AggFunc::kSum, 15000.0, 25000.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(pooled->Query(q).estimate),
              std::bit_cast<uint64_t>(serial->Query(q).estimate)) << label;
  }
}

/// One row of a sliding window over arrival order: the arrival time, a
/// uniform second predicate, a drifting aggregate and an extra column.
Tuple WindowRow(uint64_t id, Rng* rng) {
  Tuple t;
  t.id = id;
  t[0] = static_cast<double>(id);
  t[1] = rng->NextDouble();
  t[2] = rng->Normal(10.0 + 1e-3 * static_cast<double>(id), 2.0);
  t[3] = rng->Normal(5.0, 1.0);
  return t;
}

TEST(JanusTest, SlidingWindowAnswersMatchRecordedDigests) {
  // Two systems on one churned sliding window that re-partitions: a 2-D
  // template, and a 1-D one that also tracks an extra column. Every answer
  // below, and the trigger counters, hash to digests recorded from an
  // earlier build, so a change that moves one bit of them fails here. 1-D
  // SUM/AVG on the template's aggregate column are left out: they sum a
  // partial leaf from the rank tree's subtree sums, in the tree's order
  // (DptPartialLeafTest checks them against brute force).
  constexpr uint64_t kRows = 20000;
  constexpr uint64_t kSteps = 24000;
  Rng data_rng(41);
  std::vector<Tuple> rows;
  for (uint64_t id = 0; id < kRows; ++id) {
    rows.push_back(WindowRow(id, &data_rng));
  }
  JanusOptions two = BaseOptions();
  two.spec.agg_column = 2;
  two.spec.predicate_columns = {0, 1};
  two.enable_triggers = true;
  two.trigger_check_interval = 32;
  JanusOptions one = two;
  one.spec.predicate_columns = {0};
  one.num_leaves = 16;
  one.extra_tracked_columns = {3};
  JanusAqp a(two);
  JanusAqp b(one);
  for (JanusAqp* s : {&a, &b}) {
    s->LoadInitial(rows);
    s->Initialize();
  }

  enum Path { k2d, k1dCount, k1dMinMax, k1dExtra, kOffTemplate, kPaths };
  const char* const names[kPaths] = {"2-D SUM/COUNT/AVG", "1-D COUNT",
                                     "1-D MIN/MAX", "1-D extra column",
                                     "off-template"};
  std::vector<persist::Writer> answers(kPaths);
  auto answer = [&](Path path, const JanusAqp& s, AggFunc f,
                    std::vector<int> pred, int agg, Rectangle rect) {
    AggQuery q;
    q.func = f;
    q.agg_column = agg;
    q.predicate_columns = std::move(pred);
    q.rect = std::move(rect);
    const QueryResult r = s.Query(q);
    answers[path].F64(r.estimate);
    answers[path].F64(r.ci_half_width);
  };
  Rng query_rng(43);
  for (uint64_t step = 0; step < kSteps; ++step) {
    const Tuple t = WindowRow(kRows + step, &data_rng);
    for (JanusAqp* s : {&a, &b}) {
      s->Insert(t);
      ASSERT_TRUE(s->Delete(step));
    }
    if ((step + 1) % 1000 != 0) continue;
    const double oldest = static_cast<double>(step + 1);
    for (int k = 0; k < 4; ++k) {
      const double lo = oldest + query_rng.Uniform(0, 0.8) * kRows;
      const double hi = lo + query_rng.Uniform(0.01, 0.2) * kRows;
      const double y0 = query_rng.Uniform(0, 0.5);
      const double y1 = y0 + query_rng.Uniform(0.1, 0.5);
      for (const AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
        answer(k2d, a, f, {0, 1}, 2, Rectangle({lo, y0}, {hi, y1}));
        answer(k1dExtra, b, f, {0}, 3, Rectangle({lo}, {hi}));
      }
      answer(k1dCount, b, AggFunc::kCount, {0}, 2, Rectangle({lo}, {hi}));
      for (const AggFunc f : {AggFunc::kMin, AggFunc::kMax}) {
        answer(k1dMinMax, b, f, {0}, 2, Rectangle({lo}, {hi}));
      }
      answer(kOffTemplate, b, AggFunc::kSum, {1}, 2, Rectangle({y0}, {y1}));
    }
  }
  EXPECT_GT(a.counters().repartitions, 1u);
  EXPECT_GT(b.counters().repartitions, 1u);
  persist::Writer counters;
  for (const JanusAqp* s : {&a, &b}) {
    counters.U64(s->counters().trigger_checks);
    counters.U64(s->counters().trigger_fires);
    counters.U64(s->counters().repartitions);
  }
  const char* const expected[kPaths] = {
      "0x7b8875791f2d9dc7", "0x95f1ae7454477e22", "0x97cae9b4e660911a",
      "0xc801f1ea17e73094", "0x27a4354e779b3aae"};
  for (int p = 0; p < kPaths; ++p) {
    EXPECT_EQ(DigestHex(answers[p]), expected[p]) << names[p];
  }
  EXPECT_EQ(DigestHex(counters), "0xf0c3bbe3ab5fc9f7")
      << "trigger checks/fires/re-partitions: " << a.counters().trigger_checks
      << "/" << a.counters().trigger_fires << "/" << a.counters().repartitions
      << " (2-D), " << b.counters().trigger_checks << "/"
      << b.counters().trigger_fires << "/" << b.counters().repartitions
      << " (1-D)";
}

TEST(JanusTest, PooledMultiRebuildIsBitIdenticalToSerial) {
  // A two-template rebuild runs through the same pipeline: each template's
  // side tree built in parallel parts on the pool.
  const GeneratedDataset ds = GenerateUniform(20000, 2, 31);
  auto run = [&](ThreadPool* threads) {
    JanusOptions o = BaseOptions();
    o.exec.pool = threads;
    o.spec.agg_column = 2;
    auto multi = std::make_unique<JanusAqp>(o);
    SynopsisSpec two;
    two.agg_column = 2;
    two.predicate_columns = {0, 1};
    multi->AddTemplate(two);
    multi->LoadInitial(ds.rows);
    multi->Initialize();
    Rng rng(33);
    for (int i = 0; i < 3000; ++i) {
      Tuple t;
      t.id = 100000 + static_cast<uint64_t>(i);
      t[0] = rng.NextDouble();
      t[1] = rng.NextDouble();
      t[2] = rng.Normal(12.0, 3.0);
      multi->Insert(t);
      EXPECT_TRUE(multi->Delete(static_cast<uint64_t>(i) * 5));
    }
    EXPECT_TRUE(multi->Rebuild());
    multi->RunCatchupToGoal();
    // Every part but the catch-up engines, whose state carries wall-clock
    // processing time; their draws land in the trees' statistics.
    std::vector<uint8_t> bytes = SavedBytes(multi->table());
    for (size_t i = 0; i < multi->num_templates(); ++i) {
      const std::vector<uint8_t> tree =
          SavedBytes(multi->dpt(static_cast<int>(i)));
      bytes.insert(bytes.end(), tree.begin(), tree.end());
    }
    const std::vector<uint8_t> pool_bytes = SavedBytes(multi->reservoir());
    bytes.insert(bytes.end(), pool_bytes.begin(), pool_bytes.end());
    return bytes;
  };
  const std::vector<uint8_t> serial = run(nullptr);
  for (const size_t width : {2, 4, 8}) {
    ThreadPool threads(width);
    EXPECT_EQ(run(&threads), serial) << width << " pool threads";
  }
}

TEST(JanusTest, CatchupSnapshotCopiesOnlyThePagesDeletesChange) {
  // No rebuild copies the archive: catch-up reads it through a view that
  // copies a page of it only before a delete changes that page.
  auto ds = GenerateUniform(20000, 1, 37);
  JanusOptions o = BaseOptions();
  o.enable_triggers = true;
  o.trigger_check_interval = 16;
  o.starvation_factor = 1e9;  // every evaluation fires
  JanusAqp s(o);
  s.SetReoptNotify([] {});  // fires wait for the test to run them
  s.LoadInitial(ds.rows);
  s.Initialize();
  EXPECT_FALSE(s.catchup()->snapshot().owned());
  uint64_t next = 0;
  for (; next < 16; ++next) ASSERT_TRUE(s.Delete(next));
  ASSERT_TRUE(s.ReoptRequested());
  const ColumnStore at_begin = s.table().store().WithoutIndex();
  ASSERT_TRUE(s.BeginBackgroundReopt());
  s.BuildBackgroundReopt();
  ASSERT_TRUE(s.FinishBackgroundReopt());
  // The adopted fire's catch-up holds no archive rows.
  const ArchiveSnapshot& snap = s.catchup()->snapshot();
  EXPECT_FALSE(snap.owned());
  EXPECT_EQ(snap.size(), at_begin.size());
  EXPECT_EQ(snap.copied_rows(), 0u);
  // Deleting the oldest rows changes the first page and, through the rows
  // swapped down, the last one; a step copies nothing.
  for (; next < 516; ++next) ASSERT_TRUE(s.Delete(next));
  const size_t copied = snap.copied_rows();
  EXPECT_GT(copied, ArchiveSnapshot::kPageRows);
  EXPECT_LE(copied, 2 * ArchiveSnapshot::kPageRows);
  EXPECT_EQ(s.StepCatchup(512), 512u);
  EXPECT_EQ(snap.copied_rows(), copied);
  persist::Writer got, want;
  snap.SaveTo(&got);
  at_begin.SaveTo(&want);
  EXPECT_EQ(got.buffer(), want.buffer());
  // Deleting on until every page is copied (the two ends meet near the
  // middle) copies each page once: never more than the archive.
  while (snap.copied_rows() < snap.size()) {
    ASSERT_LT(next, ds.rows.size() / 2 + ArchiveSnapshot::kPageRows);
    ASSERT_TRUE(s.Delete(next++));
  }
  EXPECT_EQ(snap.copied_rows(), snap.size());
  EXPECT_EQ(s.StepCatchup(512), 512u);
  persist::Writer got_copied;
  snap.SaveTo(&got_copied);
  EXPECT_EQ(got_copied.buffer(), want.buffer());
}

// --- Catch-up over a moving archive ------------------------------------------
//
// Catch-up samples the archive as it stood when its tree was built, while
// the window keeps deleting from it. These runs step catch-up between
// deletes, re-optimize, and end with deletes after the last rebuild, so the
// snapshot each live catch-up serializes differs from the live table. The
// answers along the way and the final SaveTo bytes hash to digests recorded
// from an earlier build.

/// A sliding window driven through one system: each step inserts the next
/// arrival and deletes the oldest row.
template <typename System>
struct Window {
  System* system;
  Rng* rng;
  uint64_t head;
  uint64_t tail = 0;

  void Step() {
    system->Insert(WindowRow(head++, rng));
    ASSERT_TRUE(system->Delete(tail++));
  }
};

/// SaveTo bytes of `s` with the two wall-clock counters zeroed
/// (last_reopt_seconds and last_blocking_seconds, which follow the table,
/// the system RNG and eleven U64 counters), followed by SaveTemplates' bytes
/// when `templates`. The catch-up's processing time is 0 when no step ran
/// since it started, which the callers check.
std::string JanusSnapshotDigest(const JanusAqp& s, bool templates = false) {
  persist::Writer all, table, rng;
  s.SaveTo(&all);
  s.table().SaveTo(&table);
  Rng(0).SaveTo(&rng);
  std::vector<uint8_t> bytes = all.buffer();
  const size_t at =
      table.buffer().size() + rng.buffer().size() + 11 * sizeof(uint64_t);
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(at),
              2 * sizeof(double), uint8_t{0});
  persist::Writer masked;
  masked.Bytes(bytes.data(), bytes.size());
  if (templates) s.SaveTemplates(&masked);
  return DigestHex(masked);
}

struct WindowDigests {
  std::string answers;
  std::string snapshot;
  /// The table, the reservoir and each template's tree, in that order.
  std::string parts;
};

/// 1-D janus over a sliding window whose oldest leaf drains (starvation
/// fires) while the aggregate drifts (drift fires). `background` makes the
/// test the pipeline's owner: a fire runs as Begin, window steps, one
/// catch-up step, Build, window steps, Finish.
WindowDigests RunJanusWindow(bool background) {
  constexpr uint64_t kRows = 16000;
  constexpr uint64_t kSteps = 20000;
  Rng data_rng(51);
  std::vector<Tuple> rows;
  for (uint64_t id = 0; id < kRows; ++id) {
    rows.push_back(WindowRow(id, &data_rng));
  }
  JanusOptions o = BaseOptions();
  o.spec.agg_column = 2;
  o.num_leaves = 16;
  o.enable_triggers = true;
  o.trigger_check_interval = 32;
  // Adopts 3 starvation and 4 drift candidates in either mode (beta 10
  // adopts no drift candidate here, beta 3 no starvation one).
  o.beta = 4;
  JanusAqp s(o);
  if (background) s.SetReoptNotify([] {});
  s.LoadInitial(rows);
  s.Initialize();
  Window<JanusAqp> window{&s, &data_rng, kRows};
  persist::Writer answers;
  Rng query_rng(53);
  for (uint64_t step = 0; step < kSteps; ++step) {
    window.Step();
    if (step % 50 == 0) s.StepCatchup(40);
    if (background && s.ReoptRequested()) {
      EXPECT_TRUE(s.BeginBackgroundReopt());
      for (int i = 0; i < 3; ++i) window.Step();
      s.StepCatchup(64);
      s.BuildBackgroundReopt();
      for (int i = 0; i < 3; ++i) window.Step();
      s.FinishBackgroundReopt();
    }
    if ((step + 1) % 1000 != 0) continue;
    for (int k = 0; k < 4; ++k) {
      const double lo = static_cast<double>(window.tail) +
                        query_rng.Uniform(0, 0.8) * kRows;
      const double hi = lo + query_rng.Uniform(0.01, 0.2) * kRows;
      for (const AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
        AggQuery q = MakeQuery(f, lo, hi);
        q.agg_column = 2;
        const QueryResult r = s.Query(q);
        answers.F64(r.estimate);
        answers.F64(r.ci_half_width);
      }
    }
  }
  EXPECT_GT(s.counters().repartitions, 2u);
  EXPECT_GT(s.counters().trigger_fires, s.counters().repartitions);
  answers.U64(s.counters().trigger_checks);
  answers.U64(s.counters().trigger_fires);
  answers.U64(s.counters().repartitions);
  answers.U64(s.catchup_processed());
  // A rebuild, then deletes with no catch-up step: the snapshot the new
  // catch-up serializes is the archive as it stood at the rebuild.
  s.Reinitialize();
  for (int i = 0; i < 1500; ++i) window.Step();
  EXPECT_EQ(s.catchup_processed(), 0u);
  EXPECT_EQ(s.catchup_processing_seconds(), 0.0);
  return {DigestHex(answers), JanusSnapshotDigest(s), {}};
}

TEST(JanusTest, BlockingWindowWithCatchupMatchesRecordedDigests) {
  const WindowDigests d = RunJanusWindow(/*background=*/false);
  EXPECT_EQ(d.answers, "0x39b30519f0eca2af");
  EXPECT_EQ(d.snapshot, "0x2044aa364d4abfed");
}

TEST(JanusTest, BackgroundWindowWithCatchupMatchesRecordedDigests) {
  const WindowDigests d = RunJanusWindow(/*background=*/true);
  EXPECT_EQ(d.answers, "0x325306b0954d4481");
  EXPECT_EQ(d.snapshot, "0xfb00cbf2f2b3c1f0");
}

/// Several templates over the same kind of window: two registered up
/// front, a third discovered mid-stream, catch-up run to its goal between
/// deletes and a rebuild every 3000 steps. `background` runs each rebuild as
/// Begin, window steps, catch-up, Build, window steps, Finish.
WindowDigests RunMultiWindow(bool background) {
  constexpr uint64_t kRows = 12000;
  constexpr uint64_t kSteps = 11500;
  Rng data_rng(61);
  std::vector<Tuple> rows;
  for (uint64_t id = 0; id < kRows; ++id) {
    rows.push_back(WindowRow(id, &data_rng));
  }
  JanusOptions o = BaseOptions();
  o.spec.agg_column = 2;
  JanusAqp m(o);
  SynopsisSpec two = o.spec;
  two.predicate_columns = {0, 1};
  m.AddTemplate(two);
  m.LoadInitial(rows);
  m.Initialize();
  Window<JanusAqp> window{&m, &data_rng, kRows};
  auto rebuild = [&] {
    if (!background) {
      EXPECT_TRUE(m.Rebuild());
      return;
    }
    EXPECT_TRUE(m.BeginBackgroundReopt());
    for (int i = 0; i < 5; ++i) window.Step();
    m.RunCatchupToGoal();
    m.BuildBackgroundReopt();
    for (int i = 0; i < 5; ++i) window.Step();
    EXPECT_TRUE(m.FinishBackgroundReopt());
  };
  persist::Writer answers;
  Rng query_rng(63);
  auto query = [&](AggFunc f, std::vector<int> pred, Rectangle rect) {
    AggQuery q;
    q.func = f;
    q.agg_column = 2;
    q.predicate_columns = std::move(pred);
    q.rect = std::move(rect);
    // Routed by predicate columns; an unseen template is built on demand.
    int idx = m.TemplateFor(q.predicate_columns);
    if (idx < 0) idx = m.AddTemplate({q.agg_column, q.predicate_columns});
    const QueryResult r = m.dpt(idx).Query(q);
    answers.F64(r.estimate);
    answers.F64(r.ci_half_width);
  };
  for (uint64_t step = 0; step < kSteps; ++step) {
    window.Step();
    if (step % 3000 == 2999) rebuild();
    // Every other period catches up before its rebuild's Begin; the others
    // catch up between Begin and Finish in background mode.
    if (step % 6000 == 1000) m.RunCatchupToGoal();
    if (step == 4500) {
      query(AggFunc::kSum, {1}, Rectangle({0.2}, {0.7}));  // discovers {1}
    }
    if ((step + 1) % 1000 != 0) continue;
    const double lo =
        static_cast<double>(window.tail) + query_rng.Uniform(0, 0.8) * kRows;
    const double hi = lo + query_rng.Uniform(0.01, 0.2) * kRows;
    const double y0 = query_rng.Uniform(0, 0.5);
    const double y1 = y0 + query_rng.Uniform(0.1, 0.5);
    for (const AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
      query(f, {0}, Rectangle({lo}, {hi}));
      query(f, {0, 1}, Rectangle({lo, y0}, {hi, y1}));
      if (step >= 4500) query(f, {1}, Rectangle({y0}, {y1}));
    }
  }
  EXPECT_EQ(m.num_templates(), 3u);
  // The last rebuild restarted every catch-up; the deletes after it leave
  // each snapshot different from the live table.
  rebuild();
  for (int i = 0; i < 1500; ++i) window.Step();
  EXPECT_EQ(m.catchup_processed(), 0u);
  EXPECT_EQ(m.catchup_processing_seconds(), 0.0);
  persist::Writer parts;
  m.table().SaveTo(&parts);
  m.reservoir().SaveTo(&parts);
  for (size_t i = 0; i < m.num_templates(); ++i) {
    m.dpt(static_cast<int>(i)).SaveTo(&parts);
  }
  return {DigestHex(answers), JanusSnapshotDigest(m, /*templates=*/true),
          DigestHex(parts)};
}

// The answer and parts digests were recorded from the separate
// multi-template class this one replaced; the snapshot digest pins the
// payload the multi engine writes.
TEST(JanusTest, BlockingMultiWindowWithCatchupMatchesRecordedDigests) {
  const WindowDigests d = RunMultiWindow(/*background=*/false);
  EXPECT_EQ(d.answers, "0xf5979592d0673794");
  EXPECT_EQ(d.parts, "0x8ca4441ce915cfdc");
  EXPECT_EQ(d.snapshot, "0xb73947d1b6d68175");
}

TEST(JanusTest, BackgroundMultiWindowWithCatchupMatchesRecordedDigests) {
  const WindowDigests d = RunMultiWindow(/*background=*/true);
  EXPECT_EQ(d.answers, "0x35543405ff1145a4");
  EXPECT_EQ(d.parts, "0x70c76b579922c2b0");
  EXPECT_EQ(d.snapshot, "0x75636b59f30c1fca");
}

}  // namespace
}  // namespace janus
