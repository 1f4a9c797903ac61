// Background re-optimization equivalence (ISSUE 8 satellite): the three-stage
// Begin/Build/Finish pipeline with updates interleaved into the build window
// must produce exactly the state a *blocking* re-optimization at the Begin()
// snapshot would have produced followed by the same update stream — delta
// replay preserves live op order and the catch-up engine gets the same seed,
// archive snapshot and goal. Counts compare bit-identically; FP aggregates to
// 1e-12 relative. The interleaved streams deliberately include deletes heavy
// enough to force reservoir resamples mid-build (the kSampleReset delta op).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "core/janus.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "tests/test_seed.h"
#include "util/rng.h"

namespace janus {
namespace {

/// Relative FP tolerance of the equivalence contract.
constexpr double kRelTol = 1e-12;

void ExpectClose(double a, double b, const std::string& what) {
  if (a == b) return;  // covers exact zeros and bit-identical paths
  const double denom = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b) / denom, kRelTol) << what << ": " << a
                                              << " vs " << b;
}

/// Deterministic mixed update stream applied to N systems in lockstep, so
/// every instance sees the identical op sequence (and therefore identical
/// reservoir decisions and RNG draws).
template <typename System>
class LockstepStream {
 public:
  LockstepStream(uint64_t seed, uint64_t first_id, std::vector<uint64_t> live)
      : rng_(seed), next_id_(first_id), live_(std::move(live)) {}

  /// `delete_prob` in [0,1]; deletes pick a random live id.
  void Apply(std::vector<System*> systems, int ops, double delete_prob,
             int dims) {
    for (int i = 0; i < ops; ++i) {
      if (!live_.empty() && rng_.NextDouble() < delete_prob) {
        const size_t pick =
            static_cast<size_t>(rng_.Next() % live_.size());
        const uint64_t id = live_[pick];
        live_[pick] = live_.back();
        live_.pop_back();
        for (System* s : systems) ASSERT_TRUE(s->Delete(id));
        continue;
      }
      Tuple t;
      t.id = next_id_++;
      for (int d = 0; d < dims; ++d) t[d] = rng_.NextDouble();
      t[dims] = rng_.Normal(10, 3);
      live_.push_back(t.id);
      for (System* s : systems) s->Insert(t);
    }
  }

  const std::vector<uint64_t>& live() const { return live_; }

 private:
  Rng rng_;
  uint64_t next_id_;
  std::vector<uint64_t> live_;
};

// --- JanusAqp core equivalence ----------------------------------------------

JanusOptions JanusEquivOptions() {
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 16;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  // Triggers stay armed but silent: the check interval is larger than any
  // update count this test applies, so the only evaluation is the manual
  // CheckTriggers() loop that drives the *blocking* instance — and with this
  // starvation factor that evaluation always reports starvation, i.e. an
  // unconditional full rebuild.
  o.enable_triggers = true;
  o.trigger_check_interval = 1u << 20;
  o.starvation_factor = 1e9;
  o.beta = 1e18;
  o.partial_repartition_psi = 0;
  // Small tail: the pre-drain and the exclusive tail replay both execute.
  o.reopt_delta_tail = 16;
  o.seed = TestSeed();
  return o;
}

AggQuery JanusQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

void ExpectSameAnswers(const JanusAqp& blocking, const JanusAqp& background) {
  Rng rng(TestSeed() + 77);
  const AggFunc funcs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                           AggFunc::kMin, AggFunc::kMax};
  for (int round = 0; round < 25; ++round) {
    const double a = rng.NextDouble(), b = rng.NextDouble();
    for (AggFunc f : funcs) {
      const AggQuery q = JanusQuery(f, std::min(a, b), std::max(a, b));
      const QueryResult ra = blocking.Query(q);
      const QueryResult rb = background.Query(q);
      const std::string what =
          "round " + std::to_string(round) + " func " +
          std::to_string(static_cast<int>(f));
      if (f == AggFunc::kCount) {
        // Counts are integral sums over identical op sequences: bit-exact.
        EXPECT_EQ(ra.estimate, rb.estimate) << what;
      } else {
        ExpectClose(ra.estimate, rb.estimate, what + " estimate");
      }
      ExpectClose(ra.ci_half_width, rb.ci_half_width, what + " ci");
    }
  }
}

void ExpectSameTree(const JanusAqp& blocking, const JanusAqp& background) {
  const PartitionTreeSpec& ta = blocking.dpt().tree();
  const PartitionTreeSpec& tb = background.dpt().tree();
  ASSERT_EQ(ta.nodes.size(), tb.nodes.size());
  ASSERT_EQ(ta.leaves, tb.leaves);
  for (size_t i = 0; i < ta.nodes.size(); ++i) {
    EXPECT_EQ(ta.nodes[i].split_dim, tb.nodes[i].split_dim) << "node " << i;
    EXPECT_EQ(ta.nodes[i].split_val, tb.nodes[i].split_val) << "node " << i;
    EXPECT_EQ(ta.nodes[i].left, tb.nodes[i].left) << "node " << i;
    EXPECT_EQ(ta.nodes[i].right, tb.nodes[i].right) << "node " << i;
  }
}

TEST(ReoptBackgroundTest, PipelineMatchesBlockingRepartitionWithInterleaving) {
  auto ds = GenerateUniform(4000, 1, static_cast<int>(TestSeed() % 1000));
  JanusAqp blocking(JanusEquivOptions());
  // Same knobs, but trigger evaluations on the background instance must only
  // record requests (an inline rebuild there would break the lockstep).
  JanusOptions bg_opts = JanusEquivOptions();
  JanusAqp background(bg_opts);
  background.SetReoptNotify([] {});
  for (JanusAqp* s : {&blocking, &background}) {
    s->LoadInitial(ds.rows);
    s->Initialize();
  }

  std::vector<uint64_t> live;
  for (const Tuple& t : ds.rows) live.push_back(t.id);
  LockstepStream<JanusAqp> stream(TestSeed() + 1, 1000000, std::move(live));

  // Phase 1: identical pre-pipeline history (total ops stay far below the
  // check interval, so no spontaneous trigger evaluation ever runs).
  stream.Apply({&blocking, &background}, 600, 0.3, 1);

  // Point P. Background: stage 1 under (single-threaded) update exclusion.
  // Blocking: drive CheckTriggers until the interval elapses and the starved
  // evaluation runs the full rebuild inline. Both draw exactly one RNG value
  // (the catch-up seed), so the streams stay aligned.
  ASSERT_TRUE(background.BeginBackgroundReopt());
  EXPECT_TRUE(background.BackgroundReoptActive());
  Tuple probe;
  probe.id = 999999999;
  probe[0] = 0.5;
  probe[1] = 0.0;
  bool fired = false;
  for (int i = 0; i < (1 << 21) && !fired; ++i) {
    fired = blocking.CheckTriggers(probe);
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(blocking.counters().repartitions, 1u);

  // Phase 2: updates land while the side tree builds — the blocking instance
  // applies them to its already-swapped tree, the background instance
  // double-applies them to the delta buffer. Heavy deletes force at least one
  // reservoir resample inside the capture window (kSampleReset coverage).
  // Pure deletes: insertions below capacity refill the reservoir
  // immediately, so only a delete-only run shrinks it to its lower bound.
  const uint64_t resamples_before = background.counters().reservoir_resamples;
  stream.Apply({&blocking, &background}, 3000, 1.0, 1);
  EXPECT_GT(background.counters().reservoir_resamples, resamples_before)
      << "stream did not force a mid-build reservoir resample";

  background.BuildBackgroundReopt();

  // Phase 3: more updates after the pre-drain; these form the delta tail
  // replayed inside the exclusive adoption step.
  stream.Apply({&blocking, &background}, 100, 0.3, 1);

  ASSERT_TRUE(background.FinishBackgroundReopt());
  EXPECT_FALSE(background.BackgroundReoptActive());
  EXPECT_EQ(background.counters().background_reopts, 1u);
  EXPECT_GT(background.counters().delta_ops_replayed, 0u);

  // Phase 4: the pipelines are over; both instances keep absorbing updates
  // and then drive catch-up to the same goal with the same seed.
  stream.Apply({&blocking, &background}, 200, 0.3, 1);
  blocking.RunCatchupToGoal();
  background.RunCatchupToGoal();

  ExpectSameTree(blocking, background);
  ExpectSameAnswers(blocking, background);
  blocking.CheckInvariants();
  background.CheckInvariants();
}

TEST(ReoptBackgroundTest, StaleSideTreeIsDiscardedNotAdopted) {
  auto ds = GenerateUniform(2000, 1, 21);
  JanusOptions o = JanusEquivOptions();
  o.enable_triggers = false;
  JanusAqp system(o);
  system.LoadInitial(ds.rows);
  system.Initialize();

  ASSERT_TRUE(system.BeginBackgroundReopt());
  system.BuildBackgroundReopt();
  // The synopsis is replaced by another path mid-pipeline: the side tree's
  // snapshot, delta stream and catch-up seed now describe a dead tree.
  system.Reinitialize();
  EXPECT_FALSE(system.FinishBackgroundReopt());
  EXPECT_EQ(system.counters().background_discards, 1u);
  EXPECT_EQ(system.counters().background_reopts, 0u);
  system.CheckInvariants();

  // The pipeline is reusable after a discard.
  ASSERT_TRUE(system.BeginBackgroundReopt());
  system.BuildBackgroundReopt();
  EXPECT_TRUE(system.FinishBackgroundReopt());
  EXPECT_EQ(system.counters().background_reopts, 1u);
  system.CheckInvariants();
}

// --- Multi-template equivalence ----------------------------------------------

JanusOptions MultiEquivOptions() {
  JanusOptions o;
  o.spec.agg_column = 2;
  o.spec.predicate_columns = {0};
  o.num_leaves = 16;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  o.enable_triggers = false;
  o.reopt_delta_tail = 16;
  o.seed = TestSeed();
  return o;
}

AggQuery MultiQuery(AggFunc f, std::vector<int> preds, std::vector<double> lo,
                    std::vector<double> hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 2;
  q.predicate_columns = std::move(preds);
  q.rect = Rectangle(std::move(lo), std::move(hi));
  return q;
}

/// Answer `q` from the template with its predicate columns, building one on
/// demand when none exists (what the multi engine does).
QueryResult RoutedQuery(JanusAqp* s, const AggQuery& q) {
  int idx = s->TemplateFor(q.predicate_columns);
  if (idx < 0) idx = s->AddTemplate({q.agg_column, q.predicate_columns});
  return s->dpt(idx).Query(q);
}

TEST(ReoptBackgroundTest, MultiPipelineMatchesBlockingRebuild) {
  auto ds = GenerateUniform(5000, 2, static_cast<int>(TestSeed() % 997));
  JanusAqp blocking(MultiEquivOptions());
  JanusAqp background(MultiEquivOptions());
  SynopsisSpec s1;
  s1.agg_column = 2;
  s1.predicate_columns = {1};
  for (JanusAqp* s : {&blocking, &background}) {
    s->AddTemplate(s1);
    s->LoadInitial(ds.rows);
    s->Initialize();
  }

  std::vector<uint64_t> live;
  for (const Tuple& t : ds.rows) live.push_back(t.id);
  LockstepStream<JanusAqp> stream(TestSeed() + 2, 2000000, std::move(live));
  stream.Apply({&blocking, &background}, 400, 0.3, 2);

  // Point P: blocking instance rebuilds every template inline; background
  // instance opens the pipeline. Both draw one catch-up seed per template in
  // template order, keeping the RNG streams aligned.
  ASSERT_TRUE(blocking.Rebuild());
  ASSERT_TRUE(background.BeginBackgroundReopt());
  EXPECT_TRUE(background.BackgroundReoptActive());

  // Mid-build updates (heavy deletes: enough evictions to resample the
  // shared reservoir inside the window) plus an on-demand template discovered
  // by a query DURING the build. The discovered tree is built from the live
  // reservoir on both instances and must not be swapped at adoption.
  stream.Apply({&blocking, &background}, 3200, 1.0, 2);
  const AggQuery discover =
      MultiQuery(AggFunc::kSum, {0, 1}, {0.1, 0.1}, {0.9, 0.9});
  (void)RoutedQuery(&blocking, discover);
  (void)RoutedQuery(&background, discover);
  ASSERT_EQ(blocking.num_templates(), 3u);
  ASSERT_EQ(background.num_templates(), 3u);

  background.BuildBackgroundReopt();
  stream.Apply({&blocking, &background}, 100, 0.3, 2);

  const uint64_t replayed_before = background.counters().delta_ops_replayed;
  ASSERT_TRUE(background.FinishBackgroundReopt());
  EXPECT_GT(background.counters().delta_ops_replayed, replayed_before);
  EXPECT_EQ(background.counters().background_reopts, 1u);
  EXPECT_FALSE(background.BackgroundReoptActive());

  stream.Apply({&blocking, &background}, 150, 0.3, 2);
  blocking.RunCatchupToGoal();
  background.RunCatchupToGoal();

  Rng rng(TestSeed() + 5);
  for (int round = 0; round < 20; ++round) {
    const double a = rng.NextDouble() * 0.5, b = 0.5 + rng.NextDouble() * 0.5;
    const std::vector<AggQuery> queries = {
        MultiQuery(AggFunc::kCount, {0}, {a}, {b}),
        MultiQuery(AggFunc::kSum, {0}, {a}, {b}),
        MultiQuery(AggFunc::kCount, {1}, {a}, {b}),
        MultiQuery(AggFunc::kAvg, {1}, {a}, {b}),
        MultiQuery(AggFunc::kSum, {0, 1}, {a, a}, {b, b}),
    };
    for (const AggQuery& q : queries) {
      const QueryResult ra = RoutedQuery(&blocking, q);
      const QueryResult rb = RoutedQuery(&background, q);
      const std::string what = "round " + std::to_string(round);
      if (q.func == AggFunc::kCount) {
        EXPECT_EQ(ra.estimate, rb.estimate) << what;
      } else {
        ExpectClose(ra.estimate, rb.estimate, what + " estimate");
      }
      ExpectClose(ra.ci_half_width, rb.ci_half_width, what + " ci");
    }
  }
}

// --- Engine-level plumbing ---------------------------------------------------

EngineConfig BackgroundEngineConfig() {
  EngineConfig c;
  c.engine = "janus";
  c.num_leaves = 16;
  c.sample_rate = 0.02;
  c.enable_triggers = true;
  c.trigger_check_interval = 16;
  c.starvation_factor = 1e9;  // every evaluation requests a re-optimization
  c.reopt_mode = "background";
  c.seed = TestSeed();
  return c;
}

/// Poll an engine stat until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitForStats(const AqpEngine& e, Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred(e.Stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(ReoptBackgroundTest, JanusEngineRunsRequestsOnMaintenanceThread) {
  auto ds = GenerateUniform(8000, 1, 31);
  auto engine = EngineRegistry::Create(BackgroundEngineConfig());
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  auto rows = ds.rows;
  Rng rng(TestSeed() + 9);
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.id = 3000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    engine->Insert(t);
    rows.push_back(t);
  }
  // Trigger fires were recorded throughout; the maintenance thread must have
  // adopted at least one side tree by now (or shortly).
  EXPECT_TRUE(WaitForStats(
      *engine, [](const EngineStats& s) { return s.background_reopts > 0; }))
      << "maintenance thread never adopted a background re-optimization";
  engine->RunCatchupToGoal();

  const AggQuery q = JanusQuery(AggFunc::kSum, 0.2, 0.8);
  const auto truth = ExactAnswer(rows, q);
  const QueryResult r = engine->Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.1);

  const EngineStats s = engine->Stats();
  EXPECT_GT(s.trigger_fires, 0u);
  EXPECT_GT(s.repartitions, 0u);
  engine->CheckInvariants();
}

TEST(ReoptBackgroundTest, MultiEngineReinitializeIsAsyncInBackgroundMode) {
  EngineConfig c = BackgroundEngineConfig();
  c.engine = "multi";
  c.enable_triggers = false;
  auto ds = GenerateUniform(6000, 1, 41);
  auto engine = EngineRegistry::Create(c);
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  engine->Reinitialize();  // background mode: kicks the maintenance thread
  EXPECT_TRUE(WaitForStats(
      *engine, [](const EngineStats& s) { return s.background_reopts > 0; }))
      << "multi maintenance thread never finished the background rebuild";
  engine->RunCatchupToGoal();
  const AggQuery q = JanusQuery(AggFunc::kSum, 0.2, 0.8);
  const auto truth = ExactAnswer(ds.rows, q);
  EXPECT_LT(std::abs(engine->Query(q).estimate - *truth) / *truth, 0.1);
  engine->CheckInvariants();
}

TEST(ReoptBackgroundTest, PartialRepartitionFallbackIsCounted) {
  // Deterministic thin-region setup: the tree goes stale while the data
  // distribution shifts into a cluster and the original uniform mass is
  // drained down to two tuples. The probed leaf's psi=1 region then holds at
  // most those two reservoir samples (< 4), so the partial re-partition MUST
  // degrade to a full rebuild — and count the fallback instead of hiding it.
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 32;
  o.sample_rate = 0.02;
  o.enable_triggers = true;
  o.trigger_check_interval = 1u << 20;  // no organic evaluations
  o.starvation_factor = 1e9;
  o.partial_repartition_psi = 1;
  o.seed = TestSeed();
  JanusAqp system(o);
  auto ds = GenerateUniform(4000, 1, static_cast<int>(TestSeed() % 991));
  system.LoadInitial(ds.rows);
  system.Initialize();
  Rng rng(TestSeed() + 13);
  for (int i = 0; i < 8000; ++i) {
    Tuple t;
    t.id = 5000000 + static_cast<uint64_t>(i);
    t[0] = 0.99 + 0.01 * rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    system.Insert(t);
  }
  auto sorted = ds.rows;
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple& a, const Tuple& b) { return a[0] < b[0]; });
  for (size_t i = 2; i < sorted.size(); ++i) {
    ASSERT_TRUE(system.Delete(sorted[i].id));
  }
  bool fired = false;
  for (int i = 0; i < (1 << 21) && !fired; ++i) {
    fired = system.CheckTriggers(sorted[0]);
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(system.counters().partial_repartition_fallbacks, 1u);
  EXPECT_EQ(system.counters().partial_repartitions, 0u);
  EXPECT_EQ(system.counters().repartitions, 1u);  // the degraded full rebuild
}

TEST(ReoptBackgroundTest, FallbackCounterSurfacesInEngineStats) {
  // Same distribution-shift shape driven end-to-end through the engine API
  // (fixed seeds: the scenario is reproducible, organic fires every 8
  // updates). The counter must flow JanusCounters -> EngineStats.
  EngineConfig c;
  c.engine = "janus";
  c.num_leaves = 32;
  c.sample_rate = 0.02;
  c.enable_triggers = true;
  c.trigger_check_interval = 8;
  c.starvation_factor = 1e9;
  c.partial_repartition_psi = 1;
  c.reopt_mode = "blocking";
  c.seed = 42;
  auto ds = GenerateUniform(4000, 1, 51);
  auto engine = EngineRegistry::Create(c);
  engine->LoadInitial(ds.rows);
  engine->Initialize();
  Rng rng(9);
  for (int i = 0; i < 8000; ++i) {
    Tuple t;
    t.id = 5000000 + static_cast<uint64_t>(i);
    t[0] = 0.99 + 0.01 * rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    engine->Insert(t);
  }
  for (const Tuple& t : ds.rows) {
    if (t.id % 40 != 0) {
      ASSERT_TRUE(engine->Delete(t.id));
    }
  }
  const EngineStats s = engine->Stats();
  EXPECT_GT(s.trigger_fires, 0u);
  EXPECT_GT(s.partial_repartition_fallbacks, 0u)
      << "no fallback surfaced across " << s.trigger_fires << " fires";
}

}  // namespace
}  // namespace janus
