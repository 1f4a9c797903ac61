#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

TEST(SortedPercentileTest, MatchesLibraryType7Estimator) {
  janus::Rng rng(11);
  for (size_t n : {1u, 2u, 3u, 4u, 10u, 101u, 1000u}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(rng.Normal(5, 3));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(SortedPercentile(sorted, p), janus::Percentile(v, p))
          << "n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(SortedPercentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_EQ(SortedPercentile({}, 50), 0);
}

TEST(SummarizeTest, SortsAndReportsMedianTailAndMean) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.p50, 3);
  EXPECT_DOUBLE_EQ(s.p99, 4.96);
  EXPECT_EQ(s.mean, 3);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(WindowTest, MedianAcrossWindowsIgnoresOneDisturbedWindow) {
  std::vector<Window> windows(5);
  for (size_t i = 0; i < windows.size(); ++i) {
    Window& w = windows[i];
    w.seconds = 2;
    const double slow = i == 3 ? 100 : 1;  // one disturbed window
    for (int k = 1; k <= 100; ++k) w.update_ns.push_back(k * slow);
    for (int k = 1; k <= 10; ++k) w.query_ns.push_back(10 * k * slow);
    w.updates = i == 3 ? 20 : 100;  // the disturbed one completed fewer
    w.queries = 10;
  }
  const WindowedStats s = MedianOverWindows(&windows);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_EQ(s.update_rate, 50);
  EXPECT_EQ(s.query_rate, 5);
  EXPECT_DOUBLE_EQ(s.update_p50_ns, 50.5);
  EXPECT_DOUBLE_EQ(s.update_p99_ns, 99.01);
  EXPECT_DOUBLE_EQ(s.query_p50_ns, 55);
  EXPECT_DOUBLE_EQ(s.query_p99_ns, 99.1);
}

/// Scripted clock: sleeping jumps to the deadline, ops advance time by
/// their scripted service time.
struct FakeClock {
  mutable double now = 0;
  double Now() const { return now; }
  void SleepUntil(double t) const { now = std::max(now, t); }
};

TEST(OpenLoopTest, StallChargesEveryOpQueuedBehindIt) {
  FakeClock clock;
  const double interval = 1e-3;
  OpenLoopSamples out;
  const size_t issued = RunOpenLoop(
      clock, 0.0, interval, 20, 1e9, [](size_t) {},
      [&](size_t i) { clock.now += (i == 2 ? 10e-3 : 0.1e-3); }, &out);
  ASSERT_EQ(issued, 20u);
  ASSERT_EQ(out.latency.size(), 20u);
  // Before the stall: on time, latency = service time.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(out.lateness[i], 0, 1e-12);
    EXPECT_NEAR(out.latency[i], 0.1e-3, 1e-12);
  }
  EXPECT_NEAR(out.latency[2], 10e-3, 1e-12);
  // The stall ends at 12 ms; op i (due at i ms) starts no earlier than the
  // backlog drains, so it is charged the wait from its due time.
  double free_at = 12e-3;
  for (size_t i = 3; i < 20; ++i) {
    const double due = static_cast<double>(i) * interval;
    const double sent = std::max(due, free_at);
    free_at = sent + 0.1e-3;
    EXPECT_NEAR(out.lateness[i], sent - due, 1e-12) << i;
    EXPECT_NEAR(out.latency[i], free_at - due, 1e-12) << i;
  }
  EXPECT_GT(out.latency[3], 9e-3);
  EXPECT_GT(out.latency[12], 0.1e-3);  // still draining the backlog
  EXPECT_NEAR(out.latency[19], 0.1e-3, 1e-12);  // caught up
}

TEST(OpenLoopTest, StopsAtDeadlineAndPreparesBeforeEachOp) {
  FakeClock clock;
  OpenLoopSamples out;
  std::vector<size_t> prepared, issued_ops;
  const size_t issued = RunOpenLoop(
      clock, 1.0, 0.5, 100, 3.0, [&](size_t i) { prepared.push_back(i); },
      [&](size_t i) { issued_ops.push_back(i); }, &out);
  EXPECT_EQ(issued, 4u);  // due 1.0, 1.5, 2.0, 2.5
  EXPECT_EQ(prepared, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(issued_ops, prepared);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = parent == 0 ? 0 : 1;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  // Parent [0, 100] with overlapping children [10, 30] and [20, 50], a
  // disjoint child [70, 80] and one that overruns the parent [90, 120]:
  // covered = [10, 50] + [70, 80] + [90, 100] = 60, self = 40.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 70, 80), MakeSpan(5, 1, 90, 120)};
  const std::vector<SelfTime> t = ComputeSelfTimes(spans);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].count, 1u);
  EXPECT_EQ(t[0].total_ns, 100);
  EXPECT_EQ(t[0].self_ns, 40);
  // Children have no children: self time is their whole duration.
  EXPECT_EQ(t[1].count, 4u);
  EXPECT_EQ(t[1].total_ns, 20 + 30 + 10 + 30);
  EXPECT_EQ(t[1].self_ns, t[1].total_ns);
}

TEST(SelfTimeTest, GrandchildrenDoNotCountTwice) {
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 0, 60),
                             MakeSpan(3, 2, 10, 20)};
  spans[2].name = 2;
  const std::vector<SelfTime> t = ComputeSelfTimes(spans);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].self_ns, 40);  // root minus its child only
  EXPECT_EQ(t[1].self_ns, 50);  // child minus grandchild
  EXPECT_EQ(t[2].self_ns, 10);
}

TEST(SpanLogTest, ScopedSpansNestPerThreadAndRespectCapacity) {
  SpanLog log(2);
  const uint32_t outer = log.Intern("outer");
  const uint32_t inner = log.Intern("inner");
  EXPECT_EQ(log.Intern("outer"), outer);
  {
    ScopedSpan a(&log, outer, 7);
    { ScopedSpan b(&log, inner, 7); }
  }
  { ScopedSpan c(&log, inner, 8); }  // over capacity: dropped
  { ScopedSpan off(nullptr, inner, 9); }  // null log: no-op
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  const Span& b = spans[0];  // inner closes first
  const Span& a = spans[1];
  EXPECT_EQ(a.parent, 0u);
  EXPECT_EQ(b.parent, a.id);
  EXPECT_EQ(b.request, 7u);
  EXPECT_LE(a.start_ns, b.start_ns);
  EXPECT_LE(b.end_ns, a.end_ns);
  EXPECT_EQ(log.NameOf(b.name), "inner");
}

TEST(DigestTest, MatchesFnv1aReferenceVectors) {
  EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ull);
  Digest a;
  a.Bytes("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
  Digest foobar;
  foobar.Bytes("foobar", 6);
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
  EXPECT_EQ(foobar.Hex(), "85944171f73967e8");
}

TEST(DigestTest, StableForEqualInputsAndSensitiveToChanges) {
  auto row_digest = [](double v) {
    janus::Tuple t;
    t.id = 42;
    t[0] = 1.5;
    t[1] = v;
    janus::AggQuery q;
    q.func = janus::AggFunc::kSum;
    q.agg_column = 1;
    q.predicate_columns = {0};
    q.rect = janus::Rectangle({0.25}, {0.75});
    Digest d;
    d.Row(t, 2);
    d.Query(q);
    return d.value();
  };
  EXPECT_EQ(row_digest(10.0), row_digest(10.0));
  EXPECT_NE(row_digest(10.0), row_digest(std::nextafter(10.0, 11.0)));
}

TEST(PerIdValuesTest, DependOnlyOnSeedIdAndStream) {
  EXPECT_EQ(UnitAt(1, 5, 0), UnitAt(1, 5, 0));
  EXPECT_NE(UnitAt(1, 5, 0), UnitAt(2, 5, 0));
  EXPECT_NE(UnitAt(1, 5, 0), UnitAt(1, 6, 0));
  EXPECT_NE(UnitAt(1, 5, 0), UnitAt(1, 5, 1));
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = UnitAt(3, static_cast<uint64_t>(i), 0);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const double z = NormalAt(3, static_cast<uint64_t>(i), 1, 10, 2);
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2, 0.05);
}

}  // namespace
}  // namespace perfbench
