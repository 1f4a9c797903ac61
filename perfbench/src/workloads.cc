// The benchmark workloads. Each generates its inputs from the seed, sets
// the engine up several times (set-up time is a metric of its own), drives
// the public API of src/api (and src/net), then checks the answers against
// an exact mirror of the live rows built with the data/scan kernels,
// outside all timing.
//
// Untraced runs time each operation from outside and report the
// end-to-end metrics. Traced runs alternate 50 ms slots with tracing on
// and off: in "on" slots every call into a layer's public functions is
// timed (and one request in 16 leaves spans), the engine counters are
// diffed over the run, and the "off" slots give the tracing overhead.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "data/column_store.h"
#include "data/ground_truth.h"
#include "data/workload.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using janus::AggFunc;
using janus::AggQuery;
using janus::AqpEngine;
using janus::EngineConfig;
using janus::EngineStats;
using janus::QueryResult;
using janus::Tuple;

constexpr size_t kLoadRows = 2'000'000;
constexpr int kSetupTrials = 5;
constexpr size_t kProbeQueries = 2000;
constexpr size_t kWireProbes = 64;
constexpr size_t kFrameRows = 256;
constexpr int kWireFrames = 4;
constexpr double kStallNs = 1e6;
constexpr int64_t kTraceSlotNs = 50'000'000;
constexpr uint64_t kSpanSample = 16;
constexpr size_t kSpanCapacity = 400'000;

/// slide: ops per episode, and the episodes whose accuracy and core
/// counters are reported. One thread in blocking mode makes an episode's
/// final state a pure function of its seed.
constexpr uint64_t kSlideEpisodeOps = 1'000'000;
constexpr int kSlideCountedEpisodes = 3;
/// slide: mean of the aggregate drifts by this much per arrival.
constexpr double kSlideDriftPerRow = 2e-6;
/// serve: open-loop ingest rate (the paper's 100K updates/s).
constexpr double kUpdateRate = 100'000;
/// serve: closed-loop query connections, and the length of one episode
/// (a fresh server and fresh connections). Three connections saturated the
/// four cores and left the run-to-run spread of query_p99_ms at 0.22 over
/// ten seeds; two brought it to 0.17.
constexpr int kServeClients = 2;
constexpr double kServeEpisodeSeconds = 2.0;
/// serve: seed of the base table. It is the same for every run, so the
/// synopsis built at set-up is too, and run-to-run differences in accuracy
/// come from the served stream (ingested rows, queries, probes), which
/// --seed drives. With a per-seed base table the median error of one run
/// moved by ~30% between seeds: all probes share one catch-up sample.
constexpr uint64_t kServeBaseSeed = 0x5e4e;

const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg};

// --- small utilities ---------------------------------------------------------

double Ms(double ns) { return ns / 1e6; }
double Us(double ns) { return ns / 1e3; }

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok ||
        std::find(failed_.begin(), failed_.end(), what) != failed_.end()) {
      return;
    }
    failed_.push_back(what);
    std::printf("check FAILED: %s\n", what.c_str());
  }
  const std::vector<std::string>& failed() const { return failed_; }

 private:
  std::vector<std::string> failed_;
};

bool AnswerOk(const QueryResult& r) {
  return r.ok && std::isfinite(r.estimate) && std::isfinite(r.ci_half_width) &&
         r.ci_half_width >= 0;
}

bool SameBits(const QueryResult& a, const QueryResult& b) {
  return a.ok == b.ok && a.error_code == b.error_code &&
         std::memcmp(&a.estimate, &b.estimate, sizeof(double)) == 0 &&
         std::memcmp(&a.ci_half_width, &b.ci_half_width, sizeof(double)) == 0;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, unit, value});
    std::printf("metric %-30s %.9g %s\n", name.c_str(), value, unit.c_str());
  }
  void AddSummaryUs(const std::string& name, std::vector<double>* us) {
    const Summary s = Summarize(us);
    Add(name + ".p50", s.p50, "us");
    Add(name + ".p99", s.p99, "us");
  }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

/// Thread-safe sample sink for timings recorded on threads the benchmark
/// does not own (server connection threads).
class Samples {
 public:
  void Add(double v) {
    janus::MutexLock lock(&mu_);
    v_.push_back(v);
  }
  std::vector<double> Take() {
    janus::MutexLock lock(&mu_);
    return std::move(v_);
  }

 private:
  janus::Mutex mu_;
  std::vector<double> v_ GUARDED_BY(mu_);
};

/// Decides when traced runs record: in alternating 50 ms slots, or always
/// (post-run wire phase). Untraced runs never record.
class TraceGate {
 public:
  explicit TraceGate(bool enabled) : enabled_(enabled), origin_(NowNs()) {}
  bool Active(int64_t now_ns) const {
    if (!enabled_) return false;
    if (always_.load(std::memory_order_relaxed)) return true;
    return ((now_ns - origin_) / kTraceSlotNs) % 2 == 0;
  }
  void SetAlways(bool on) { always_.store(on, std::memory_order_relaxed); }

 private:
  const bool enabled_;
  const int64_t origin_;
  std::atomic<bool> always_{false};
};

/// Span names shared by all workloads.
struct SpanNames {
  explicit SpanNames(SpanLog* log)
      : op(log->Intern("bench.op")),
        api_insert(log->Intern("api.insert")),
        api_delete(log->Intern("api.delete")),
        api_query(log->Intern("api.query")),
        net_query(log->Intern("net.query_rtt")),
        net_insert(log->Intern("net.insert_frame")),
        net_delete(log->Intern("net.delete_frame")) {}
  uint32_t op, api_insert, api_delete, api_query, net_query, net_insert,
      net_delete;
};

/// Timing facade handed to AqpServer in traced runs: an AqpEngine that
/// forwards to the real engine's public API and times the calls the server
/// makes, so server-side engine time is measured without touching the
/// server. Hooks the server never calls keep their defaults.
class TimedEngine : public AqpEngine {
 public:
  TimedEngine(AqpEngine* inner, const TraceGate* gate, SpanLog* log,
              const SpanNames* names)
      : inner_(inner), gate_(gate), log_(log), names_(names) {}

  const char* name() const override { return inner_->name(); }

  mutable Samples query_us;
  mutable Samples insert_us;
  mutable Samples delete_us;

 protected:
  UpdateConcurrency update_concurrency() const override {
    return UpdateConcurrency::kInternal;  // the inner engine locks
  }
  void LoadInitialImpl(const std::vector<Tuple>& rows) override {
    inner_->LoadInitial(rows);
  }
  void InitializeImpl() override { inner_->Initialize(); }
  void InsertImpl(const Tuple& t) override {
    Timed(&insert_us, names_->api_insert, [&] { inner_->Insert(t); });
  }
  bool DeleteImpl(uint64_t id) override {
    bool live = false;
    Timed(&delete_us, names_->api_delete, [&] { live = inner_->Delete(id); });
    return live;
  }
  QueryResult QueryImpl(const AggQuery& q) const override {
    QueryResult r;
    Timed(&query_us, names_->api_query, [&] { r = inner_->Query(q); });
    return r;
  }
  EngineStats StatsImpl() const override { return inner_->Stats(); }

 private:
  template <typename Fn>
  void Timed(Samples* sink, uint32_t span_name, Fn&& fn) const {
    if (!gate_->Active(NowNs())) {
      fn();
      return;
    }
    const uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(n % kSpanSample == 0 ? log_ : nullptr, span_name, 0);
    const int64_t t0 = NowNs();
    fn();
    sink->Add(Us(static_cast<double>(NowNs() - t0)));
  }

  AqpEngine* const inner_;
  const TraceGate* const gate_;
  SpanLog* const log_;
  const SpanNames* const names_;
  mutable std::atomic<uint64_t> calls_{0};
};

// --- set-up ------------------------------------------------------------------

struct Setup {
  std::unique_ptr<AqpEngine> engine;
  double total_s = 0;
  double load_s = 0;
  double init_s = 0;
  double catchup_s = 0;
};

/// Load, Initialize and RunCatchupToGoal on fresh engines, kSetupTrials
/// times; reports medians and keeps the last engine.
Setup TimedSetup(const EngineConfig& cfg, const std::vector<Tuple>& rows) {
  std::vector<double> total, load, init, catchup;
  Setup out;
  for (int t = 0; t < kSetupTrials; ++t) {
    out.engine.reset();  // release the previous trial before building anew
    out.engine = janus::EngineRegistry::Create(cfg);
    const int64_t t0 = NowNs();
    out.engine->LoadInitial(rows);
    const int64_t t1 = NowNs();
    out.engine->Initialize();
    const int64_t t2 = NowNs();
    out.engine->RunCatchupToGoal();
    const int64_t t3 = NowNs();
    total.push_back(static_cast<double>(t3 - t0) / 1e9);
    load.push_back(static_cast<double>(t1 - t0) / 1e9);
    init.push_back(static_cast<double>(t2 - t1) / 1e9);
    catchup.push_back(static_cast<double>(t3 - t2) / 1e9);
  }
  out.total_s = Summarize(&total).p50;
  out.load_s = Summarize(&load).p50;
  out.init_s = Summarize(&init).p50;
  out.catchup_s = Summarize(&catchup).p50;
  return out;
}

EngineConfig BaseConfig(const std::string& engine) {
  EngineConfig cfg;
  cfg.engine = engine;
  cfg.schema.column_names = {"key", "value"};
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  return cfg;
}

// --- inputs ------------------------------------------------------------------

/// slide row: the predicate is the arrival timestamp (= id), the
/// aggregate N(10 + drift, 2).
Tuple SlideRow(uint64_t seed, uint64_t id) {
  Tuple t;
  t.id = id;
  t[0] = static_cast<double>(id);
  t[1] = NormalAt(seed, id, 0,
                  10.0 + kSlideDriftPerRow * static_cast<double>(id), 2.0);
  return t;
}

/// serve row: uniform predicate, N(10, 2) aggregate.
Tuple ServeRow(uint64_t seed, uint64_t id) {
  Tuple t;
  t.id = id;
  t[0] = UnitAt(seed, id, 7);
  t[1] = NormalAt(seed, id, 1, 10.0, 2.0);
  return t;
}

/// SUM/COUNT/AVG over 1-21% of the key range [lo, hi).
AggQuery RangeQuery(janus::Rng* rng, double lo, double hi) {
  AggQuery q;
  q.func = kFuncs[rng->NextUint64(3)];
  q.agg_column = 1;
  q.predicate_columns = {0};
  const double w = (0.01 + 0.20 * rng->NextDouble()) * (hi - lo);
  const double from = lo + rng->NextDouble() * (hi - lo - w);
  q.rect = janus::Rectangle({from}, {from + w});
  return q;
}

/// RangeQuery over the live window [tail, head) of a slide stream.
AggQuery WindowQuery(janus::Rng* rng, uint64_t tail, uint64_t head) {
  return RangeQuery(rng, static_cast<double>(tail), static_cast<double>(head));
}

/// The sliding-window op stream: 45% inserts at the head, 45% deletes of
/// the oldest live id, 10% window queries.
class SlideStream {
 public:
  enum class Kind { kInsert, kDelete, kQuery };

  SlideStream(uint64_t seed, uint64_t rows)
      : rng_(Mix64(seed ^ 0x51de)), head_(rows) {}

  /// Next op; fills *id for updates and *q for queries.
  Kind Next(uint64_t* id, AggQuery* q) {
    const double u = rng_.NextDouble();
    if (u < 0.45) {
      *id = head_++;
      return Kind::kInsert;
    }
    if (u < 0.90 && head_ - tail_ > 1) {
      *id = tail_++;
      return Kind::kDelete;
    }
    *q = WindowQuery(&rng_, tail_, head_);
    return Kind::kQuery;
  }

  uint64_t tail() const { return tail_; }
  uint64_t head() const { return head_; }

 private:
  janus::Rng rng_;
  uint64_t tail_ = 0;
  uint64_t head_;
};

template <typename RowFn>
void AppendRows(janus::ColumnStore* store, uint64_t lo, uint64_t hi,
                RowFn&& row) {
  std::vector<Tuple> chunk;
  for (uint64_t id = lo; id < hi;) {
    chunk.clear();
    for (; id < hi && chunk.size() < 65536; ++id) chunk.push_back(row(id));
    store->BulkAppend(chunk);
  }
}

janus::ColumnStore NewMirror() {
  return janus::ColumnStore(BaseConfig("janus").schema);
}

std::vector<AggQuery> WindowQueries(uint64_t seed, uint64_t tail,
                                    uint64_t head, size_t n) {
  janus::Rng rng(seed);
  std::vector<AggQuery> qs;
  for (size_t i = 0; i < n; ++i) qs.push_back(WindowQuery(&rng, tail, head));
  return qs;
}

/// Queries of the serve workload, from WorkloadGenerator over the mirror:
/// n per aggregate, interleaved COUNT/SUM/AVG.
std::vector<AggQuery> GeneratorQueries(const janus::ColumnStore& store,
                                       size_t n, uint64_t seed) {
  janus::WorkloadGenerator gen(store, {0}, 1);
  std::vector<std::vector<AggQuery>> per_func;
  for (AggFunc f : kFuncs) {
    janus::WorkloadOptions opts;
    opts.num_queries = n;
    opts.func = f;
    opts.seed = seed + static_cast<uint64_t>(f);
    per_func.push_back(gen.Generate(store, opts));
  }
  std::vector<AggQuery> out;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& qs : per_func) {
      if (i < qs.size()) out.push_back(qs[i]);
    }
  }
  return out;
}

// --- post-run measurements ---------------------------------------------------

struct Accuracy {
  double median = 0;
  double p95 = 0;
  double coverage = 0;
};

/// Relative errors and CI coverage of the engine's answers against exact
/// answers over a mirror (data/scan kernels on the shared scan pool),
/// pooled over every probe set added.
class ProbeErrors {
 public:
  void Add(const AqpEngine& engine, const janus::ColumnStore& mirror,
           const std::vector<AggQuery>& probes, Checks* checks) {
    janus::scan::ExecContext exec;
    exec.pool = janus::scan::SharedScanPool();
    const auto truths = janus::ExactAnswers(mirror, probes, exec);
    for (size_t i = 0; i < probes.size(); ++i) {
      const QueryResult r = engine.Query(probes[i]);
      checks->Expect(AnswerOk(r), "every answer is ok, finite, with CI >= 0");
      const auto rel = janus::RelativeError(truths[i], r.estimate);
      if (!rel.has_value()) continue;
      errors_.push_back(*rel);
      if (std::abs(r.estimate - *truths[i]) <= r.ci_half_width) ++covered_;
    }
  }

  Accuracy Summary(Checks* checks) {
    checks->Expect(errors_.size() >= 500,
                   "at least 500 probe queries have a defined exact answer");
    std::printf("accuracy probes_evaluated=%zu\n", errors_.size());
    Accuracy a;
    std::sort(errors_.begin(), errors_.end());
    a.median = SortedPercentile(errors_, 50);
    a.p95 = SortedPercentile(errors_, 95);
    if (!errors_.empty()) {
      a.coverage = static_cast<double>(covered_) /
                   static_cast<double>(errors_.size());
    }
    return a;
  }

 private:
  std::vector<double> errors_;
  size_t covered_ = 0;
};

/// Median direct-call latency of `queries` on the quiesced engine, in µs.
double IdleQueryUs(const AqpEngine& engine,
                   const std::vector<AggQuery>& queries) {
  std::vector<double> us;
  for (const AggQuery& q : queries) {
    const int64_t t0 = NowNs();
    (void)engine.Query(q);
    us.push_back(Us(static_cast<double>(NowNs() - t0)));
  }
  return Summarize(&us).p50;
}

/// Engine counters summed over the measured phases (Stats() deltas).
struct CoreDelta {
  double trigger_checks = 0;
  double trigger_fires = 0;
  double repartitions = 0;
  double partial_repartitions = 0;
  double adopted = 0;
  double discarded = 0;
  double delta_ops_replayed = 0;
  double reservoir_resamples = 0;
  double parallel_scans = 0;
  double serial_scans = 0;
  double nested_serial_scans = 0;
  double stolen_morsels = 0;

  void Add(const EngineStats& a, const EngineStats& b) {
    auto d = [](uint64_t before, uint64_t after) {
      return static_cast<double>(after - before);
    };
    trigger_checks += d(a.trigger_checks, b.trigger_checks);
    trigger_fires += d(a.trigger_fires, b.trigger_fires);
    repartitions += d(a.repartitions, b.repartitions);
    partial_repartitions += d(a.partial_repartitions, b.partial_repartitions);
    adopted += d(a.background_reopts, b.background_reopts);
    discarded += d(a.background_discards, b.background_discards);
    delta_ops_replayed += d(a.delta_ops_replayed, b.delta_ops_replayed);
    reservoir_resamples += d(a.reservoir_resamples, b.reservoir_resamples);
    parallel_scans += d(a.parallel_scans, b.parallel_scans);
    serial_scans += d(a.serial_scans, b.serial_scans);
    nested_serial_scans += d(a.nested_serial_scans, b.nested_serial_scans);
    stolen_morsels += d(a.stolen_morsels, b.stolen_morsels);
  }
};

/// Counter deltas plus the gauges of the engine state `end`.
void AddCoreMetrics(const CoreDelta& d, const EngineStats& end, Report* rep) {
  // Blocking mode: re-partitions per trigger fire. Background mode: side
  // trees adopted over side trees finished.
  double adopt_ratio = 0;
  if (d.adopted + d.discarded > 0) {
    adopt_ratio = d.adopted / (d.adopted + d.discarded);
  } else if (d.trigger_fires > 0) {
    adopt_ratio = d.repartitions / d.trigger_fires;
  }
  rep->Add("core.trigger_checks", d.trigger_checks, "count");
  rep->Add("core.trigger_fires", d.trigger_fires, "count");
  rep->Add("core.repartitions", d.repartitions, "count");
  rep->Add("core.partial_repartitions", d.partial_repartitions, "count");
  rep->Add("core.adopt_ratio", adopt_ratio, "ratio");
  rep->Add("core.delta_ops_replayed", d.delta_ops_replayed, "count");
  // Catch-up restarts with every rebuild, so this is the end value: samples
  // absorbed by the synopsis in use when the run ended.
  rep->Add("core.catchup_samples", static_cast<double>(end.catchup_processed),
           "count");
  rep->Add("core.last_reopt_ms", end.last_reopt_seconds * 1e3, "ms");
  rep->Add("core.last_blocking_ms", end.last_blocking_seconds * 1e3, "ms");
  // The janus engines leave build_seconds / partition_seconds unset; they
  // are printed for completeness and kept out of the result line.
  rep->Add("core.build_s", end.build_seconds, "s");
  rep->Add("core.partition_s", end.partition_seconds, "s");
  rep->Add("sampling.reservoir_resamples", d.reservoir_resamples, "count");
  rep->Add("data.parallel_scans", d.parallel_scans, "count");
  rep->Add("data.serial_scans", d.serial_scans, "count");
  rep->Add("data.nested_serial_scans", d.nested_serial_scans, "count");
  rep->Add("data.stolen_morsels", d.stolen_morsels, "count");
  rep->Add("data.archive_mb", static_cast<double>(end.archive_bytes) / 1e6,
           "MB");
}

void AddSetupMetrics(const Setup& s, bool trace, Report* rep) {
  if (!trace) {
    rep->Add("setup_s", s.total_s, "s");
    return;
  }
  rep->Add("api.load_initial_s", s.load_s, "s");
  rep->Add("api.initialize_s", s.init_s, "s");
  rep->Add("api.catchup_s", s.catchup_s, "s");
}

struct RunCounts {
  uint64_t updates = 0;
  uint64_t queries = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

/// The end-to-end metrics every workload reports (untraced runs). Rates
/// and latency percentiles are medians over the run's windows, except the
/// rate of paced updates: every full window holds exactly its schedule, so
/// that rate is measured over the whole run.
void AddEndToEnd(const RunCounts& c, std::vector<Window>* windows,
                 bool paced_updates, const Accuracy& acc,
                 const EngineStats& end, Report* rep) {
  const WindowedStats w = MedianOverWindows(windows);
  std::printf("samples updates=%llu queries=%llu seconds=%.3f windows=%zu\n",
              static_cast<unsigned long long>(c.updates),
              static_cast<unsigned long long>(c.queries), c.seconds,
              w.windows);
  rep->Add("update_rate",
           paced_updates ? static_cast<double>(c.updates) / c.seconds
                         : w.update_rate,
           "1/s");
  rep->Add("query_rate", w.query_rate, "1/s");
  rep->Add("query_p50_ms", Ms(w.query_p50_ns), "ms");
  rep->Add("query_p99_ms", Ms(w.query_p99_ns), "ms");
  rep->Add("update_p50_ms", Ms(w.update_p50_ns), "ms");
  rep->Add("update_p99_ms", Ms(w.update_p99_ns), "ms");
  rep->Add("err_median", acc.median, "ratio");
  rep->Add("err_p95", acc.p95, "ratio");
  rep->Add("ci_coverage", acc.coverage, "ratio");
  rep->Add("failed_share",
           c.attempted > 0 ? static_cast<double>(c.failed) /
                                 static_cast<double>(c.attempted)
                           : 0,
           "ratio");
  rep->Add("synopsis_mb", static_cast<double>(end.synopsis_bytes) / 1e6, "MB");
}

/// trace.overhead_pct: query latency in traced slots against untraced
/// slots of the same run.
void AddTraceOverhead(std::vector<double>* traced,
                      std::vector<double>* untraced, Report* rep) {
  const double on = Summarize(traced).p50;
  const double off = Summarize(untraced).p50;
  rep->Add("trace.overhead_pct", off > 0 ? (on / off - 1.0) * 100.0 : 0, "%");
}

void ReportSpans(const SpanLog& log, const RunOptions& o) {
  for (const SelfTime& t : ComputeSelfTimes(log.spans())) {
    const double n = static_cast<double>(t.count);
    std::printf("span %-18s count=%zu mean_us=%.3f self_us=%.3f\n",
                log.NameOf(t.name).c_str(), t.count, Us(t.total_ns / n),
                Us(t.self_ns / n));
  }
  if (o.trace_dir.empty()) return;
  const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".csv";
  if (log.WriteCsv(path)) {
    std::printf("spans written=%s dropped=%zu\n", path.c_str(),
                log.dropped());
  }
}

/// Client-side wire measurements of one connection.
struct WireTimes {
  std::vector<double> query_rtt_us;
  std::vector<double> frame_us;
};

/// Post-run wire phase against a quiesced engine: kWireProbes answers
/// over the wire must be bit-identical to direct calls; then insert and
/// delete frames of `frame_rows` / `delete_ids` (each id must be live).
void WirePhase(janus::net::AqpClient* client, const AqpEngine& engine,
               const std::vector<AggQuery>& probes,
               const std::vector<std::vector<Tuple>>& insert_frames,
               const std::vector<std::vector<uint64_t>>& delete_frames,
               SpanLog* log, const SpanNames* names, Checks* checks,
               RunCounts* counts, WireTimes* out) {
  for (size_t i = 0; i < kWireProbes && i < probes.size(); ++i) {
    int64_t t0 = 0;
    QueryResult wire;
    {
      ScopedSpan span(log, names->net_query, i);
      t0 = NowNs();
      wire = client->Query(probes[i]);
    }
    out->query_rtt_us.push_back(Us(static_cast<double>(NowNs() - t0)));
    ++counts->attempted;
    if (!AnswerOk(wire)) ++counts->failed;
    checks->Expect(SameBits(wire, engine.Query(probes[i])),
                   "wire answers are bit-identical to direct Query calls");
  }
  for (size_t i = 0; i < insert_frames.size(); ++i) {
    ScopedSpan span(log, names->net_insert, i);
    const int64_t t0 = NowNs();
    const uint64_t accepted = client->Insert(insert_frames[i]);
    out->frame_us.push_back(Us(static_cast<double>(NowNs() - t0)));
    counts->attempted += insert_frames[i].size();
    checks->Expect(accepted == insert_frames[i].size(),
                   "every insert frame is fully accepted");
  }
  for (size_t i = 0; i < delete_frames.size(); ++i) {
    ScopedSpan span(log, names->net_delete, i);
    const uint64_t applied = client->Delete(delete_frames[i]);
    counts->attempted += delete_frames[i].size();
    counts->failed += delete_frames[i].size() - applied;
    checks->Expect(applied == delete_frames[i].size(),
                   "every Delete of a live id returns true");
  }
}

void AddNetMetrics(std::vector<double>* rtt_us, std::vector<double>* frame_us,
                   double server_query_mean_us,
                   const janus::net::ServingStats& ss, Checks* checks,
                   Report* rep) {
  const Summary rtt = Summarize(rtt_us);
  rep->Add("net.query_rtt_us.p50", rtt.p50, "us");
  rep->Add("net.query_rtt_us.p99", rtt.p99, "us");
  rep->AddSummaryUs("net.insert_frame_us", frame_us);
  rep->Add("net.overhead_us", rtt.mean - server_query_mean_us, "us");
  std::printf(
      "net mean_rtt_us=%.3f server_engine_us=%.3f unattributed_us=%.3f\n",
      rtt.mean, server_query_mean_us, rtt.mean - server_query_mean_us);
  checks->Expect(server_query_mean_us <= rtt.mean,
                 "mean server-side engine time <= mean client round trip");
  rep->Add("net.frames", static_cast<double>(ss.frames), "count");
  rep->Add("net.queries", static_cast<double>(ss.queries), "count");
  rep->Add("net.inserts", static_cast<double>(ss.inserts), "count");
  rep->Add("net.rejected",
           static_cast<double>(ss.rejected_rate_limit +
                               ss.rejected_overloaded),
           "count");
  rep->Add("net.malformed_frames", static_cast<double>(ss.malformed_frames),
           "count");
}

/// Extra slide rows sent over the wire after the run (ids from `head`).
std::vector<std::vector<Tuple>> SlideWireFrames(uint64_t seed, uint64_t head) {
  std::vector<std::vector<Tuple>> frames(kWireFrames);
  for (int f = 0; f < kWireFrames; ++f) {
    for (size_t r = 0; r < kFrameRows; ++r) {
      frames[f].push_back(SlideRow(seed, head++));
    }
  }
  return frames;
}

/// Ids [tail, tail + kWireFrames * kFrameRows) in delete frames.
std::vector<std::vector<uint64_t>> DeleteFrames(uint64_t tail) {
  std::vector<std::vector<uint64_t>> frames(kWireFrames);
  for (int f = 0; f < kWireFrames; ++f) {
    for (size_t r = 0; r < kFrameRows; ++r) frames[f].push_back(tail++);
  }
  return frames;
}

/// Wire phase of the sliding-window workloads: the quiesced engine goes
/// behind an AqpServer (through the timing facade when traced); inserts
/// extend the head, deletes advance the tail. Returns the new window.
void SlideWirePhase(AqpEngine* engine, const RunOptions& o, TraceGate* gate,
                    SpanLog* log, const SpanNames* names, uint64_t* tail,
                    uint64_t* head, Checks* checks, RunCounts* counts,
                    Report* rep) {
  std::unique_ptr<TimedEngine> timed;
  AqpEngine* served = engine;
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine, gate, log, names);
    served = timed.get();
    gate->SetAlways(true);
  }
  const std::vector<AggQuery> probes =
      WindowQueries(Mix64(o.seed ^ 0x3b1e), *tail, *head, kWireProbes);
  WireTimes wt;
  janus::net::AqpServer server(served, janus::net::ServerOptions{});
  server.Start();
  {
    janus::net::AqpClient client("127.0.0.1", server.port(), 1);
    WirePhase(&client, *engine, probes, SlideWireFrames(o.seed, *head),
              DeleteFrames(*tail), o.trace ? log : nullptr, names, checks,
              counts, &wt);
  }
  server.Stop();
  *head += kWireFrames * kFrameRows;
  *tail += kWireFrames * kFrameRows;
  if (!o.trace) return;
  gate->SetAlways(false);
  std::vector<double> server_q = timed->query_us.Take();
  const double server_mean = Summarize(&server_q).mean;
  AddNetMetrics(&wt.query_rtt_us, &wt.frame_us, server_mean, server.stats(),
                checks, rep);
}

// --- slide -------------------------------------------------------------------

/// Per-op samples of a sliding-window run.
struct OpSamples {
  std::vector<double> insert_us;  ///< traced slots only
  std::vector<double> delete_us;
  std::vector<double> query_us;
  std::vector<double> query_untraced_us;  ///< untraced slots (overhead)
  uint64_t stalls = 0;
  double stall_ns = 0;
};

void Digests(const std::string& load, const std::string& ops) {
  std::printf("digest load=%s ops=%s\n", load.c_str(), ops.c_str());
}

std::vector<Tuple> SlideLoad(uint64_t seed) {
  std::vector<Tuple> rows;
  rows.reserve(kLoadRows);
  for (uint64_t id = 0; id < kLoadRows; ++id) {
    rows.push_back(SlideRow(seed, id));
  }
  return rows;
}

/// Folds one episode's load rows and op stream into the run's digests.
void DigestSlideEpisode(uint64_t seed, const std::vector<Tuple>& rows,
                        Digest* load, Digest* ops) {
  for (const Tuple& t : rows) load->Row(t, 2);
  SlideStream stream(seed, kLoadRows);
  for (uint64_t i = 0; i < kSlideEpisodeOps; ++i) {
    uint64_t id = 0;
    AggQuery q;
    const auto kind = stream.Next(&id, &q);
    ops->U64(static_cast<uint64_t>(kind));
    if (kind == SlideStream::Kind::kQuery) {
      ops->Query(q);
    } else {
      ops->U64(id);
    }
  }
}

/// One episode's kSlideEpisodeOps ops from a closed loop on this thread,
/// each timed from outside into the episode's window.
void RunSlideEpisode(AqpEngine* engine, uint64_t seed, const TraceGate& gate,
                     SpanLog* span_log, const SpanNames& names,
                     SlideStream* stream, Window* w, OpSamples* s,
                     RunCounts* c, Checks* checks) {
  const int64_t start = NowNs();
  for (uint64_t i = 0; i < kSlideEpisodeOps; ++i) {
    uint64_t id = 0;
    AggQuery q;
    const SlideStream::Kind kind = stream->Next(&id, &q);
    Tuple row;
    if (kind == SlideStream::Kind::kInsert) row = SlideRow(seed, id);

    const uint64_t request = c->attempted++;
    const int64_t t0 = NowNs();
    const bool traced = gate.Active(t0);
    SpanLog* spans =
        traced && request % kSpanSample == 0 ? span_log : nullptr;
    ScopedSpan op_span(spans, names.op, request);
    switch (kind) {
      case SlideStream::Kind::kInsert: {
        ScopedSpan span(spans, names.api_insert, request);
        engine->Insert(row);
        break;
      }
      case SlideStream::Kind::kDelete: {
        bool live = false;
        {
          ScopedSpan span(spans, names.api_delete, request);
          live = engine->Delete(id);
        }
        if (!live) ++c->failed;
        checks->Expect(live, "every Delete of a live id returns true");
        break;
      }
      case SlideStream::Kind::kQuery: {
        QueryResult r;
        {
          ScopedSpan span(spans, names.api_query, request);
          r = engine->Query(q);
        }
        if (!AnswerOk(r)) ++c->failed;
        checks->Expect(AnswerOk(r),
                       "every answer is ok, finite, with CI >= 0");
        break;
      }
    }
    const double ns = static_cast<double>(NowNs() - t0);
    if (kind == SlideStream::Kind::kQuery) {
      ++c->queries;
      ++w->queries;
      w->query_ns.push_back(ns);
      (traced ? s->query_us : s->query_untraced_us).push_back(Us(ns));
    } else {
      ++c->updates;
      ++w->updates;
      w->update_ns.push_back(ns);
      if (ns > kStallNs) {
        ++s->stalls;
        s->stall_ns += ns;
      }
      if (traced) {
        (kind == SlideStream::Kind::kInsert ? s->insert_us : s->delete_us)
            .push_back(Us(ns));
      }
    }
  }
  w->seconds = static_cast<double>(NowNs() - start) / 1e9;
}

/// Episodes of kSlideEpisodeOps ops, each on a fresh engine loaded from
/// its own sub-seed, until --seconds of measured time have passed (at
/// least kSlideCountedEpisodes). Rates and latencies are medians over the
/// episodes, so neither the trigger history of one data draw nor a
/// disturbance of the machine decides them; accuracy
/// and the core counters come from the counted episodes only, which makes
/// them a pure function of the seed.
RunOutcome RunSlide(const RunOptions& o) {
  Checks checks;
  Report rep;
  TraceGate gate(o.trace);
  SpanLog log(kSpanCapacity);
  const SpanNames names(&log);
  SpanLog* span_log = o.trace ? &log : nullptr;
  const EngineConfig cfg = BaseConfig("janus");

  Digest load_digest, ops_digest;
  OpSamples s;
  std::vector<Window> windows;
  RunCounts c;
  CoreDelta core;
  ProbeErrors probe;
  Setup setup;
  std::unique_ptr<AqpEngine> engine;
  SlideStream stream(0, kLoadRows);
  double active_s = 0;
  int episodes = 0;
  for (;; ++episodes) {
    if (episodes >= kSlideCountedEpisodes && active_s >= o.seconds) break;
    const bool counted = episodes < kSlideCountedEpisodes;
    const uint64_t seed = Mix64(o.seed) + static_cast<uint64_t>(episodes);
    {
      const std::vector<Tuple> rows = SlideLoad(seed);
      if (counted) DigestSlideEpisode(seed, rows, &load_digest, &ops_digest);
      engine.reset();  // release the previous episode first
      if (episodes == 0) {
        setup = TimedSetup(cfg, rows);
        engine = std::move(setup.engine);
      } else {
        engine = janus::EngineRegistry::Create(cfg);
        engine->LoadInitial(rows);
        engine->Initialize();
        engine->RunCatchupToGoal();
      }
    }
    stream = SlideStream(seed, kLoadRows);
    const EngineStats before = engine->Stats();
    windows.emplace_back();
    RunSlideEpisode(engine.get(), seed, gate, span_log, names, &stream,
                    &windows.back(), &s, &c, &checks);
    active_s += windows.back().seconds;
    const EngineStats after = engine->Stats();
    checks.Expect(after.rows == stream.head() - stream.tail(),
                  "mirror live count equals Stats().rows");
    if (!counted) continue;
    core.Add(before, after);
    janus::ColumnStore mirror = NewMirror();
    AppendRows(&mirror, stream.tail(), stream.head(),
               [seed](uint64_t id) { return SlideRow(seed, id); });
    probe.Add(*engine, mirror,
              WindowQueries(Mix64(seed ^ 0xacc), stream.tail(), stream.head(),
                            kProbeQueries),
              &checks);
  }
  c.seconds = active_s;
  Digests(load_digest.Hex(), ops_digest.Hex());
  std::printf("episodes run=%d counted=%d\n", episodes, kSlideCountedEpisodes);
  AddSetupMetrics(setup, o.trace, &rep);
  checks.Expect(core.repartitions > 0, "slide re-partitions");

  const EngineStats end = engine->Stats();
  const double idle_us = IdleQueryUs(
      *engine, WindowQueries(Mix64(o.seed ^ 0x1d1e), stream.tail(),
                             stream.head(), 5000));
  uint64_t tail = stream.tail(), head = stream.head();
  SlideWirePhase(engine.get(), o, &gate, span_log, &names, &tail, &head,
                 &checks, &c, &rep);
  checks.Expect(engine->Stats().rows == head - tail,
                "mirror live count equals Stats().rows");

  if (!o.trace) {
    AddEndToEnd(c, &windows, false, probe.Summary(&checks), end, &rep);
  } else {
    const double query_p50 = Summarize(&s.query_us).p50;
    rep.AddSummaryUs("api.query_us", &s.query_us);
    rep.AddSummaryUs("api.insert_us", &s.insert_us);
    rep.AddSummaryUs("api.delete_us", &s.delete_us);
    rep.Add("api.query_idle_us.p50", idle_us, "us");
    rep.Add("api.query_wait_us", query_p50 - idle_us, "us");
    AddCoreMetrics(core, end, &rep);
    rep.Add("core.stall_count", static_cast<double>(s.stalls), "count");
    rep.Add("core.stall_ms_total", Ms(s.stall_ns), "ms");
    AddTraceOverhead(&s.query_us, &s.query_untraced_us, &rep);
    ReportSpans(log, o);
  }
  RunOutcome out;
  out.failed_checks = checks.failed();
  out.attempted = c.attempted;
  out.failed = c.failed;
  out.metrics = rep.Take();
  return out;
}

// --- serve -------------------------------------------------------------------

/// What the serve episodes measure, accumulated over the episodes.
struct ServeSamples {
  OpenLoopSamples ingest;  ///< frame schedule (lateness = generator lag)
  std::vector<double> frame_rtt_us;
  std::vector<double> query_ns;  ///< every query round trip
  std::vector<double> query_traced_us;
  std::vector<double> query_untraced_us;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t bad_answers = 0;
  uint64_t short_frames = 0;
  double seconds = 0;
  std::vector<std::string> errors;
  janus::net::ServingStats served;  ///< summed over the episodes' servers
};

void AddServing(const janus::net::ServingStats& s,
                janus::net::ServingStats* sum) {
  sum->frames += s.frames;
  sum->queries += s.queries;
  sum->inserts += s.inserts;
  sum->rejected_rate_limit += s.rejected_rate_limit;
  sum->rejected_overloaded += s.rejected_overloaded;
  sum->malformed_frames += s.malformed_frames;
}

/// One serve episode on a fresh AqpServer with fresh connections: the
/// query clients run closed-loop while the ingest connection sends insert
/// frames [first_frame, first_frame + frames) on its open-loop schedule.
/// Episodes give every run several thread placements: one process's tail
/// latency moved by up to 1.6x from the next one's.
void ServeEpisode(AqpEngine* served, const std::vector<AggQuery>& pool,
                  uint64_t seed, size_t first_frame, size_t frames,
                  const TraceGate& gate, SpanLog* span_log,
                  const SpanNames& names, ServeSamples* out) {
  janus::net::AqpServer server(served, janus::net::ServerOptions{});
  server.Start();
  const uint16_t port = server.port();
  const PacingClock clock;
  const double start = clock.Now() + 0.01;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> failed{0}, bad_answers{0};
  std::vector<std::vector<double>> rtt_ns(kServeClients),
      traced_us(kServeClients), untraced_us(kServeClients);
  std::vector<std::string> errors(kServeClients + 1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        janus::net::AqpClient client("127.0.0.1", port,
                                     static_cast<uint64_t>(c) + 1);
        clock.SleepUntil(start);
        for (uint64_t k = 0; !done.load(std::memory_order_acquire); ++k) {
          const AggQuery& q =
              pool[(static_cast<size_t>(c) * 997 + first_frame + k) %
                   pool.size()];
          const uint64_t request = (static_cast<uint64_t>(c) << 48) |
                                   (first_frame << 24) | k;
          const int64_t t0 = NowNs();
          const bool traced = gate.Active(t0);
          QueryResult r;
          {
            ScopedSpan span(traced && k % kSpanSample == 0 ? span_log : nullptr,
                            names.net_query, request);
            r = client.Query(q);
          }
          const double ns = static_cast<double>(NowNs() - t0);
          if (!AnswerOk(r)) {
            failed.fetch_add(1);
            bad_answers.fetch_add(1);
          }
          rtt_ns[c].push_back(ns);
          (traced ? traced_us[c] : untraced_us[c]).push_back(Us(ns));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
        done.store(true);
      }
    });
  }
  double end = start;
  try {
    janus::net::AqpClient ingester("127.0.0.1", port, 100);
    std::vector<Tuple> frame;
    RunOpenLoop(
        clock, start, static_cast<double>(kFrameRows) / kUpdateRate, frames,
        1e300,
        [&](size_t i) {
          frame.clear();
          const uint64_t first = kLoadRows + (first_frame + i) * kFrameRows;
          for (uint64_t id = first; id < first + kFrameRows; ++id) {
            frame.push_back(ServeRow(seed, id));
          }
        },
        [&](size_t) {
          const int64_t t0 = NowNs();
          const uint64_t accepted = ingester.Insert(frame);
          out->frame_rtt_us.push_back(Us(static_cast<double>(NowNs() - t0)));
          if (accepted != frame.size()) {
            out->failed += frame.size() - accepted;
            ++out->short_frames;
          }
        },
        &out->ingest);
  } catch (const std::exception& e) {
    errors[kServeClients] = e.what();
  }
  end = clock.Now();
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  server.Stop();
  AddServing(server.stats(), &out->served);

  out->seconds += end - start;
  out->failed += failed.load();
  out->bad_answers += bad_answers.load();
  for (int c = 0; c < kServeClients; ++c) {
    out->queries += rtt_ns[c].size();
    out->query_ns.insert(out->query_ns.end(), rtt_ns[c].begin(),
                         rtt_ns[c].end());
    out->query_traced_us.insert(out->query_traced_us.end(),
                                traced_us[c].begin(), traced_us[c].end());
    out->query_untraced_us.insert(out->query_untraced_us.end(),
                                  untraced_us[c].begin(), untraced_us[c].end());
  }
  for (const std::string& e : errors) {
    if (!e.empty()) out->errors.push_back(e);
  }
}


RunOutcome RunServe(const RunOptions& o) {
  Checks checks;
  Report rep;
  const size_t frames = static_cast<size_t>(
      std::ceil(o.seconds * kUpdateRate / static_cast<double>(kFrameRows)));
  const uint64_t ingest_rows = frames * kFrameRows;

  janus::ColumnStore mirror = NewMirror();
  Setup setup;
  std::vector<AggQuery> pool, probes;
  {
    std::vector<Tuple> rows;
    rows.reserve(kLoadRows);
    Digest load;
    for (uint64_t id = 0; id < kLoadRows; ++id) {
      rows.push_back(ServeRow(kServeBaseSeed, id));
      load.Row(rows.back(), 2);
    }
    mirror.BulkAppend(rows);
    pool = GeneratorQueries(mirror, 1000, Mix64(o.seed ^ 0x9001));
    // Probes of 1-21% of the key range: narrow enough that the partial
    // leaves' sampling error, independent across probes, dominates.
    janus::Rng probe_rng(Mix64(o.seed ^ 0xacc));
    for (size_t i = 0; i < kProbeQueries; ++i) {
      probes.push_back(RangeQuery(&probe_rng, 0.0, 1.0));
    }
    Digest ops;
    for (uint64_t id = kLoadRows; id < kLoadRows + ingest_rows; ++id) {
      ops.Row(ServeRow(o.seed, id), 2);
    }
    for (const AggQuery& q : pool) ops.Query(q);
    for (const AggQuery& q : probes) ops.Query(q);
    Digests(load.Hex(), ops.Hex());
    EngineConfig cfg = BaseConfig("sharded:janus");
    cfg.num_shards = 4;
    setup = TimedSetup(cfg, rows);
  }
  AqpEngine* engine = setup.engine.get();
  AddSetupMetrics(setup, o.trace, &rep);

  TraceGate gate(o.trace);
  SpanLog log(kSpanCapacity);
  const SpanNames names(&log);
  SpanLog* span_log = o.trace ? &log : nullptr;
  std::unique_ptr<TimedEngine> timed;
  AqpEngine* served = engine;
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine, &gate, span_log, &names);
    served = timed.get();
  }

  const EngineStats before = engine->Stats();
  ServeSamples ss;
  const size_t episodes = std::max<size_t>(
      1, static_cast<size_t>(std::lround(o.seconds / kServeEpisodeSeconds)));
  for (size_t e = 0; e < episodes; ++e) {
    const size_t first = frames * e / episodes;
    ServeEpisode(served, pool, o.seed, first,
                 frames * (e + 1) / episodes - first, gate, span_log, names,
                 &ss);
  }
  for (const std::string& err : ss.errors) {
    std::printf("thread error: %s\n", err.c_str());
  }
  checks.Expect(ss.errors.empty(), "no client connection fails");
  checks.Expect(ss.bad_answers == 0,
                "every answer is ok, finite, with CI >= 0");
  checks.Expect(ss.short_frames == 0, "every insert frame is fully accepted");

  const EngineStats after = engine->Stats();
  checks.Expect(after.repartitions == before.repartitions,
                "serve does not re-partition");
  AppendRows(&mirror, kLoadRows, kLoadRows + ingest_rows,
             [&o](uint64_t id) { return ServeRow(o.seed, id); });
  RunCounts c;
  c.seconds = ss.seconds;
  c.updates = ss.ingest.latency.size() * kFrameRows;
  c.queries = ss.queries;
  c.attempted = c.queries + c.updates;
  c.failed = ss.failed;

  // Post-run wire phase on the quiesced engine: identity probes and delete
  // frames of the oldest ids.
  gate.SetAlways(o.trace);
  WireTimes wt;
  const auto deletes = DeleteFrames(0);
  {
    janus::net::AqpServer server(served, janus::net::ServerOptions{});
    server.Start();
    {
      janus::net::AqpClient client("127.0.0.1", server.port(), 200);
      WirePhase(&client, *engine, probes, {}, deletes, span_log, &names,
                &checks, &c, &wt);
    }
    server.Stop();
    AddServing(server.stats(), &ss.served);
  }
  gate.SetAlways(false);
  for (const auto& f : deletes) {
    for (uint64_t id : f) mirror.Delete(id);
  }
  checks.Expect(engine->Stats().rows == mirror.size(),
                "mirror live count equals Stats().rows");
  const double idle_us = IdleQueryUs(*engine, pool);
  ProbeErrors probe;
  probe.Add(*engine, mirror, probes, &checks);

  if (!o.trace) {
    // One window over all episodes: per-window tails of a few hundred
    // frames flipped between two levels from window to window.
    std::vector<Window> windows(1);
    Window& w = windows.front();
    w.seconds = c.seconds;
    w.updates = c.updates;
    w.queries = c.queries;
    w.query_ns = std::move(ss.query_ns);
    for (double us : ss.frame_rtt_us) w.update_ns.push_back(us * 1e3);
    AddEndToEnd(c, &windows, true, probe.Summary(&checks), after, &rep);
    rep.Add("gen_lag_ms", Summarize(&ss.ingest.lateness).p99 * 1e3, "ms");
  } else {
    std::vector<double> server_q = timed->query_us.Take();
    std::vector<double> server_ins = timed->insert_us.Take();
    std::vector<double> server_del = timed->delete_us.Take();
    const Summary sq = Summarize(&server_q);
    rep.Add("api.query_us.p50", sq.p50, "us");
    rep.Add("api.query_us.p99", sq.p99, "us");
    rep.AddSummaryUs("api.insert_us", &server_ins);
    rep.AddSummaryUs("api.delete_us", &server_del);
    rep.Add("api.query_idle_us.p50", idle_us, "us");
    rep.Add("api.query_wait_us", sq.p50 - idle_us, "us");
    CoreDelta core;
    core.Add(before, after);
    AddCoreMetrics(core, after, &rep);
    uint64_t stalls = 0;
    double stall_ns = 0;
    for (double us : ss.frame_rtt_us) {
      if (us * 1e3 > kStallNs) {
        ++stalls;
        stall_ns += us * 1e3;
      }
    }
    rep.Add("core.stall_count", static_cast<double>(stalls), "count");
    rep.Add("core.stall_ms_total", Ms(stall_ns), "ms");
    std::vector<double> rtt_us = ss.query_traced_us;
    AddNetMetrics(&rtt_us, &ss.frame_rtt_us, sq.mean, ss.served, &checks,
                  &rep);
    AddTraceOverhead(&ss.query_traced_us, &ss.query_untraced_us, &rep);
    ReportSpans(log, o);
  }
  RunOutcome out;
  out.failed_checks = checks.failed();
  out.attempted = c.attempted;
  out.failed = c.failed;
  out.metrics = rep.Take();
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"slide", "serve"};
  return names;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",      "update_rate",   "query_rate",    "query_p50_ms",
      "query_p99_ms", "update_p50_ms", "update_p99_ms", "err_median",
      "err_p95",      "ci_coverage",   "synopsis_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "api.load_initial_s",
      "api.initialize_s",
      "api.catchup_s",
      "api.query_us.p50",
      "api.query_us.p99",
      "api.insert_us.p50",
      "api.insert_us.p99",
      "api.delete_us.p50",
      "api.delete_us.p99",
      "api.query_idle_us.p50",
      "api.query_wait_us",
      "core.trigger_checks",
      "core.trigger_fires",
      "core.repartitions",
      "core.partial_repartitions",
      "core.adopt_ratio",
      "core.delta_ops_replayed",
      "core.catchup_samples",
      "core.last_reopt_ms",
      "core.last_blocking_ms",
      "core.stall_count",
      "core.stall_ms_total",
      "sampling.reservoir_resamples",
      "data.parallel_scans",
      "data.serial_scans",
      "data.nested_serial_scans",
      "data.stolen_morsels",
      "data.archive_mb",
      "net.query_rtt_us.p50",
      "net.query_rtt_us.p99",
      "net.insert_frame_us.p50",
      "net.insert_frame_us.p99",
      "net.overhead_us",
      "net.frames",
      "net.queries",
      "net.inserts",
      "net.rejected",
      "net.malformed_frames",
      "trace.overhead_pct"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& opts) {
  if (opts.workload == "slide") return RunSlide(opts);
  if (opts.workload == "serve") return RunServe(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
