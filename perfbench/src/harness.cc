#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <numbers>
#include <unordered_map>

namespace perfbench {

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  const double rank = p / 100.0 * (static_cast<double>(sorted.size()) - 1.0);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(std::vector<double>* v) {
  Summary s;
  if (v->empty()) return s;
  std::sort(v->begin(), v->end());
  s.n = v->size();
  s.p50 = SortedPercentile(*v, 50);
  s.p99 = SortedPercentile(*v, 99);
  double sum = 0;
  for (double x : *v) sum += x;
  s.mean = sum / static_cast<double>(s.n);
  return s;
}

WindowedStats MedianOverWindows(std::vector<Window>* windows) {
  std::vector<double> u_rate, q_rate, u50, u99, q50, q99;
  for (Window& w : *windows) {
    if (w.seconds <= 0) continue;
    u_rate.push_back(static_cast<double>(w.updates) / w.seconds);
    q_rate.push_back(static_cast<double>(w.queries) / w.seconds);
    const Summary u = Summarize(&w.update_ns);
    const Summary q = Summarize(&w.query_ns);
    u50.push_back(u.p50);
    u99.push_back(u.p99);
    q50.push_back(q.p50);
    q99.push_back(q.p99);
  }
  WindowedStats s;
  s.windows = u_rate.size();
  s.update_rate = Summarize(&u_rate).p50;
  s.query_rate = Summarize(&q_rate).p50;
  s.update_p50_ns = Summarize(&u50).p50;
  s.update_p99_ns = Summarize(&u99).p50;
  s.query_p50_ns = Summarize(&q50).p50;
  s.query_p99_ns = Summarize(&q99).p50;
  return s;
}

void Digest::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Row(const janus::Tuple& t, int columns) {
  U64(t.id);
  for (int c = 0; c < columns; ++c) F64(t[c]);
}

void Digest::Query(const janus::AggQuery& q) {
  U64(static_cast<uint64_t>(q.func));
  U64(static_cast<uint64_t>(q.agg_column));
  for (int c : q.predicate_columns) U64(static_cast<uint64_t>(c));
  for (int d = 0; d < q.rect.dims(); ++d) {
    F64(q.rect.lo(d));
    F64(q.rect.hi(d));
  }
}

std::string Digest::Hex() const {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double UnitAt(uint64_t seed, uint64_t id, uint64_t stream) {
  const uint64_t h = Mix64(Mix64(seed ^ Mix64(stream)) ^ id);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double NormalAt(uint64_t seed, uint64_t id, uint64_t stream, double mean,
                double stddev) {
  const double u1 = 1.0 - UnitAt(seed, id, 2 * stream);  // (0, 1]
  const double u2 = UnitAt(seed, id, 2 * stream + 1);
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

uint32_t SpanLog::Intern(const std::string& name) {
  janus::MutexLock lock(&mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::string SpanLog::NameOf(uint32_t name) const {
  janus::MutexLock lock(&mu_);
  return names_.at(name);
}

uint64_t SpanLog::NextId() {
  janus::MutexLock lock(&mu_);
  return next_id_++;
}

void SpanLog::Record(const Span& s) {
  janus::MutexLock lock(&mu_);
  if (spans_.size() < capacity_) {
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
}

std::vector<Span> SpanLog::spans() const {
  janus::MutexLock lock(&mu_);
  return spans_;
}

size_t SpanLog::dropped() const {
  janus::MutexLock lock(&mu_);
  return dropped_;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  janus::MutexLock lock(&mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,request,id,parent,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRId64
                    ",%" PRId64 "\n",
                 names_[s.name].c_str(), s.request, s.id, s.parent,
                 s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

namespace {
/// Innermost open span of this thread (0 = none).
thread_local uint64_t tls_open_span = 0;
}  // namespace

ScopedSpan::ScopedSpan(SpanLog* log, uint32_t name, uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->NextId();
  span_.parent = tls_open_span;
  span_.request = request;
  saved_parent_ = tls_open_span;
  tls_open_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  tls_open_span = saved_parent_;
  log_->Record(span_);
}

std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<uint32_t, SelfTime> by_name;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& s : spans) {
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to the parent's.
    cover.clear();
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += static_cast<double>(run_hi - run_lo);
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += static_cast<double>(run_hi - run_lo);

    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ns += total;
    t.self_ns += total - covered;
  }
  std::vector<SelfTime> out;
  for (const auto& [name, t] : by_name) out.push_back(t);
  return out;
}

}  // namespace perfbench
