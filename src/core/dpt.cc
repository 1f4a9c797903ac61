#include "core/dpt.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "data/parallel_scan.h"
#include "persist/common.h"
#include "util/invariants.h"
#include "util/stats.h"

namespace janus {

Dpt::Dpt(const DptOptions& opts, PartitionTreeSpec spec)
    : opts_(opts),
      spec_(std::move(spec)),
      samples_([&] {
        MaxVarianceIndex::Options mo;
        mo.dims = static_cast<int>(opts.spec.predicate_columns.size());
        mo.sampling_rate = opts.sample_rate;
        mo.delta = opts.delta;
        return mo;
      }()) {
  tracked_columns_.push_back(opts_.spec.agg_column);
  for (int c : opts_.extra_tracked_columns) {
    if (TrackedIndex(c) < 0) tracked_columns_.push_back(c);
  }
  for (int d = 0; d < kMaxColumns; ++d) {
    domain_lo_[static_cast<size_t>(d)].store(
        std::numeric_limits<double>::max());
    domain_hi_[static_cast<size_t>(d)].store(
        std::numeric_limits<double>::lowest());
  }
  leaf_stats_.resize(spec_.nodes.size());
  leaf_mu_ = std::make_unique<Mutex[]>(spec_.nodes.size());
  for (size_t i = 0; i < spec_.nodes.size(); ++i) {
    if (!spec_.nodes[i].IsLeaf()) continue;
    leaf_stats_[i].columns.resize(tracked_columns_.size());
    leaf_stats_[i].minmax = MinMaxTracker(static_cast<size_t>(opts_.minmax_k));
  }
  ComputeLeafRanges();
}

void Dpt::ComputeLeafRanges() {
  const size_t n = spec_.nodes.size();
  range_lo_.assign(n, 0);
  range_hi_.assign(n, 0);
  dfs_leaves_.clear();
  if (n == 0) return;  // placeholder spec before a snapshot LoadFrom
  dfs_leaves_.reserve(spec_.leaves.size());
  // Iterative DFS computing, for every node, the contiguous range of its
  // descendant leaves in dfs_leaves_.
  struct Frame {
    int node;
    bool entered;
  };
  std::vector<Frame> stack{{0, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const PartitionNode& node = spec_.nodes[static_cast<size_t>(f.node)];
    if (!f.entered) {
      range_lo_[static_cast<size_t>(f.node)] =
          static_cast<int>(dfs_leaves_.size());
      if (node.IsLeaf()) {
        dfs_leaves_.push_back(f.node);
        range_hi_[static_cast<size_t>(f.node)] =
            static_cast<int>(dfs_leaves_.size());
        continue;
      }
      stack.push_back({f.node, true});
      stack.push_back({node.right, false});
      stack.push_back({node.left, false});
    } else {
      range_hi_[static_cast<size_t>(f.node)] =
          static_cast<int>(dfs_leaves_.size());
    }
  }
}

int Dpt::TrackedIndex(int column) const {
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    if (tracked_columns_[i] == column) return static_cast<int>(i);
  }
  return -1;
}

int Dpt::LeafForTuple(const Tuple& t) const {
  double point[kMaxColumns];
  ProjectTuple(t, opts_.spec.predicate_columns, point);
  return spec_.LeafFor(point);
}

void Dpt::GrowDomain(const double* point) {
  const int d = dims();
  for (int i = 0; i < d; ++i) {
    auto& lo = domain_lo_[static_cast<size_t>(i)];
    double cur = lo.load(std::memory_order_relaxed);
    while (point[i] < cur &&
           !lo.compare_exchange_weak(cur, point[i],
                                     std::memory_order_relaxed)) {
    }
    auto& hi = domain_hi_[static_cast<size_t>(i)];
    cur = hi.load(std::memory_order_relaxed);
    while (point[i] > cur &&
           !hi.compare_exchange_weak(cur, point[i],
                                     std::memory_order_relaxed)) {
    }
  }
}

void Dpt::ResetLeafStats(StatMode mode, double n0) {
  mode_ = mode;
  n0_ = n0;
  catchup_total_.store(0);
  for (size_t i = 0; i < leaf_stats_.size(); ++i) {
    for (ColumnStats& c : leaf_stats_[i].columns) c = ColumnStats{};
    leaf_stats_[i].minmax.Clear();
  }
}

void Dpt::InitializeExact(const ColumnStore& data,
                          const std::vector<Tuple>& reservoir) {
  ResetLeafStats(StatMode::kExact, static_cast<double>(data.size()));
  // Column-oriented archive scan: per-row work touches only the predicate
  // and tracked columns, read straight out of their contiguous arrays.
  const std::vector<int>& pred = opts_.spec.predicate_columns;
  std::vector<ColumnSpan> pred_cols;
  pred_cols.reserve(pred.size());
  for (int c : pred) pred_cols.push_back(data.column(c));
  std::vector<ColumnSpan> tracked_cols;
  tracked_cols.reserve(tracked_columns_.size());
  for (int c : tracked_columns_) tracked_cols.push_back(data.column(c));
  const ColumnSpan agg = data.column(opts_.spec.agg_column);
  const size_t n = data.size();

  // The per-row body of the exact-statistics scan over [begin, end),
  // accumulating into `stats` (leaf-indexed). Leaf routing and the domain
  // growth are read-only / lock-free, so workers share them safely.
  const auto scan_range = [&](size_t begin, size_t end,
                              std::vector<LeafStats>* stats) {
    double point[kMaxColumns];
    for (size_t pos = begin; pos < end; ++pos) {
      for (size_t i = 0; i < pred_cols.size(); ++i) {
        point[i] = pred_cols[i].data != nullptr ? pred_cols[i][pos] : 0.0;
      }
      GrowDomain(point);
      const int leaf = spec_.LeafFor(point);
      LeafStats& ls = (*stats)[static_cast<size_t>(leaf)];
      for (size_t i = 0; i < tracked_cols.size(); ++i) {
        ls.columns[i].exact.Add(
            tracked_cols[i].data != nullptr ? tracked_cols[i][pos] : 0.0);
      }
      ls.minmax.Insert(agg.data != nullptr ? agg[pos] : 0.0);
    }
  };

  const scan::MorselPlan plan =
      scan::PlanMorsels(opts_.exec, n, scan::MorselCost::kHeavyItems);
  if (plan.workers <= 1) {
    scan_range(0, n, &leaf_stats_);
  } else {
    // Work-stealing initialization: per-slot leaf partials accumulated over
    // whichever morsels each worker claims, merged in slot order. Counts
    // and min/max merge associatively (bit-identical to serial); the
    // floating-point moment sums agree with serial to reassociation (the
    // 1e-12 equivalence contract).
    std::vector<std::vector<LeafStats>> partials(plan.workers);
    scan::ForEachMorsel(
        opts_.exec, n, plan,
        [&](size_t slot, size_t, size_t begin, size_t end) {
          std::vector<LeafStats>& mine = partials[slot];
          if (mine.empty()) {
            // First morsel this slot claims: build its scratch once — a
            // slot runs many morsels, and re-initializing per claim would
            // silently drop earlier partials.
            mine.resize(leaf_stats_.size());
            for (LeafStats& ls : mine) {
              ls.columns.resize(tracked_columns_.size());
              ls.minmax =
                  MinMaxTracker(static_cast<size_t>(opts_.minmax_k));
            }
          }
          scan_range(begin, end, &mine);
        });
    for (std::vector<LeafStats>& part : partials) {
      if (part.empty()) continue;  // slot never claimed a morsel
      for (size_t leaf = 0; leaf < leaf_stats_.size(); ++leaf) {
        LeafStats& dst = leaf_stats_[leaf];
        const LeafStats& src = part[leaf];
        for (size_t i = 0; i < dst.columns.size(); ++i) {
          dst.columns[i].exact.Merge(src.columns[i].exact);
        }
        dst.minmax.Merge(src.minmax);
      }
    }
  }
  ResetSamples(reservoir);
}

void Dpt::InitializeFromReservoir(const std::vector<Tuple>& reservoir,
                                  size_t n0) {
  ResetLeafStats(StatMode::kCatchup, static_cast<double>(n0));
  const std::vector<KdPoint> pts = SamplePoints(reservoir);
  // Four independent parts, each writing only its own members: the leaf
  // seeding (leaf statistics, catch-up mass, domain), the id mirror, and the
  // two halves of the sample index. Each runs as it would serially, so the
  // tree is bit-identical under any worker count.
  size_t workers = opts_.exec.pool == nullptr ? 1 : 4;
  if (opts_.exec.max_workers > 0) {
    workers = std::min(workers, opts_.exec.max_workers);
  }
  scan::ForEachIndex(opts_.exec, 4, workers, [&](size_t part) {
    switch (part) {
      case 0:
        for (const Tuple& t : reservoir) AddCatchupSample(t);
        break;
      case 1:
        MirrorSamples(reservoir);
        break;
      case 2:
        samples_.BuildPart(MaxVarianceIndex::Part::kKdTree, pts);
        break;
      default:
        samples_.BuildPart(MaxVarianceIndex::Part::kRankTree, pts);
        break;
    }
  });
}

void Dpt::ApplyInsert(const Tuple& t) {
  if (spec_.nodes.empty()) return;  // placeholder spec (failed LoadFrom)
  double point[kMaxColumns];
  ProjectTuple(t, opts_.spec.predicate_columns, point);
  GrowDomain(point);
  const int leaf = spec_.LeafFor(point);
  MutexLock lock(&leaf_mu_[leaf]);
  LeafStats& ls = leaf_stats_[static_cast<size_t>(leaf)];
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    const double v = t[tracked_columns_[i]];
    if (mode_ == StatMode::kExact) {
      ls.columns[i].exact.Add(v);
    } else {
      ls.columns[i].inserted.Add(v);
    }
  }
  ls.minmax.Insert(t[opts_.spec.agg_column]);
}

void Dpt::ApplyDelete(const Tuple& t) {
  if (spec_.nodes.empty()) return;  // placeholder spec (failed LoadFrom)
  const int leaf = LeafForTuple(t);
  MutexLock lock(&leaf_mu_[leaf]);
  LeafStats& ls = leaf_stats_[static_cast<size_t>(leaf)];
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    const double v = t[tracked_columns_[i]];
    if (mode_ == StatMode::kExact) {
      ls.columns[i].exact.Remove(v);
    } else {
      ls.columns[i].removed.Add(v);
    }
  }
  ls.minmax.Erase(t[opts_.spec.agg_column]);
}

void Dpt::SampleAdd(const Tuple& t) {
  samples_.Insert(MakeKdPoint(t, opts_.spec.predicate_columns,
                              opts_.spec.agg_column));
  sample_tuples_[t.id] = t;
}

void Dpt::SampleRemove(const Tuple& t) {
  samples_.Delete(MakeKdPoint(t, opts_.spec.predicate_columns,
                              opts_.spec.agg_column));
  sample_tuples_.erase(t.id);
}

void Dpt::ResetSamples(const std::vector<Tuple>& samples) {
  MirrorSamples(samples);
  samples_.Build(SamplePoints(samples));
}

std::vector<KdPoint> Dpt::SamplePoints(
    const std::vector<Tuple>& samples) const {
  std::vector<KdPoint> pts;
  pts.reserve(samples.size());
  for (const Tuple& t : samples) {
    pts.push_back(MakeKdPoint(t, opts_.spec.predicate_columns,
                              opts_.spec.agg_column));
  }
  return pts;
}

void Dpt::MirrorSamples(const std::vector<Tuple>& samples) {
  sample_tuples_.clear();
  sample_tuples_.reserve(samples.size());
  for (const Tuple& t : samples) sample_tuples_[t.id] = t;
}

void Dpt::AddCatchupSample(const Tuple& t) {
  if (spec_.nodes.empty()) return;  // placeholder spec (failed LoadFrom)
  double point[kMaxColumns];
  ProjectTuple(t, opts_.spec.predicate_columns, point);
  GrowDomain(point);
  const int leaf = spec_.LeafFor(point);
  {
    MutexLock lock(&leaf_mu_[leaf]);
    AddCatchupToLeaf(t, &leaf_stats_[static_cast<size_t>(leaf)]);
  }
  catchup_total_.fetch_add(1.0);
}

void Dpt::AddCatchupToLeaf(const Tuple& t, LeafStats* ls) const {
  for (size_t i = 0; i < tracked_columns_.size(); ++i) {
    const double v = t[tracked_columns_[i]];
    ls->columns[i].catchup.count += 1;
    ls->columns[i].catchup.sum += v;
    ls->columns[i].catchup.sumsq += v * v;
  }
  ls->minmax.Insert(t[opts_.spec.agg_column]);
}

void Dpt::AddCatchupSamples(const std::vector<Tuple>& batch) {
  if (spec_.nodes.empty() || batch.empty()) return;
  const size_t n = batch.size();
  // A catch-up sample costs far more than a kernel row (tree descent plus
  // per-column moment updates), so the parallel cutoff sits much lower than
  // the scan kernels'.
  constexpr size_t kMinCatchupBatch = 2048;
  const scan::MorselPlan plan =
      scan::PlanMorselsAtCutoff(opts_.exec, n, kMinCatchupBatch,
                                scan::MorselCost::kHeavyItems);
  if (plan.workers <= 1) {
    for (const Tuple& t : batch) AddCatchupSample(t);
    return;
  }
  // Phase 1: route every draw in work-stealing morsels (routing is
  // read-only, domain growth is lock-free; every output lands at its own
  // index, so the result is bit-identical under any stealing).
  std::vector<int> leaf_of(n);
  scan::ForEachMorsel(opts_.exec, n, plan,
                      [&](size_t, size_t, size_t begin, size_t end) {
                        double point[kMaxColumns];
                        for (size_t i = begin; i < end; ++i) {
                          ProjectTuple(batch[i],
                                       opts_.spec.predicate_columns, point);
                          GrowDomain(point);
                          leaf_of[i] = spec_.LeafFor(point);
                        }
                      });
  // Phase 2: group the draws by leaf, preserving draw order within a leaf.
  std::vector<std::vector<uint32_t>> by_leaf(leaf_stats_.size());
  for (size_t i = 0; i < n; ++i) {
    by_leaf[static_cast<size_t>(leaf_of[i])].push_back(
        static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> active;
  for (size_t leaf = 0; leaf < by_leaf.size(); ++leaf) {
    if (!by_leaf[leaf].empty()) active.push_back(static_cast<uint32_t>(leaf));
  }
  // Phase 3: leaf-partitioned application — exactly one worker plays a
  // leaf's whole draw sequence, in draw order, so the resulting statistics
  // are bit-identical to the serial loop (cross-leaf order never matters;
  // catchup_total_ sums unit weights, which add exactly).
  scan::ForEachIndex(opts_.exec, active.size(), plan.workers, [&](size_t a) {
    const size_t leaf = active[a];
    MutexLock lock(&leaf_mu_[leaf]);
    for (uint32_t i : by_leaf[leaf]) {
      AddCatchupToLeaf(batch[i], &leaf_stats_[leaf]);
    }
  });
  catchup_total_.fetch_add(static_cast<double>(n));
}

double Dpt::LeafSampleCount(int node) const {
  const Rectangle& cell = LeafRect(node);
  // Either way a sum of integers, so the same exact count.
  if (samples_.RanksMirrorKd()) {
    return samples_.tree1d().KeyRangeAggregate(cell.lo(0), cell.hi(0)).count;
  }
  return samples_.kd().RangeAggregate(cell).count;
}

double Dpt::LeafCountEstimate(int leaf) const {
  const ColumnStats& c = leaf_stats_[static_cast<size_t>(leaf)].columns[0];
  if (mode_ == StatMode::kExact) return c.exact.count;
  const double h = catchup_total_.load();
  const double base = h > 0 ? n0_ * c.catchup.count / h : 0;
  // Deliberately unclamped: sampling noise can push a drained leaf slightly
  // negative, and clamping here would bias aggregated counts upward (the
  // negatives must cancel against other leaves' positives). Callers that
  // need a population for scaling clamp at use.
  return base + c.inserted.count - c.removed.count;
}

double Dpt::LeafSumEstimate(int leaf, int tracked_idx) const {
  const ColumnStats& c =
      leaf_stats_[static_cast<size_t>(leaf)]
          .columns[static_cast<size_t>(tracked_idx)];
  if (mode_ == StatMode::kExact) return c.exact.sum;
  const double h = catchup_total_.load();
  const double base = h > 0 ? n0_ * c.catchup.sum / h : 0;
  return base + c.inserted.sum - c.removed.sum;
}

double Dpt::NodeCountEstimate(int node) const {
  double total = 0;
  for (int i = range_lo_[static_cast<size_t>(node)];
       i < range_hi_[static_cast<size_t>(node)]; ++i) {
    total += LeafCountEstimate(dfs_leaves_[static_cast<size_t>(i)]);
  }
  return total;
}

double Dpt::NodeSumEstimate(int node, int column) const {
  const int ti = TrackedIndex(column);
  if (ti < 0) return 0;
  double total = 0;
  for (int i = range_lo_[static_cast<size_t>(node)];
       i < range_hi_[static_cast<size_t>(node)]; ++i) {
    total += LeafSumEstimate(dfs_leaves_[static_cast<size_t>(i)], ti);
  }
  return total;
}

TreeAgg Dpt::MatchingSamples(int leaf, const AggQuery& q, double* stratum_size,
                             int column) const {
  // m_i counts the samples in the closed cell: a sum of integers, so exact.
  *stratum_size = LeafSampleCount(leaf);
  const KdBox box = KdBox::Intersection(LeafRect(leaf), q.rect);
  if (column == opts_.spec.agg_column && samples_.RanksMirrorKd()) {
    // 1-D: the rank tree's subtree sums over cell ∩ q, in O(log m).
    return samples_.tree1d().KeyRangeAggregate(box.lo[0], box.hi[0]);
  }
  // The samples in cell ∩ q, added one by one in report order: the same
  // additions, in the same order, as filtering Report(cell) by q.
  TreeAgg match;
  auto add = [&match](double v) { match.Add({1.0, v, v * v}); };
  const DynamicKdTree& kd = samples_.kd();
  if (column == opts_.spec.agg_column) {
    kd.ForEachIn(box, [&](const KdPoint& p) { add(p.a); });
  } else {
    kd.ForEachIn(box, [&](const KdPoint& p) {
      const auto it = sample_tuples_.find(p.id);
      if (it != sample_tuples_.end()) add(it->second[column]);
    });
  }
  return match;
}

double Dpt::NodeCatchupCount(int node) const {
  double total = 0;
  for (int i = range_lo_[static_cast<size_t>(node)];
       i < range_hi_[static_cast<size_t>(node)]; ++i) {
    const int leaf = dfs_leaves_[static_cast<size_t>(i)];
    total += leaf_stats_[static_cast<size_t>(leaf)].columns[0].catchup.count;
  }
  return total;
}

void Dpt::CopyLeafStats(const Dpt& src, int src_node, int dst_node) {
  leaf_stats_[static_cast<size_t>(dst_node)] =
      src.leaf_stats_[static_cast<size_t>(src_node)];
}

void Dpt::SeedLeafCatchupFromSamples(int leaf, const std::vector<Tuple>& ts,
                                     double scale) {
  LeafStats& ls = leaf_stats_[static_cast<size_t>(leaf)];
  for (const Tuple& t : ts) {
    for (size_t i = 0; i < tracked_columns_.size(); ++i) {
      const double v = t[tracked_columns_[i]];
      ls.columns[i].catchup.count += scale;
      ls.columns[i].catchup.sum += scale * v;
      ls.columns[i].catchup.sumsq += scale * v * v;
    }
    ls.minmax.Insert(t[opts_.spec.agg_column]);
  }
}

void Dpt::SetCatchupState(StatMode mode, double n0, double total) {
  mode_ = mode;
  n0_ = n0;
  catchup_total_.store(total);
}

size_t Dpt::MemoryBytes() const {
  const size_t d = static_cast<size_t>(dims());
  // Tree shape: nodes plus their heap-allocated rectangle bounds.
  size_t bytes =
      spec_.nodes.size() * (sizeof(PartitionNode) + 2 * d * sizeof(double));
  for (const LeafStats& ls : leaf_stats_) {
    bytes += ls.columns.capacity() * sizeof(ColumnStats);
  }
  // MIN/MAX heaps: up to 2k multiset nodes per leaf (value + rb-tree node).
  bytes += spec_.leaves.size() * 2 * static_cast<size_t>(opts_.minmax_k) *
           (sizeof(double) + 4 * sizeof(void*));
  // Pooled sample: kd-index points (point + subtree aggregates) and the
  // id -> tuple mirror.
  bytes += samples_.size() * 2 * sizeof(KdPoint);
  bytes += sample_tuples_.size() *
               (sizeof(uint64_t) + sizeof(Tuple) + sizeof(void*)) +
           sample_tuples_.bucket_count() * sizeof(void*);
  return bytes;
}

void Dpt::SaveTo(persist::Writer* w) const {
  // Tree spec.
  w->Size(spec_.nodes.size());
  for (const PartitionNode& n : spec_.nodes) {
    persist::SaveRectangle(n.rect, w);
    w->I32(n.left);
    w->I32(n.right);
    w->I32(n.parent);
    w->I32(n.split_dim);
    w->F64(n.split_val);
  }
  w->IntVec(spec_.leaves);
  w->I32(spec_.dims);
  w->F64(spec_.worst_error);

  // Catch-up bookkeeping and observed domain.
  w->U8(mode_ == StatMode::kExact ? 0 : 1);
  w->F64(n0_);
  w->F64(catchup_total_.load());
  for (int d = 0; d < kMaxColumns; ++d) {
    w->F64(domain_lo_[static_cast<size_t>(d)].load());
    w->F64(domain_hi_[static_cast<size_t>(d)].load());
  }

  // Per-node statistics (empty column vectors for internal nodes).
  for (const LeafStats& ls : leaf_stats_) {
    w->Size(ls.columns.size());
    for (const ColumnStats& c : ls.columns) {
      persist::SaveMoments(c.exact, w);
      persist::SaveMoments(c.inserted, w);
      persist::SaveMoments(c.removed, w);
      persist::SaveTreeAgg(c.catchup, w);
    }
    ls.minmax.SaveTo(w);
  }

  // Pooled sample: structure-exact indexes plus the id -> tuple mirror
  // (serialized in ascending id order; the map's own iteration order is
  // never load-bearing for template queries).
  samples_.SaveTo(w);
  std::vector<uint64_t> ids;
  ids.reserve(sample_tuples_.size());
  for (const auto& [id, t] : sample_tuples_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w->Size(ids.size());
  for (uint64_t id : ids) persist::SaveTuple(sample_tuples_.at(id), w);
}

void Dpt::LoadFrom(persist::Reader* r) {
  PartitionTreeSpec spec;
  const size_t num_nodes = r->Size();
  if (num_nodes == 0) {
    throw persist::PersistError("snapshot corrupt: empty partition tree");
  }
  spec.nodes.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    PartitionNode n;
    n.rect = persist::LoadRectangle(r);
    n.left = r->I32();
    n.right = r->I32();
    n.parent = r->I32();
    n.split_dim = r->I32();
    n.split_val = r->F64();
    const int max_idx = static_cast<int>(num_nodes);
    if (n.left >= max_idx || n.right >= max_idx || n.parent >= max_idx) {
      throw persist::PersistError(
          "snapshot corrupt: partition node link out of range");
    }
    spec.nodes.push_back(std::move(n));
  }
  spec.leaves = r->IntVec();
  for (int leaf : spec.leaves) {
    if (leaf < 0 || static_cast<size_t>(leaf) >= num_nodes) {
      throw persist::PersistError(
          "snapshot corrupt: leaf index out of range");
    }
  }
  spec.dims = r->I32();
  if (spec.dims != dims()) {
    throw persist::PersistError(
        "snapshot mismatch: partition tree dimensionality differs from the "
        "engine's configured template");
  }
  spec.worst_error = r->F64();
  spec_ = std::move(spec);

  const uint8_t mode = r->U8();
  mode_ = mode == 0 ? StatMode::kExact : StatMode::kCatchup;
  n0_ = r->F64();
  catchup_total_.store(r->F64());
  for (int d = 0; d < kMaxColumns; ++d) {
    domain_lo_[static_cast<size_t>(d)].store(r->F64());
    domain_hi_[static_cast<size_t>(d)].store(r->F64());
  }

  leaf_stats_.clear();
  leaf_stats_.resize(spec_.nodes.size());
  leaf_mu_ = std::make_unique<Mutex[]>(spec_.nodes.size());
  ComputeLeafRanges();
  for (LeafStats& ls : leaf_stats_) {
    const size_t cols = r->Size();
    if (cols != 0 && cols != tracked_columns_.size()) {
      throw persist::PersistError(
          "snapshot mismatch: tracked-column count differs from the "
          "engine's configuration");
    }
    ls.columns.assign(cols, ColumnStats{});
    for (ColumnStats& c : ls.columns) {
      c.exact = persist::LoadMoments(r);
      c.inserted = persist::LoadMoments(r);
      c.removed = persist::LoadMoments(r);
      c.catchup = persist::LoadTreeAgg(r);
    }
    ls.minmax.LoadFrom(r);
  }

  samples_.LoadFrom(r);
  sample_tuples_.clear();
  const size_t num_samples = r->Size();
  sample_tuples_.reserve(num_samples);
  for (size_t i = 0; i < num_samples; ++i) {
    const Tuple t = persist::LoadTuple(r);
    sample_tuples_[t.id] = t;
  }
}

void Dpt::Frontier(const Rectangle& q, std::vector<int>* cover,
                   std::vector<int>* partial) const {
  cover->clear();
  partial->clear();
  // Each node's rectangle is clipped in place, one dimension at a time.
  const int num_dims = dims();
  std::array<double, kMaxColumns> dom_lo{};
  std::array<double, kMaxColumns> dom_hi{};
  for (size_t d = 0; d < static_cast<size_t>(num_dims); ++d) {
    dom_lo[d] = domain_lo_[d].load(std::memory_order_relaxed);
    dom_hi[d] = domain_hi_[d].load(std::memory_order_relaxed);
  }
  auto visit = [&](auto& self, int i) -> void {
    const PartitionNode& n = spec_.nodes[static_cast<size_t>(i)];
    bool covered = true;
    for (int d = 0; d < num_dims; ++d) {
      const double lo = std::max(n.rect.lo(d), dom_lo[static_cast<size_t>(d)]);
      const double hi = std::min(n.rect.hi(d), dom_hi[static_cast<size_t>(d)]);
      // Empty once clipped, or disjoint from the query.
      if (lo > hi || hi < q.lo(d) || lo > q.hi(d)) return;
      if (lo < q.lo(d) || hi > q.hi(d)) covered = false;
    }
    if (covered) {
      cover->push_back(i);
    } else if (n.IsLeaf()) {
      partial->push_back(i);
    } else {
      self(self, n.right);  // right first: the order the answer sums in
      self(self, n.left);
    }
  };
  visit(visit, 0);
}

QueryResult Dpt::QuerySampleOnly(const AggQuery& q) const {
  // Uniform-sample fallback (Sec. 5.5, heuristic ii): treat the pooled
  // reservoir as a plain uniform sample of the whole table.
  QueryResult r;
  const double n_total = NodeCountEstimate(0);
  const double m = static_cast<double>(sample_tuples_.size());
  if (m == 0) return r;
  TreeAgg match;
  double best_min = std::numeric_limits<double>::max();
  double best_max = std::numeric_limits<double>::lowest();
  std::vector<double> point(q.predicate_columns.size());
  // Sum in the k-d tree's report order, which a snapshot restores exactly
  // (the id map's iteration order depends on its history). A query on the
  // template's predicate columns walks only its own box.
  const KdBox box = q.predicate_columns == opts_.spec.predicate_columns
                        ? KdBox::Of(q.rect)
                        : KdBox::Unbounded();
  samples_.kd().ForEachIn(box, [&](const KdPoint& p) {
    const auto it = sample_tuples_.find(p.id);
    if (it == sample_tuples_.end()) return;
    const Tuple& t = it->second;
    ProjectTuple(t, q.predicate_columns, point.data());
    if (!q.rect.Contains(point.data())) return;
    const double v = t[q.agg_column];
    match.Add({1.0, v, v * v});
    best_min = std::min(best_min, v);
    best_max = std::max(best_max, v);
  });
  switch (q.func) {
    case AggFunc::kSum:
      r.estimate = n_total / m * match.sum;
      r.variance_sample = SumQueryVariance(n_total, m, match);
      break;
    case AggFunc::kCount:
      r.estimate = n_total / m * match.count;
      r.variance_sample = CountQueryVariance(n_total, m, match.count);
      break;
    case AggFunc::kAvg:
      r.estimate = match.count > 0 ? match.sum / match.count : 0;
      r.variance_sample = AvgQueryVariance(1.0, m, match);
      break;
    case AggFunc::kMin:
      r.estimate = match.count > 0 ? best_min : 0;
      break;
    case AggFunc::kMax:
      r.estimate = match.count > 0 ? best_max : 0;
      break;
  }
  r.partial_leaves = 1;
  r.ci_half_width = NormalZ(opts_.confidence) *
                    std::sqrt(r.variance_catchup + r.variance_sample);
  return r;
}

QueryResult Dpt::QueryMinMax(const AggQuery& q) const {
  QueryResult r;
  if (q.agg_column != opts_.spec.agg_column ||
      q.predicate_columns != opts_.spec.predicate_columns) {
    return QuerySampleOnly(q);
  }
  thread_local std::vector<int> cover, partial;  // reused: no allocation
  Frontier(q.rect, &cover, &partial);
  const bool want_min = q.func == AggFunc::kMin;
  double best = want_min ? std::numeric_limits<double>::max()
                         : std::numeric_limits<double>::lowest();
  bool any = false;
  bool exact = mode_ == StatMode::kExact;
  for (int node : cover) {
    for (int li = range_lo_[static_cast<size_t>(node)];
         li < range_hi_[static_cast<size_t>(node)]; ++li) {
      const int leaf = dfs_leaves_[static_cast<size_t>(li)];
      const MinMaxTracker& mm = leaf_stats_[static_cast<size_t>(leaf)].minmax;
      const auto v = want_min ? mm.Min() : mm.Max();
      if (v.has_value()) {
        best = want_min ? std::min(best, *v) : std::max(best, *v);
        any = true;
        if (mm.degraded()) exact = false;
      }
    }
  }
  for (int i : partial) {
    samples_.kd().ForEachIn(KdBox::Intersection(LeafRect(i), q.rect),
                            [&](const KdPoint& p) {
                              best = want_min ? std::min(best, p.a)
                                              : std::max(best, p.a);
                              any = true;
                            });
    exact = false;  // sampled extrema carry no guarantee
  }
  r.estimate = any ? best : 0;
  r.exact = any && exact;
  r.covered_nodes = cover.size();
  r.partial_leaves = partial.size();
  return r;
}

QueryResult Dpt::Query(const AggQuery& q) const {
  // A Dpt left holding the placeholder spec (a LoadFrom that threw part-way
  // through an engine restore) answers zero instead of walking no tree.
  if (spec_.nodes.empty()) return QueryResult{};
  if (q.predicate_columns != opts_.spec.predicate_columns) {
    return QuerySampleOnly(q);
  }
  if (q.func == AggFunc::kMin || q.func == AggFunc::kMax) {
    return QueryMinMax(q);
  }
  const int ti = TrackedIndex(q.agg_column);
  if (ti < 0 && q.func != AggFunc::kCount) {
    // Unknown aggregation attribute: estimate from the leaf samples
    // (Sec. 5.5, method 2.ii).
    return QuerySampleOnly(q);
  }
  const int column = q.agg_column;

  QueryResult r;
  // Reused by every query on this thread, so a warm query allocates nothing.
  thread_local std::vector<int> cover, partial;
  Frontier(q.rect, &cover, &partial);
  r.covered_nodes = cover.size();
  r.partial_leaves = partial.size();

  const double h = catchup_total_.load();
  const double z = NormalZ(opts_.confidence);

  auto n_hat = [&](int node) { return NodeCountEstimate(node); };
  // Catch-up variance of a covered node, from its descendant leaves'
  // catch-up moments (Sec. 4.4.1). SUM/COUNT use the Horvitz-Thompson form
  // which folds in the uncertainty of N̂_i itself (see variance.h).
  auto covered_catchup_variance = [&](int node, AggFunc f, double wi) {
    if (mode_ != StatMode::kCatchup || h <= 0 || ti < 0) return 0.0;
    double nu = 0;
    for (int li = range_lo_[static_cast<size_t>(node)];
         li < range_hi_[static_cast<size_t>(node)]; ++li) {
      const int leaf = dfs_leaves_[static_cast<size_t>(li)];
      const ColumnStats& c =
          leaf_stats_[static_cast<size_t>(leaf)]
              .columns[static_cast<size_t>(ti)];
      if (c.catchup.count <= 0) continue;
      switch (f) {
        case AggFunc::kAvg:
          nu += AvgCatchupVariance(wi, c.catchup.count, c.catchup);
          break;
        case AggFunc::kSum:
          nu += HtSumCatchupVariance(n0_, h, c.catchup);
          break;
        case AggFunc::kCount:
          nu += HtCountCatchupVariance(n0_, h, c.catchup.count);
          break;
        default:
          break;
      }
    }
    return nu;
  };

  if (q.func == AggFunc::kSum || q.func == AggFunc::kCount) {
    double agg = 0;
    double nu_c = 0;
    for (int i : cover) {
      if (q.func == AggFunc::kSum) {
        agg += NodeSumEstimate(i, column);
      } else {
        agg += NodeCountEstimate(i);
      }
      nu_c += covered_catchup_variance(i, q.func, /*wi=*/1.0);
    }
    double samp = 0;
    double nu_s = 0;
    for (int i : partial) {
      double mi = 0;
      const TreeAgg match = MatchingSamples(i, q, &mi, column);
      if (mi <= 0) continue;
      const double ni = std::max(0.0, n_hat(i));
      if (q.func == AggFunc::kSum) {
        samp += ni / mi * match.sum;
        nu_s += SumQueryVariance(ni, mi, match);
      } else {
        samp += ni / mi * match.count;
        nu_s += CountQueryVariance(ni, mi, match.count);
      }
    }
    r.estimate = agg + samp;
    r.variance_catchup = nu_c;
    r.variance_sample = nu_s;
    r.exact = mode_ == StatMode::kExact && partial.empty();
    r.ci_half_width = z * std::sqrt(nu_c + nu_s);
    return r;
  }

  // AVG: weighted average over relevant partitions with w_i = N̂_i / N̂_q
  // (Sec. 2.3.2 / Appendix C). Partial leaves are weighted by their
  // *matching* population N̂_i * |S_i∩q| / m_i rather than the full stratum;
  // this keeps the estimator unbiased when the predicate clips a leaf (the
  // paper's N_q reduces to the same quantity when queries align with
  // buckets).
  struct PartialInfo {
    int node;
    double mi;
    double eff;  // estimated matching population
    TreeAgg match;
  };
  thread_local std::vector<PartialInfo> infos;
  infos.clear();
  double nq = 0;
  for (int i : cover) nq += n_hat(i);
  for (int i : partial) {
    PartialInfo info;
    info.node = i;
    info.match = MatchingSamples(i, q, &info.mi, column);
    info.eff = info.mi > 0
                   ? std::max(0.0, n_hat(i)) * info.match.count / info.mi
                   : 0;
    nq += info.eff;
    infos.push_back(info);
  }
  if (nq <= 0) return r;
  double est = 0;
  double nu_c = 0;
  double nu_s = 0;
  for (int i : cover) {
    const double ni = n_hat(i);
    if (ni <= 0) continue;
    const double wi = ni / nq;
    const double avg_i = NodeSumEstimate(i, column) / ni;
    est += wi * avg_i;
    nu_c += covered_catchup_variance(i, AggFunc::kAvg, wi);
  }
  for (const PartialInfo& info : infos) {
    if (info.mi <= 0 || info.match.count <= 0) continue;
    const double wi = info.eff / nq;
    est += wi * (info.match.sum / info.match.count);
    nu_s += AvgQueryVariance(wi, info.mi, info.match);
  }
  r.estimate = est;
  r.variance_catchup = nu_c;
  r.variance_sample = nu_s;
  r.exact = mode_ == StatMode::kExact && partial.empty();
  r.ci_half_width = z * std::sqrt(nu_c + nu_s);
  return r;
}

void Dpt::CheckInvariants() const {
  if (spec_.nodes.empty()) {
    // Placeholder spec (constructed for LoadFrom); nothing to audit.
    invariants::Require(leaf_stats_.empty() && dfs_leaves_.empty(), "Dpt",
                        "placeholder spec carries leaf state");
    return;
  }
  // A tree over fewer dimensions than the template ignores the other
  // columns' bounds when it classifies nodes as covered.
  invariants::Require(
      static_cast<size_t>(spec_.dims) == opts_.spec.predicate_columns.size(),
      "Dpt",
      "tree partitions " + std::to_string(spec_.dims) +
          " dimensions, the template has " +
          std::to_string(opts_.spec.predicate_columns.size()));
  const size_t n = spec_.nodes.size();
  invariants::Require(
      leaf_stats_.size() == n && range_lo_.size() == n && range_hi_.size() == n,
      "Dpt", "per-node arrays are not parallel to the tree spec");
  invariants::Require(dfs_leaves_.size() == spec_.leaves.size(), "Dpt",
                      "DFS leaf order holds " +
                          std::to_string(dfs_leaves_.size()) +
                          " leaves, spec has " +
                          std::to_string(spec_.leaves.size()));
  for (size_t i = 0; i < n; ++i) {
    const PartitionNode& node = spec_.nodes[i];
    const int lo = range_lo_[i];
    const int hi = range_hi_[i];
    if (node.IsLeaf()) {
      invariants::Require(
          hi == lo + 1 && dfs_leaves_[static_cast<size_t>(lo)] ==
                              static_cast<int>(i),
          "Dpt", "leaf " + std::to_string(i) + " has a non-singleton or "
                                               "misdirected DFS range");
      invariants::Require(
          leaf_stats_[i].columns.size() == tracked_columns_.size(), "Dpt",
          "leaf " + std::to_string(i) + " tracks " +
              std::to_string(leaf_stats_[i].columns.size()) +
              " columns, expected " + std::to_string(tracked_columns_.size()));
    } else {
      invariants::Require(node.left >= 0 && node.right >= 0 &&
                              static_cast<size_t>(node.left) < n &&
                              static_cast<size_t>(node.right) < n,
                          "Dpt", "internal node " + std::to_string(i) +
                                     " has out-of-range children");
      // An internal node's leaf range is exactly the concatenation of its
      // children's — the property every O(#leaves) node aggregate relies on.
      invariants::Require(
          lo == range_lo_[static_cast<size_t>(node.left)] &&
              range_hi_[static_cast<size_t>(node.left)] ==
                  range_lo_[static_cast<size_t>(node.right)] &&
              range_hi_[static_cast<size_t>(node.right)] == hi,
          "Dpt",
          "internal node " + std::to_string(i) +
              "'s DFS range does not tile its children's");
    }
  }
  // Catch-up bookkeeping: the global mass equals the per-leaf masses. Both
  // sides accumulate in different orders (and grafts seed scaled weights),
  // so compare with a relative tolerance.
  const double leaf_mass = NodeCatchupCount(0);
  const double total = catchup_total_.load();
  invariants::Require(
      std::abs(leaf_mass - total) <=
          1e-6 * std::max({1.0, std::abs(leaf_mass), std::abs(total)}),
      "Dpt", "leaf catch-up masses sum to " + std::to_string(leaf_mass) +
                 ", catchup_total is " + std::to_string(total));
  // Pooled sample: the index's own structures, then index vs tuple mirror.
  samples_.CheckInvariants();
  invariants::Require(samples_.size() == sample_tuples_.size(), "Dpt",
                      "sample index holds " + std::to_string(samples_.size()) +
                          " points, mirror holds " +
                          std::to_string(sample_tuples_.size()) + " tuples");
  for (const auto& [id, t] : sample_tuples_) {
    KdBox at;  // the sample's own coordinates
    at.lo = at.hi =
        MakeKdPoint(t, opts_.spec.predicate_columns, opts_.spec.agg_column).x;
    bool found = false;
    samples_.kd().ForEachIn(
        at, [&](const KdPoint& q) { found = found || q.id == id; });
    invariants::Require(found, "Dpt",
                        "mirrored sample id " + std::to_string(id) +
                            " is missing from the kd index at its "
                            "coordinates");
  }
}

}  // namespace janus
