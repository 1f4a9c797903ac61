#include "index/dynamic_kd_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "persist/common.h"
#include "util/invariants.h"

namespace janus {

KdBox KdBox::Unbounded() {
  KdBox box;
  box.lo.fill(-std::numeric_limits<double>::infinity());
  box.hi.fill(std::numeric_limits<double>::infinity());
  return box;
}

KdBox KdBox::Of(const Rectangle& r) {
  KdBox box = Unbounded();
  const int dims = std::min(r.dims(), kMaxColumns);
  for (int d = 0; d < dims; ++d) {
    box.lo[static_cast<size_t>(d)] = r.lo(d);
    box.hi[static_cast<size_t>(d)] = r.hi(d);
  }
  return box;
}

KdBox KdBox::Intersection(const Rectangle& a, const Rectangle& b) {
  KdBox box = Of(a);
  const int dims = std::min(a.dims(), kMaxColumns);
  for (int d = 0; d < dims; ++d) {
    box.lo[static_cast<size_t>(d)] = std::max(a.lo(d), b.lo(d));
    box.hi[static_cast<size_t>(d)] = std::min(a.hi(d), b.hi(d));
  }
  return box;
}

DynamicKdTree::DynamicKdTree(int dims) : dims_(dims) {}

DynamicKdTree::~DynamicKdTree() { FreeTree(root_); }

void DynamicKdTree::FreeTree(Node* n) {
  if (!n) return;
  FreeTree(n->left);
  FreeTree(n->right);
  delete n;
}

DynamicKdTree::Node* DynamicKdTree::BuildRec(std::vector<KdPoint>* pts,
                                             size_t lo, size_t hi, int depth) {
  Node* n = new Node;
  n->InitBox(dims_);
  for (size_t i = lo; i < hi; ++i) {
    n->AddStats((*pts)[i]);
    n->GrowBox((*pts)[i], dims_);
  }
  if (hi - lo <= kLeafCapacity) {
    n->leaf_points.assign(pts->begin() + static_cast<ptrdiff_t>(lo),
                          pts->begin() + static_cast<ptrdiff_t>(hi));
    return n;
  }
  // Split on the widest dimension of the box (round-robin degenerates on
  // strongly clustered data).
  int dim = 0;
  double best_extent = -1;
  for (int d = 0; d < dims_; ++d) {
    const double extent = n->bb_hi[d] - n->bb_lo[d];
    if (extent > best_extent) {
      best_extent = extent;
      dim = d;
    }
  }
  if (best_extent <= 0) dim = depth % dims_;  // all points identical in box
  const size_t mid = lo + (hi - lo) / 2;
  std::nth_element(pts->begin() + static_cast<ptrdiff_t>(lo),
                   pts->begin() + static_cast<ptrdiff_t>(mid),
                   pts->begin() + static_cast<ptrdiff_t>(hi),
                   [dim](const KdPoint& a, const KdPoint& b) {
                     return a.x[dim] < b.x[dim];
                   });
  n->split_dim = dim;
  n->split_val = (*pts)[mid].x[dim];
  n->left = BuildRec(pts, lo, mid, depth + 1);
  n->right = BuildRec(pts, mid, hi, depth + 1);
  return n;
}

void DynamicKdTree::Build(std::vector<KdPoint> points) {
  FreeTree(root_);
  size_ = points.size();
  root_ = points.empty() ? nullptr
                         : BuildRec(&points, 0, points.size(), 0);
}

void DynamicKdTree::CollectPoints(Node* n, std::vector<KdPoint>* out) const {
  if (!n) return;
  if (n->IsLeaf()) {
    out->insert(out->end(), n->leaf_points.begin(), n->leaf_points.end());
    return;
  }
  CollectPoints(n->left, out);
  CollectPoints(n->right, out);
}

void DynamicKdTree::MaybeRebuild(std::vector<Node*>* path) {
  // Find the highest node on the insertion path that is out of balance and
  // rebuild its whole subtree (scapegoat strategy).
  for (size_t i = 0; i < path->size(); ++i) {
    Node* n = (*path)[i];
    if (n->IsLeaf()) continue;
    const size_t lc = n->left->count;
    const size_t rc = n->right->count;
    const size_t total = lc + rc;
    if (total > 2 * kLeafCapacity &&
        (static_cast<double>(std::max(lc, rc)) >
         kRebuildFactor * static_cast<double>(total))) {
      std::vector<KdPoint> pts;
      pts.reserve(n->count);
      CollectPoints(n, &pts);
      Node* rebuilt = BuildRec(&pts, 0, pts.size(), 0);
      // Graft rebuilt subtree in place of n.
      FreeTree(n->left);
      FreeTree(n->right);
      *n = std::move(*rebuilt);
      rebuilt->left = rebuilt->right = nullptr;
      rebuilt->leaf_points.clear();
      delete rebuilt;
      return;
    }
  }
}

void DynamicKdTree::Insert(const KdPoint& p) {
  ++size_;
  if (!root_) {
    root_ = new Node;
    root_->InitBox(dims_);
    root_->AddStats(p);
    root_->GrowBox(p, dims_);
    root_->leaf_points.push_back(p);
    return;
  }
  std::vector<Node*> path;
  Node* n = root_;
  while (true) {
    path.push_back(n);
    n->AddStats(p);
    n->GrowBox(p, dims_);
    if (n->IsLeaf()) break;
    n = (p.x[n->split_dim] < n->split_val) ? n->left : n->right;
  }
  n->leaf_points.push_back(p);
  if (n->leaf_points.size() > 2 * kLeafCapacity) {
    // Split the overflowing leaf in place.
    std::vector<KdPoint> pts = std::move(n->leaf_points);
    Node* rebuilt = BuildRec(&pts, 0, pts.size(), 0);
    *n = std::move(*rebuilt);
    rebuilt->left = rebuilt->right = nullptr;
    rebuilt->leaf_points.clear();
    delete rebuilt;
  }
  MaybeRebuild(&path);
}

bool DynamicKdTree::Delete(const double* x, uint64_t id) {
  if (!root_) return false;
  // A point equal to an older split may sit on either side of it, so the
  // splits cannot route the search: it is depth first, right subtree first,
  // over the nodes whose (possibly loose) box holds x. A node at depth d is
  // entered as delete_path_[d]; the entries above it are then its ancestors.
  // Both stacks are kept across calls, so a delete allocates nothing.
  delete_stack_.clear();
  delete_stack_.push_back({root_, 0});
  while (!delete_stack_.empty()) {
    const auto [n, depth] = delete_stack_.back();
    delete_stack_.pop_back();
    bool in_box = true;
    for (int d = 0; d < dims_; ++d) {
      if (x[d] < n->bb_lo[d] || x[d] > n->bb_hi[d]) {
        in_box = false;
        break;
      }
    }
    if (!in_box) continue;
    if (delete_path_.size() <= depth) delete_path_.resize(depth + 1);
    delete_path_[depth] = n;
    if (!n->IsLeaf()) {
      delete_stack_.push_back({n->left, depth + 1});
      delete_stack_.push_back({n->right, depth + 1});
      continue;
    }
    std::vector<KdPoint>& pts = n->leaf_points;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].id != id) continue;
      const KdPoint p = pts[i];
      pts[i] = pts.back();
      pts.pop_back();
      for (size_t d = 0; d <= depth; ++d) delete_path_[d]->RemoveStats(p);
      --size_;
      // Emptied subtrees are left in place: query traversals skip count == 0
      // nodes and the next scapegoat rebuild on an insertion path reclaims
      // them.
      return true;
    }
  }
  return false;
}

TreeAgg DynamicKdTree::RangeAggregate(const Rectangle& rect) const {
  TreeAgg agg;
  if (root_ == nullptr) return agg;
  const KdBox box = KdBox::Of(rect);
  auto on_node = [&](const Node& n, BoxRelation rel) {
    if (rel == BoxRelation::kInside) {
      agg.Add({static_cast<double>(n.count), n.sum, n.sumsq});
      return false;
    }
    if (!n.IsLeaf()) return true;
    for (const KdPoint& p : n.leaf_points) {
      if (Contains(box, p)) agg.Add({1.0, p.a, p.a * p.a});
    }
    return false;
  };
  Walk(root_, box, on_node);
  return agg;
}

void DynamicKdTree::Report(const Rectangle& rect,
                           std::vector<KdPoint>* out) const {
  ForEachIn(KdBox::Of(rect), [out](const KdPoint& p) { out->push_back(p); });
}

TreeAgg DynamicKdTree::MaxSumsqCell(const Rectangle& rect, size_t cap) const {
  TreeAgg best;
  if (root_ == nullptr) return best;
  const KdBox box = KdBox::Of(rect);
  auto on_node = [&](const Node& n, BoxRelation rel) {
    if (rel == BoxRelation::kInside && n.count <= cap) {
      if (n.sumsq > best.sumsq) {
        best = {static_cast<double>(n.count), n.sum, n.sumsq};
      }
      return false;  // maximal cell; no need to descend
    }
    if (!n.IsLeaf()) return true;
    // Partially covered leaf (or an inside leaf above cap, impossible as
    // leaves hold <= 2*kLeafCapacity points): scan matching points as a
    // single candidate cell if they fit under the cap.
    TreeAgg agg;
    for (const KdPoint& p : n.leaf_points) {
      if (Contains(box, p)) agg.Add({1.0, p.a, p.a * p.a});
    }
    if (agg.count > 0 && agg.count <= static_cast<double>(cap) &&
        agg.sumsq > best.sumsq) {
      best = agg;
    }
    return false;
  };
  Walk(root_, box, on_node);
  return best;
}

Rectangle DynamicKdTree::BoundingBox() const {
  std::vector<double> lo(static_cast<size_t>(dims_), 0.0);
  std::vector<double> hi(static_cast<size_t>(dims_), 0.0);
  if (root_) {
    for (int d = 0; d < dims_; ++d) {
      lo[static_cast<size_t>(d)] = root_->bb_lo[d];
      hi[static_cast<size_t>(d)] = root_->bb_hi[d];
    }
  }
  return Rectangle(std::move(lo), std::move(hi));
}

void DynamicKdTree::Dump(std::vector<KdPoint>* out) const {
  out->clear();
  out->reserve(size_);
  CollectPoints(root_, out);
}

void DynamicKdTree::SaveNode(const Node* n, persist::Writer* w) const {
  if (n == nullptr) {
    w->Bool(false);
    return;
  }
  w->Bool(true);
  w->Bool(n->IsLeaf());
  w->I32(n->split_dim);
  w->F64(n->split_val);
  w->Size(n->count);
  w->F64(n->sum);
  w->F64(n->sumsq);
  for (int d = 0; d < kMaxColumns; ++d) {
    w->F64(n->bb_lo[static_cast<size_t>(d)]);
    w->F64(n->bb_hi[static_cast<size_t>(d)]);
  }
  if (n->IsLeaf()) {
    w->Size(n->leaf_points.size());
    for (const KdPoint& p : n->leaf_points) persist::SaveKdPoint(p, w);
  } else {
    SaveNode(n->left, w);
    SaveNode(n->right, w);
  }
}

DynamicKdTree::Node* DynamicKdTree::LoadNode(persist::Reader* r, int depth) {
  // Depth bound: the checksum catches accidental corruption, but a forged
  // payload could encode a pathologically deep chain and blow the stack
  // before any structural validation fires. Legitimate trees are scapegoat-
  // balanced (depth ~1.6*log2(n)), so 512 is unreachable in practice.
  if (depth > 512) {
    throw persist::PersistError("snapshot corrupt: kd-tree too deep");
  }
  if (!r->Bool()) return nullptr;
  const bool is_leaf = r->Bool();
  Node* n = new Node;
  n->split_dim = r->I32();
  n->split_val = r->F64();
  n->count = r->Size();
  n->sum = r->F64();
  n->sumsq = r->F64();
  for (int d = 0; d < kMaxColumns; ++d) {
    n->bb_lo[static_cast<size_t>(d)] = r->F64();
    n->bb_hi[static_cast<size_t>(d)] = r->F64();
  }
  if (is_leaf) {
    n->leaf_points.resize(r->Size());
    for (KdPoint& p : n->leaf_points) p = persist::LoadKdPoint(r);
  } else {
    n->left = LoadNode(r, depth + 1);
    n->right = LoadNode(r, depth + 1);
    if (n->left == nullptr || n->right == nullptr) {
      FreeTree(n);
      throw persist::PersistError(
          "snapshot corrupt: kd internal node missing a child");
    }
  }
  return n;
}

void DynamicKdTree::SaveTo(persist::Writer* w) const {
  w->I32(dims_);
  w->Size(size_);
  SaveNode(root_, w);
}

void DynamicKdTree::LoadFrom(persist::Reader* r) {
  const int dims = r->I32();
  if (dims != dims_) {
    throw persist::PersistError(
        "snapshot corrupt: kd-tree dimensionality mismatch");
  }
  FreeTree(root_);
  root_ = nullptr;
  size_ = r->Size();
  root_ = LoadNode(r, 0);
}

namespace {

/// Incrementally maintained sums drift from a fresh recompute by rounding;
/// accept a relative error proportional to the recomputed magnitude.
bool CloseEnough(double cached, double fresh) {
  const double tol = 1e-6 * std::max({1.0, std::abs(cached), std::abs(fresh)});
  return std::abs(cached - fresh) <= tol;
}

}  // namespace

TreeAgg DynamicKdTree::CheckNode(const Node* n) const {
  TreeAgg fresh;
  if (n->IsLeaf()) {
    for (const KdPoint& p : n->leaf_points) {
      for (int d = 0; d < dims_; ++d) {
        invariants::Require(n->bb_lo[d] <= p.x[d] && p.x[d] <= n->bb_hi[d],
                            "DynamicKdTree",
                            "leaf point outside its bounding box in dim " +
                                std::to_string(d));
      }
      fresh.Add({1.0, p.a, p.a * p.a});
    }
  } else {
    invariants::Require(n->left != nullptr && n->right != nullptr &&
                            n->leaf_points.empty(),
                        "DynamicKdTree",
                        "internal node missing a child or holding points");
    invariants::Require(0 <= n->split_dim && n->split_dim < dims_,
                        "DynamicKdTree",
                        "split dimension " + std::to_string(n->split_dim) +
                            " out of range for " + std::to_string(dims_) +
                            " dims");
    for (const Node* child : {n->left, n->right}) {
      if (child->count > 0) {
        for (int d = 0; d < dims_; ++d) {
          invariants::Require(
              n->bb_lo[d] <= child->bb_lo[d] && child->bb_hi[d] <= n->bb_hi[d],
              "DynamicKdTree",
              "child bounding box escapes its parent's in dim " +
                  std::to_string(d));
        }
      }
      fresh.Add(CheckNode(child));
    }
  }
  invariants::Require(static_cast<double>(n->count) == fresh.count,
                      "DynamicKdTree",
                      "cached subtree count " + std::to_string(n->count) +
                          " differs from recount " +
                          std::to_string(fresh.count));
  invariants::Require(
      CloseEnough(n->sum, fresh.sum) && CloseEnough(n->sumsq, fresh.sumsq),
      "DynamicKdTree", "cached subtree sum/sumsq differ from a recompute");
  return fresh;
}

void DynamicKdTree::CheckInvariants() const {
  const size_t n =
      root_ ? static_cast<size_t>(CheckNode(root_).count) : size_t{0};
  invariants::Require(n == size_, "DynamicKdTree",
                      "root holds " + std::to_string(n) +
                          " points, size() is " + std::to_string(size_));
}

}  // namespace janus
