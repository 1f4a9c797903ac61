#ifndef JANUS_INDEX_DYNAMIC_KD_TREE_H_
#define JANUS_INDEX_DYNAMIC_KD_TREE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "data/schema.h"
#include "index/order_stat_tree.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// A point in predicate space with an aggregation value. `id` addresses
/// deletions (reservoir evictions name a specific sample).
struct KdPoint {
  std::array<double, kMaxColumns> x{};
  double a = 0;
  uint64_t id = 0;
};

/// A closed box over the first coordinates of predicate space, held inline so
/// that a walk on the query path allocates nothing. A box with lo > hi in
/// some dimension is empty.
struct KdBox {
  std::array<double, kMaxColumns> lo{};
  std::array<double, kMaxColumns> hi{};

  /// The unbounded box: every point lies inside it.
  static KdBox Unbounded();
  /// The box of `r` (unbounded in the dimensions beyond r.dims()).
  static KdBox Of(const Rectangle& r);
  /// a ∩ b over the dimensions of `a`. With closed intervals a point with
  /// ordered coordinates lies inside it exactly when it lies inside both.
  static KdBox Intersection(const Rectangle& a, const Rectangle& b);
};

/// Dynamic multi-dimensional index over the pooled sample S. Replaces the
/// paper's dynamic range tree (see DESIGN.md): a bucketed k-d tree with
/// subtree aggregates (count, sum a, sum a^2) and partial-rebuild
/// rebalancing. Supports:
///  * Insert / Delete in O(log m) amortized,
///  * rectangle aggregate queries (count, sum, sumsq),
///  * box walks over the points inside a rectangle, allocation-free (a
///    query sums a partial leaf's samples in place) or reported into a
///    vector,
///  * enumeration of maximal "canonical cells" with at most `cap` points
///    inside a rectangle — the building block of the AVG max-variance index
///    (Appendix D.1).
class DynamicKdTree {
 public:
  explicit DynamicKdTree(int dims);
  ~DynamicKdTree();

  DynamicKdTree(const DynamicKdTree&) = delete;
  DynamicKdTree& operator=(const DynamicKdTree&) = delete;

  int dims() const { return dims_; }
  size_t size() const { return size_; }

  /// Bulk-load, replacing current contents. O(n log n).
  void Build(std::vector<KdPoint> points);

  void Insert(const KdPoint& p);

  /// Delete the point with the given id located at coordinates `x`.
  /// Returns false if no such point exists.
  bool Delete(const double* x, uint64_t id);

  /// Aggregates over all points inside `rect` (closed intervals). The count
  /// is exact: it equals Report(rect)'s size.
  TreeAgg RangeAggregate(const Rectangle& rect) const;

  /// Calls `visit(p)` on every point p inside `box` (closed intervals), in
  /// report order: depth first, right subtree before left, each leaf's
  /// points in storage order. A walk of a smaller box meets the points of a
  /// larger one that it holds in the same relative order, so a running sum
  /// over ForEachIn(KdBox::Intersection(a, b)) equals, bit for bit, the same
  /// sum over Report(a) filtered by b. Allocates nothing.
  ///
  /// A NaN coordinate fails every comparison and never widens a bounding
  /// box, so a point holding one is visited wherever its leaf's box meets
  /// `box`. For such a point the equivalence above needs its leaf's box to
  /// meet a ∩ b, not only a.
  template <typename Visit>
  void ForEachIn(const KdBox& box, Visit&& visit) const {
    if (root_ == nullptr) return;
    auto on_node = [&](const Node& n, BoxRelation rel) {
      if (!n.IsLeaf()) return true;
      for (const KdPoint& p : n.leaf_points) {
        if (rel == BoxRelation::kInside || Contains(box, p)) visit(p);
      }
      return false;
    };
    Walk(root_, box, on_node);
  }

  /// Append every point inside `rect` to `out`, in report order.
  void Report(const Rectangle& rect, std::vector<KdPoint>* out) const;

  /// Among subtrees ("canonical cells") fully inside `rect` whose point count
  /// is <= cap and whose parent exceeds cap (i.e. maximal small cells),
  /// return the aggregate of the one with the largest sumsq. Returns a
  /// zero-count aggregate when the rectangle is empty.
  TreeAgg MaxSumsqCell(const Rectangle& rect, size_t cap) const;

  /// All points (arbitrary order). O(n).
  void Dump(std::vector<KdPoint>* out) const;

  /// Bounding box of all stored points (the empty tree yields an
  /// inverted/degenerate box).
  Rectangle BoundingBox() const;

  /// Snapshot persistence. The tree's subtree statistics and bounding boxes
  /// are maintained incrementally (a delete subtracts from cached sums), so
  /// they are serialized verbatim rather than recomputed: a restored tree is
  /// bit-identical to the saved one, including the floating-point state of
  /// every cache and the exact report/traversal order.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit: internal nodes have two children and no points,
  /// every point lies inside its leaf's (possibly loose) bounding box and
  /// every non-empty child box inside its parent's, subtree counts add up
  /// exactly, cached sum/sumsq match a recompute within floating-point
  /// tolerance (they are maintained incrementally, so bit-equality is not an
  /// invariant), and size() matches the root count. Throws
  /// InvariantViolation on the first inconsistency.
  void CheckInvariants() const;

 private:
  enum class BoxRelation { kDisjoint, kInside, kPartial };

  struct Node {
    // Internal node: children non-null, leaf_points empty.
    // Leaf: children null, points in leaf_points.
    int split_dim = -1;
    double split_val = 0;
    Node* left = nullptr;
    Node* right = nullptr;
    std::vector<KdPoint> leaf_points;

    // Subtree statistics.
    size_t count = 0;
    double sum = 0;
    double sumsq = 0;
    // Bounding box of the subtree's points (tight at build, grows on insert).
    std::array<double, kMaxColumns> bb_lo{};
    std::array<double, kMaxColumns> bb_hi{};

    bool IsLeaf() const { return left == nullptr; }

    void InitBox(int dims) {
      for (int d = 0; d < dims; ++d) {
        bb_lo[d] = std::numeric_limits<double>::max();
        bb_hi[d] = std::numeric_limits<double>::lowest();
      }
    }
    void GrowBox(const KdPoint& p, int dims) {
      for (int d = 0; d < dims; ++d) {
        bb_lo[d] = std::min(bb_lo[d], p.x[d]);
        bb_hi[d] = std::max(bb_hi[d], p.x[d]);
      }
    }
    void AddStats(const KdPoint& p) {
      ++count;
      sum += p.a;
      sumsq += p.a * p.a;
    }
    void RemoveStats(const KdPoint& p) {
      --count;
      sum -= p.a;
      sumsq -= p.a * p.a;
    }
  };

  BoxRelation Classify(const KdBox& box, const Node& n) const {
    bool inside = true;
    for (int d = 0; d < dims_; ++d) {
      if (n.bb_hi[d] < box.lo[d] || n.bb_lo[d] > box.hi[d]) {
        return BoxRelation::kDisjoint;
      }
      if (n.bb_lo[d] < box.lo[d] || n.bb_hi[d] > box.hi[d]) inside = false;
    }
    return inside ? BoxRelation::kInside : BoxRelation::kPartial;
  }

  bool Contains(const KdBox& box, const KdPoint& p) const {
    for (int d = 0; d < dims_; ++d) {
      if (p.x[d] < box.lo[d] || p.x[d] > box.hi[d]) return false;
    }
    return true;
  }

  /// The walk under every box query: depth first from `n`, right subtree
  /// before left, over the non-empty nodes whose box meets `box`.
  /// `on_node(node, relation)` sees each one and returns whether to descend
  /// into its children.
  template <typename OnNode>
  void Walk(const Node* n, const KdBox& box, OnNode& on_node) const {
    if (n->count == 0) return;
    const BoxRelation rel = Classify(box, *n);
    if (rel == BoxRelation::kDisjoint || !on_node(*n, rel) || n->IsLeaf()) {
      return;
    }
    Walk(n->right, box, on_node);
    Walk(n->left, box, on_node);
  }

  /// Recursive worker for CheckInvariants(); verifies `n`'s subtree and
  /// returns its recomputed aggregate.
  TreeAgg CheckNode(const Node* n) const;

  static constexpr size_t kLeafCapacity = 16;
  static constexpr double kRebuildFactor = 0.65;

  Node* BuildRec(std::vector<KdPoint>* pts, size_t lo, size_t hi, int depth);
  void FreeTree(Node* n);
  void SaveNode(const Node* n, persist::Writer* w) const;
  Node* LoadNode(persist::Reader* r, int depth);
  void CollectPoints(Node* n, std::vector<KdPoint>* out) const;
  void MaybeRebuild(std::vector<Node*>* path);

  int dims_;
  size_t size_ = 0;
  Node* root_ = nullptr;
  /// Delete()'s search stack of (node, depth) and its root-to-node path,
  /// kept between calls for their capacity only.
  std::vector<std::pair<Node*, size_t>> delete_stack_;
  std::vector<Node*> delete_path_;
};

}  // namespace janus

#endif  // JANUS_INDEX_DYNAMIC_KD_TREE_H_
