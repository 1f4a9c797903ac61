#ifndef JANUS_INDEX_ORDER_STAT_TREE_H_
#define JANUS_INDEX_ORDER_STAT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// Aggregate statistics of a set of (key, value) points: the moments the
/// variance formulas of Appendix C need.
struct TreeAgg {
  double count = 0;
  double sum = 0;    ///< sum of aggregation values a
  double sumsq = 0;  ///< sum of a^2

  void Add(const TreeAgg& o) {
    count += o.count;
    sum += o.sum;
    sumsq += o.sumsq;
  }
  void Subtract(const TreeAgg& o) {
    count -= o.count;
    sum -= o.sum;
    sumsq -= o.sumsq;
  }
};

/// The rank structure of an OrderStatTree frozen into arrays: the key, the
/// value and the prefix aggregate at every rank, answered in O(1). Every
/// answer equals the tree's own bit for bit. It is a copy, made by
/// OrderStatTree::Tabulate() (or TabulateBuild(), with no tree at all), and
/// does not follow later tree updates.
class RankTable {
 public:
  size_t size() const { return keys_.size(); }
  double Select(size_t r) const { return keys_[r]; }
  double SelectValue(size_t r) const { return values_[r]; }
  TreeAgg PrefixAggregate(size_t r) const { return prefix_[r]; }
  TreeAgg RankRangeAggregate(size_t lo, size_t hi) const;

 private:
  friend class OrderStatTree;
  std::vector<double> keys_;
  std::vector<double> values_;
  std::vector<TreeAgg> prefix_;  ///< size() + 1 entries, from rank 0
};

/// Dynamic 1-D index over samples: a treap keyed by predicate value, with
/// subtree (count, sum a, sum a^2) aggregates. This is the "simple dynamic
/// search binary tree of space O(m)" of Sec. 4.2 / Sec. 5.2:
///   * O(log m) insert / delete,
///   * O(log m) rank / select (k-th smallest key),
///   * O(log m) aggregates over a key range or a rank range,
///   * an O(m) bulk build (a radix sort of the keys, then one stack pass)
///     and an O(m) RankTable of a fixed tree.
/// Duplicate keys are allowed.
///
/// A treap is the Cartesian tree of its (key, priority) pairs (Seidel and
/// Aragon, 1996): its in-order sequence and priorities fix its shape, and
/// Insert draws each priority from the tree's own RNG. So one stack pass
/// over the sorted points (Gabow, Bentley and Tarjan, 1984) lays out, over
/// arrays, the very tree that one Insert per point leaves. Build(points)
/// allocates its nodes from that layout; TabulateBuild(points) turns it into
/// a RankTable without allocating a node.
class OrderStatTree {
 public:
  OrderStatTree();
  ~OrderStatTree();

  OrderStatTree(const OrderStatTree&) = delete;
  OrderStatTree& operator=(const OrderStatTree&) = delete;

  /// Insert a point with key `key` and aggregation value `a`.
  void Insert(double key, double a);

  /// Replace the contents with `points` (key, value): the tree that Clear()
  /// followed by one Insert per point, in order, leaves — same shape,
  /// priorities, aggregates and RNG state — in O(m) with no
  /// rebalancing. Priorities are drawn from the current RNG.
  void Build(const std::vector<std::pair<double, double>>& points);

  /// The Tabulate() of a fresh tree after Build(points), bit for bit, made
  /// over arrays: for a reader that only needs ranks (the 1-D partitioners).
  static RankTable TabulateBuild(
      const std::vector<std::pair<double, double>>& points);

  /// Delete one point equal to (key, a). Returns false if absent.
  bool Delete(double key, double a);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Points whose key is NaN. Such a key has no place in the order: while
  /// one is held, key-range answers and ranks are not those of the points'
  /// sorted order, and Delete(NaN, a) finds nothing.
  size_t nan_keys() const { return nan_keys_; }
  void Clear();

  /// Number of points with key < `key`.
  size_t RankOf(double key) const;

  /// Key of the r-th smallest point (0-based). Requires r < size().
  double Select(size_t r) const;

  /// Aggregation value of the r-th smallest point (0-based).
  double SelectValue(size_t r) const;

  /// Aggregates over the first `r` points in key order (a "prefix").
  TreeAgg PrefixAggregate(size_t r) const;

  /// Aggregates over rank range [lo, hi) in key order.
  TreeAgg RankRangeAggregate(size_t lo, size_t hi) const;

  /// Aggregates over key range [lo, hi] (closed); empty when lo > hi. One
  /// descent to the first key inside the range, then one walk down each of
  /// its boundaries, adding whole in-range subtrees and nodes: O(log m), and
  /// it never subtracts, so a narrow range over large values keeps its
  /// relative precision (a difference of prefix sums would cancel). The
  /// count is exact and equals RankOf-style prefix counting, NaN keys or not.
  TreeAgg KeyRangeAggregate(double lo, double hi) const;

  /// In-order dump of (key, value) pairs; O(n). For tests and rebuilds.
  void Dump(std::vector<std::pair<double, double>>* out) const;

  /// Every rank's key, value and prefix aggregate, in one O(n) in-order
  /// pass that makes PrefixAggregate's additions in its order.
  RankTable Tabulate() const;

  /// Snapshot persistence. Serializes the exact treap shape (keys, values,
  /// priorities) plus the priority RNG; subtree aggregates are recomputed on
  /// load with the same Pull() arithmetic the live tree uses, so restored
  /// aggregates (and all future rebalances) are bit-identical.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit: in-order keys are non-decreasing (the BST property
  /// with duplicates), every node's priority is >= its children's (the treap
  /// heap property), every cached subtree aggregate equals a re-pull from
  /// its children (same arithmetic as Pull(), so equality is exact), and
  /// size() matches the root count. Throws InvariantViolation on the first
  /// inconsistency.
  void CheckInvariants() const;

 private:
  struct Node;
  struct Layout;

  /// The spine pass: the treap that Clear() and one Insert per point leave,
  /// over arrays, with priorities drawn from `rng`. No key may be NaN.
  static Layout LayOut(const std::vector<std::pair<double, double>>& points,
                       Rng* rng);
  /// Tabulate()'s prefix pass over a layout whose subtree sums are set.
  static RankTable TabulateLayout(Layout l);

  /// Recursive worker for CheckInvariants(); returns the verified node count
  /// of `n` and checks keys stay within [lo, hi].
  size_t CheckSubtree(const Node* n, double lo, double hi) const;

  Node* Merge(Node* a, Node* b);
  /// Splits by key: left subtree gets keys < key (or <= key if or_equal).
  void SplitByKey(Node* t, double key, bool or_equal, Node** l, Node** r);
  /// Splits by rank: left subtree gets the first r nodes.
  void SplitByRank(Node* t, size_t r, Node** l, Node** r_out);
  void FreeTree(Node* t);
  void SaveNode(const Node* n, persist::Writer* w) const;
  Node* LoadNode(persist::Reader* r, int depth);

  Node* root_ = nullptr;
  size_t size_ = 0;
  size_t nan_keys_ = 0;
  Rng rng_;
};

}  // namespace janus

#endif  // JANUS_INDEX_ORDER_STAT_TREE_H_
