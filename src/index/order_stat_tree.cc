#include "index/order_stat_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "persist/serde.h"
#include "util/invariants.h"

namespace janus {

struct OrderStatTree::Node {
  double key;
  double value;
  uint64_t priority;
  size_t count = 1;  // subtree node count
  double sum = 0;    // subtree sum of values
  double sumsq = 0;  // subtree sum of squared values
  Node* left = nullptr;
  Node* right = nullptr;

  Node(double k, double v, uint64_t pri) : key(k), value(v), priority(pri) {}

  void Pull() {
    count = 1;
    sum = value;
    sumsq = value * value;
    if (left) {
      count += left->count;
      sum += left->sum;
      sumsq += left->sumsq;
    }
    if (right) {
      count += right->count;
      sum += right->sum;
      sumsq += right->sumsq;
    }
  }

  // One right step of a root-to-rank walk: the left subtree, then the node.
  void AddLeftAndSelf(TreeAgg* agg) const {
    if (left) {
      agg->count += static_cast<double>(left->count);
      agg->sum += left->sum;
      agg->sumsq += left->sumsq;
    }
    agg->count += 1;
    agg->sum += value;
    agg->sumsq += value * value;
  }
};

OrderStatTree::OrderStatTree() : rng_(0xC0FFEE) {}

OrderStatTree::~OrderStatTree() { FreeTree(root_); }

void OrderStatTree::FreeTree(Node* t) {
  if (!t) return;
  FreeTree(t->left);
  FreeTree(t->right);
  delete t;
}

void OrderStatTree::Clear() {
  FreeTree(root_);
  root_ = nullptr;
  size_ = 0;
}

OrderStatTree::Node* OrderStatTree::Merge(Node* a, Node* b) {
  if (!a) return b;
  if (!b) return a;
  if (a->priority > b->priority) {
    a->right = Merge(a->right, b);
    a->Pull();
    return a;
  }
  b->left = Merge(a, b->left);
  b->Pull();
  return b;
}

void OrderStatTree::SplitByKey(Node* t, double key, bool or_equal, Node** l,
                               Node** r) {
  if (!t) {
    *l = *r = nullptr;
    return;
  }
  const bool go_right = or_equal ? (t->key <= key) : (t->key < key);
  if (go_right) {
    SplitByKey(t->right, key, or_equal, &t->right, r);
    *l = t;
    t->Pull();
  } else {
    SplitByKey(t->left, key, or_equal, l, &t->left);
    *r = t;
    t->Pull();
  }
}

void OrderStatTree::SplitByRank(Node* t, size_t r, Node** l, Node** r_out) {
  if (!t) {
    *l = *r_out = nullptr;
    return;
  }
  const size_t left_count = t->left ? t->left->count : 0;
  if (r <= left_count) {
    SplitByRank(t->left, r, l, &t->left);
    *r_out = t;
    t->Pull();
  } else {
    SplitByRank(t->right, r - left_count - 1, &t->right, r_out);
    *l = t;
    t->Pull();
  }
}

void OrderStatTree::Insert(double key, double a) {
  Node* node = new Node(key, a, rng_.Next());
  node->Pull();
  Node *l, *r;
  SplitByKey(root_, key, /*or_equal=*/false, &l, &r);
  root_ = Merge(Merge(l, node), r);
  ++size_;
}

void OrderStatTree::Build(
    const std::vector<std::pair<double, double>>& points) {
  Clear();
  // A NaN key has no sorted position; Insert's comparisons alone say where
  // it lands.
  if (std::any_of(points.begin(), points.end(),
                  [](const auto& p) { return std::isnan(p.first); })) {
    for (const auto& [key, a] : points) Insert(key, a);
    return;
  }
  const size_t n = points.size();
  // Insert draws each priority before placing its node.
  std::vector<uint64_t> priority(n);
  for (uint64_t& p : priority) p = rng_.Next();
  // Insert places a node before every equal key, so in-order is ascending
  // key, newest first among equal keys.
  std::vector<std::pair<double, size_t>> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = {points[i].first, i};
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.first < y.first || (x.first == y.first && x.second > y.second);
  });
  // Cartesian tree by one pass over the right spine. Merge makes the right
  // node the ancestor on a priority tie, hence the pop on <=. A node leaves
  // the spine only with both subtrees final, so it is pulled then.
  std::vector<Node*> spine;
  for (const auto& [key, i] : order) {
    Node* node = new Node(key, points[i].second, priority[i]);
    Node* left = nullptr;
    while (!spine.empty() && spine.back()->priority <= node->priority) {
      left = spine.back();
      spine.pop_back();
      left->Pull();
    }
    node->left = left;
    if (!spine.empty()) spine.back()->right = node;
    spine.push_back(node);
  }
  while (!spine.empty()) {
    root_ = spine.back();
    spine.pop_back();
    root_->Pull();
  }
  size_ = n;
}

bool OrderStatTree::Delete(double key, double a) {
  // Split out the run of nodes with this key, remove one with value a.
  Node *l, *mid, *r;
  SplitByKey(root_, key, /*or_equal=*/false, &l, &mid);
  SplitByKey(mid, key, /*or_equal=*/true, &mid, &r);
  // mid now holds all nodes with key == key. Find one with value == a.
  bool found = false;
  // Rebuild mid without one matching node via an explicit walk.
  std::vector<Node*> stack;
  Node* target = nullptr;
  if (mid) stack.push_back(mid);
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!found && n->value == a) {
      target = n;
      found = true;
      break;
    }
    if (n->left) stack.push_back(n->left);
    if (n->right) stack.push_back(n->right);
  }
  if (found) {
    // Remove target by splitting mid around its rank. Simpler: collect all
    // nodes, rebuild without target. The run of equal keys is almost always
    // tiny, so this costs O(run length).
    std::vector<Node*> nodes;
    std::vector<Node*> st;
    if (mid) st.push_back(mid);
    while (!st.empty()) {
      Node* n = st.back();
      st.pop_back();
      if (n->left) st.push_back(n->left);
      if (n->right) st.push_back(n->right);
      n->left = n->right = nullptr;
      if (n != target) {
        n->Pull();
        nodes.push_back(n);
      }
    }
    delete target;
    mid = nullptr;
    for (Node* n : nodes) mid = Merge(mid, n);
    --size_;
  }
  root_ = Merge(Merge(l, mid), r);
  return found;
}

size_t OrderStatTree::RankOf(double key) const {
  size_t rank = 0;
  const Node* t = root_;
  while (t) {
    if (t->key < key) {
      rank += (t->left ? t->left->count : 0) + 1;
      t = t->right;
    } else {
      t = t->left;
    }
  }
  return rank;
}

double OrderStatTree::Select(size_t r) const {
  assert(r < size_);
  const Node* t = root_;
  while (true) {
    const size_t lc = t->left ? t->left->count : 0;
    if (r < lc) {
      t = t->left;
    } else if (r == lc) {
      return t->key;
    } else {
      r -= lc + 1;
      t = t->right;
    }
  }
}

double OrderStatTree::SelectValue(size_t r) const {
  assert(r < size_);
  const Node* t = root_;
  while (true) {
    const size_t lc = t->left ? t->left->count : 0;
    if (r < lc) {
      t = t->left;
    } else if (r == lc) {
      return t->value;
    } else {
      r -= lc + 1;
      t = t->right;
    }
  }
}

TreeAgg OrderStatTree::PrefixAggregate(size_t r) const {
  TreeAgg agg;
  const Node* t = root_;
  size_t remaining = r;
  while (t && remaining > 0) {
    const size_t lc = t->left ? t->left->count : 0;
    if (remaining <= lc) {
      t = t->left;
    } else {
      t->AddLeftAndSelf(&agg);
      remaining -= lc + 1;
      t = t->right;
    }
  }
  return agg;
}

TreeAgg OrderStatTree::RankRangeAggregate(size_t lo, size_t hi) const {
  if (hi <= lo) return TreeAgg{};
  TreeAgg out = PrefixAggregate(hi);
  out.Subtract(PrefixAggregate(lo));
  return out;
}

TreeAgg RankTable::RankRangeAggregate(size_t lo, size_t hi) const {
  if (hi <= lo) return TreeAgg{};
  TreeAgg out = prefix_[hi];
  out.Subtract(prefix_[lo]);
  return out;
}

RankTable OrderStatTree::Tabulate() const {
  RankTable table;
  table.keys_.reserve(size_);
  table.values_.reserve(size_);
  table.prefix_.reserve(size_ + 1);
  table.prefix_.emplace_back();
  // In-order walk. Each frame carries what PrefixAggregate's walk has
  // summed on reaching its node: a left step adds nothing, a right step
  // adds the left subtree and the node. The walk for rank r + 1 ends with
  // the right step off the node of rank r.
  struct Frame {
    const Node* node;
    TreeAgg base;
  };
  std::vector<Frame> stack;
  const Node* t = root_;
  TreeAgg base;
  while (t || !stack.empty()) {
    for (; t; t = t->left) stack.push_back({t, base});
    const Frame f = stack.back();
    stack.pop_back();
    base = f.base;
    f.node->AddLeftAndSelf(&base);
    table.keys_.push_back(f.node->key);
    table.values_.push_back(f.node->value);
    table.prefix_.push_back(base);
    t = f.node->right;
  }
  return table;
}

TreeAgg OrderStatTree::KeyRangeAggregate(double lo, double hi) const {
  const size_t rlo = RankOf(lo);
  // Rank of first key strictly greater than hi: count of keys <= hi.
  size_t rhi = 0;
  const Node* t = root_;
  while (t) {
    if (t->key <= hi) {
      rhi += (t->left ? t->left->count : 0) + 1;
      t = t->right;
    } else {
      t = t->left;
    }
  }
  return RankRangeAggregate(rlo, rhi);
}

void OrderStatTree::SaveTo(persist::Writer* w) const {
  w->Size(size_);
  rng_.SaveTo(w);
  SaveNode(root_, w);
}

void OrderStatTree::LoadFrom(persist::Reader* r) {
  FreeTree(root_);
  root_ = nullptr;
  size_ = r->Size();
  rng_.LoadFrom(r);
  root_ = LoadNode(r, 0);
}

void OrderStatTree::SaveNode(const Node* n, persist::Writer* w) const {
  if (n == nullptr) {
    w->Bool(false);
    return;
  }
  w->Bool(true);
  w->F64(n->key);
  w->F64(n->value);
  w->U64(n->priority);
  SaveNode(n->left, w);
  SaveNode(n->right, w);
}

OrderStatTree::Node* OrderStatTree::LoadNode(persist::Reader* r, int depth) {
  // Depth bound against forged payloads (see DynamicKdTree::LoadNode); a
  // treap with random priorities stays within O(log n) with overwhelming
  // probability, so 512 levels never occur legitimately.
  if (depth > 512) {
    throw persist::PersistError("snapshot corrupt: treap too deep");
  }
  if (!r->Bool()) return nullptr;
  const double key = r->F64();
  const double value = r->F64();
  const uint64_t pri = r->U64();
  Node* n = new Node(key, value, pri);
  n->left = LoadNode(r, depth + 1);
  n->right = LoadNode(r, depth + 1);
  // Children are fully pulled before the parent, so every cached subtree
  // aggregate is recomputed by the same bottom-up arithmetic the live tree's
  // split/merge path used — bit-identical to the saved instance.
  n->Pull();
  return n;
}

void OrderStatTree::Dump(std::vector<std::pair<double, double>>* out) const {
  out->clear();
  out->reserve(size_);
  std::vector<const Node*> stack;
  const Node* t = root_;
  while (t || !stack.empty()) {
    while (t) {
      stack.push_back(t);
      t = t->left;
    }
    t = stack.back();
    stack.pop_back();
    out->emplace_back(t->key, t->value);
    t = t->right;
  }
}

size_t OrderStatTree::CheckSubtree(const Node* n, double lo, double hi) const {
  if (!n) return 0;
  invariants::Require(lo <= n->key && n->key <= hi, "OrderStatTree",
                      "key " + std::to_string(n->key) +
                          " violates the in-order bounds [" +
                          std::to_string(lo) + ", " + std::to_string(hi) + "]");
  for (const Node* child : {n->left, n->right}) {
    invariants::Require(
        child == nullptr || child->priority <= n->priority, "OrderStatTree",
        "treap heap property violated: child priority above its parent's");
  }
  const size_t nl = CheckSubtree(n->left, lo, n->key);
  const size_t nr = CheckSubtree(n->right, n->key, hi);
  // Re-pull from the (already verified) children with Pull()'s arithmetic;
  // any mismatch means a rotation or rebuild forgot to refresh this node.
  TreeAgg expect{1.0, n->value, n->value * n->value};
  if (n->left) expect.Add({static_cast<double>(n->left->count), n->left->sum,
                           n->left->sumsq});
  if (n->right) expect.Add({static_cast<double>(n->right->count),
                            n->right->sum, n->right->sumsq});
  invariants::Require(n->count == nl + nr + 1 &&
                          static_cast<double>(n->count) == expect.count &&
                          n->sum == expect.sum && n->sumsq == expect.sumsq,
                      "OrderStatTree",
                      "cached subtree aggregate differs from a re-pull "
                      "(count " +
                          std::to_string(n->count) + " vs " +
                          std::to_string(nl + nr + 1) + ")");
  return nl + nr + 1;
}

void OrderStatTree::CheckInvariants() const {
  const double inf = std::numeric_limits<double>::infinity();
  const size_t n = CheckSubtree(root_, -inf, inf);
  invariants::Require(n == size_, "OrderStatTree",
                      "root holds " + std::to_string(n) + " nodes, size() is " +
                          std::to_string(size_));
}

}  // namespace janus
