#include "index/order_stat_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "persist/serde.h"
#include "util/invariants.h"

namespace janus {

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/// Priority RNG seed of a fresh tree.
constexpr uint64_t kPrioritySeed = 0xC0FFEE;

bool HasNanKey(const std::vector<std::pair<double, double>>& points) {
  return std::any_of(points.begin(), points.end(),
                     [](const auto& p) { return std::isnan(p.first); });
}

/// A subtree's count and moment sums: what a node caches, and what the array
/// layout keeps per slot.
struct Sums {
  size_t count = 1;
  double sum = 0;
  double sumsq = 0;
};

/// Pull()'s arithmetic, shared by the nodes and the array layout: the sums of
/// a subtree from its root's value and its children's sums.
template <typename S>
void PullSums(S* s, double value, const S* left, const S* right) {
  s->count = 1;
  s->sum = value;
  s->sumsq = value * value;
  if (left) {
    s->count += left->count;
    s->sum += left->sum;
    s->sumsq += left->sumsq;
  }
  if (right) {
    s->count += right->count;
    s->sum += right->sum;
    s->sumsq += right->sumsq;
  }
}

/// One right step of a root-to-rank walk: the left subtree, then the node.
template <typename S>
void AddLeftAndSelf(TreeAgg* agg, double value, const S* left) {
  if (left) {
    agg->count += static_cast<double>(left->count);
    agg->sum += left->sum;
    agg->sumsq += left->sumsq;
  }
  agg->count += 1;
  agg->sum += value;
  agg->sumsq += value * value;
}

/// The positions of `points` in the in-order Insert leaves them: ascending
/// key, the later point first among equal keys (-0.0 equals +0.0, as `<`
/// has it). No key may be NaN. An LSD radix sort over the keys'
/// order-preserving bit patterns, a byte per pass; a pass whose byte is the
/// same for every key is skipped, as it would keep the order anyway.
std::vector<size_t> InsertOrder(
    const std::vector<std::pair<double, double>>& points) {
  const size_t n = points.size();
  struct Item {
    uint64_t bits;
    size_t pos;
  };
  std::vector<Item> items(n);
  std::vector<std::array<size_t, 257>> counts(8);
  for (auto& c : counts) c.fill(0);
  for (size_t j = 0; j < n; ++j) {
    // Fed latest first: the stable passes keep that order among equal keys.
    const size_t pos = n - 1 - j;
    const double key = points[pos].first == 0 ? 0.0 : points[pos].first;
    const uint64_t u = std::bit_cast<uint64_t>(key);
    const uint64_t bits = (u >> 63) != 0 ? ~u : u | (uint64_t{1} << 63);
    items[j] = {bits, pos};
    for (int d = 0; d < 8; ++d) ++counts[d][((bits >> (8 * d)) & 0xFF) + 1];
  }
  std::vector<Item> next(n);
  for (int d = 0; d < 8 && n > 0; ++d) {
    std::array<size_t, 257>& at = counts[d];
    if (at[((items[0].bits >> (8 * d)) & 0xFF) + 1] == n) continue;
    for (size_t b = 0; b < 256; ++b) at[b + 1] += at[b];
    for (const Item& item : items) {
      next[at[(item.bits >> (8 * d)) & 0xFF]++] = item;
    }
    items.swap(next);
  }
  std::vector<size_t> order(n);
  for (size_t r = 0; r < n; ++r) order[r] = items[r].pos;
  return order;
}

}  // namespace

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

  void Pull() { PullSums(this, value, left, right); }
  void AddLeftAndSelf(TreeAgg* agg) const {
    janus::AddLeftAndSelf(agg, value, left);
  }
};

/// A treap laid out over arrays: slot i holds the point of rank i, and
/// `left`/`right` hold child slots (kNone: no child).
struct OrderStatTree::Layout {
  std::vector<double> keys;
  std::vector<double> values;
  std::vector<uint64_t> priority;
  std::vector<size_t> left;
  std::vector<size_t> right;
  /// Every slot once, each after its children; the root comes last.
  std::vector<size_t> pulled;
  /// Per slot, the subtree sums a node caches; sized by a tabulation only.
  std::vector<Sums> sub;

  explicit Layout(size_t n)
      : keys(n), values(n), priority(n), left(n, kNone), right(n, kNone) {
    pulled.reserve(n);
  }
};

OrderStatTree::OrderStatTree() : rng_(kPrioritySeed) {}

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
  nan_keys_ = 0;
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
  if (std::isnan(key)) ++nan_keys_;
}

OrderStatTree::Layout OrderStatTree::LayOut(
    const std::vector<std::pair<double, double>>& points, Rng* rng) {
  const size_t n = points.size();
  // Insert draws each priority before placing its node.
  std::vector<uint64_t> drawn(n);
  for (uint64_t& p : drawn) p = rng->Next();
  // Insert places a node before every equal key.
  const std::vector<size_t> order = InsertOrder(points);
  Layout l(n);
  for (size_t r = 0; r < n; ++r) {
    const size_t i = order[r];
    l.keys[r] = points[i].first;
    l.values[r] = points[i].second;
    l.priority[r] = drawn[i];
  }
  // Cartesian tree by one pass over the right spine. Merge makes the right
  // node the ancestor on a priority tie, hence the pop on <=. A slot leaves
  // the spine only with both subtrees final, so it is pulled then.
  std::vector<size_t> spine;
  for (size_t r = 0; r < n; ++r) {
    size_t left = kNone;
    while (!spine.empty() && l.priority[spine.back()] <= l.priority[r]) {
      left = spine.back();
      spine.pop_back();
      l.pulled.push_back(left);
    }
    l.left[r] = left;
    if (!spine.empty()) l.right[spine.back()] = r;
    spine.push_back(r);
  }
  for (; !spine.empty(); spine.pop_back()) l.pulled.push_back(spine.back());
  return l;
}

void OrderStatTree::Build(
    const std::vector<std::pair<double, double>>& points) {
  Clear();
  // A NaN key has no sorted position; Insert's comparisons alone say where
  // it lands.
  if (HasNanKey(points)) {
    for (const auto& [key, a] : points) Insert(key, a);
    return;
  }
  const Layout l = LayOut(points, &rng_);
  std::vector<Node*> nodes(l.keys.size());
  for (size_t r = 0; r < nodes.size(); ++r) {
    nodes[r] = new Node(l.keys[r], l.values[r], l.priority[r]);
  }
  for (const size_t r : l.pulled) {
    Node* node = nodes[r];
    if (l.left[r] != kNone) node->left = nodes[l.left[r]];
    if (l.right[r] != kNone) node->right = nodes[l.right[r]];
    node->Pull();
  }
  root_ = nodes.empty() ? nullptr : nodes[l.pulled.back()];
  size_ = nodes.size();
}

RankTable OrderStatTree::TabulateBuild(
    const std::vector<std::pair<double, double>>& points) {
  if (HasNanKey(points)) {
    OrderStatTree tree;
    tree.Build(points);
    return tree.Tabulate();
  }
  Rng rng(kPrioritySeed);
  Layout l = LayOut(points, &rng);
  l.sub.resize(l.keys.size());
  for (const size_t r : l.pulled) {
    PullSums(&l.sub[r], l.values[r],
             l.left[r] != kNone ? &l.sub[l.left[r]] : nullptr,
             l.right[r] != kNone ? &l.sub[l.right[r]] : nullptr);
  }
  return TabulateLayout(std::move(l));
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
    if (std::isnan(target->key)) --nan_keys_;
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
  // Lay the tree out over slots, in order, then run the one prefix pass.
  // A node's left child holds the slot before the left child's own right
  // subtree.
  Layout l(size_);
  l.sub.resize(size_);
  std::vector<const Node*> stack;
  const Node* t = root_;
  for (size_t r = 0; t || !stack.empty(); ++r) {
    for (; t; t = t->left) stack.push_back(t);
    t = stack.back();
    stack.pop_back();
    l.keys[r] = t->key;
    l.values[r] = t->value;
    l.sub[r] = {t->count, t->sum, t->sumsq};
    if (t->left) {
      l.left[r] = r - 1 - (t->left->right ? t->left->right->count : 0);
    }
    t = t->right;
  }
  return TabulateLayout(std::move(l));
}

RankTable OrderStatTree::TabulateLayout(Layout l) {
  const size_t n = l.keys.size();
  RankTable table;
  table.prefix_.resize(n + 1);
  // PrefixAggregate's walk reaches slot r having added, at each right step,
  // a left subtree and its node: the prefix at the first slot of r's
  // subtree. The walk for rank r + 1 then adds r's left subtree and r.
  for (size_t r = 0; r < n; ++r) {
    const Sums* left = l.left[r] == kNone ? nullptr : &l.sub[l.left[r]];
    TreeAgg after = table.prefix_[r - (left ? left->count : 0)];
    AddLeftAndSelf(&after, l.values[r], left);
    table.prefix_[r + 1] = after;
  }
  table.keys_ = std::move(l.keys);
  table.values_ = std::move(l.values);
  return table;
}

TreeAgg OrderStatTree::KeyRangeAggregate(double lo, double hi) const {
  // The lower path is RankOf(lo)'s (right past a key < lo), the upper one
  // counts the keys <= hi. Descend while they agree; from the node where they
  // part, follow each one down and add every node and whole subtree that lies
  // between them. Nothing is subtracted, so a narrow range keeps the relative
  // precision of its own sums, and the nodes added are exactly those a
  // difference of the two prefixes would count.
  TreeAgg agg;
  const auto add = [&agg](const Node* n) {
    if (n) agg.Add({static_cast<double>(n->count), n->sum, n->sumsq});
  };
  const Node* split = root_;
  while (split && (split->key < lo || !(split->key <= hi))) {
    split = split->key < lo ? split->right : split->left;
  }
  if (!split) return agg;
  agg.Add({1.0, split->value, split->value * split->value});
  for (const Node* n = split->left; n;) {
    if (n->key < lo) {
      n = n->right;
    } else {
      agg.Add({1.0, n->value, n->value * n->value});
      add(n->right);
      n = n->left;
    }
  }
  for (const Node* n = split->right; n;) {
    if (n->key <= hi) {
      n->AddLeftAndSelf(&agg);
      n = n->right;
    } else {
      n = n->left;
    }
  }
  return agg;
}

void OrderStatTree::SaveTo(persist::Writer* w) const {
  w->Size(size_);
  rng_.SaveTo(w);
  SaveNode(root_, w);
}

void OrderStatTree::LoadFrom(persist::Reader* r) {
  Clear();
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
  if (std::isnan(key)) ++nan_keys_;
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
