#include "core/node_stats.h"

#include "persist/serde.h"

namespace janus {

void MinMaxTracker::Insert(double v) {
  // A multiset inserts after its equal keys, so on a full heap a value at
  // or past the far end (NaN included) would be inserted and erased again:
  // skip the pair.
  if (bottom_.size() < k_ || (!bottom_.empty() && v < *bottom_.rbegin())) {
    bottom_.insert(v);
    if (bottom_.size() > k_) bottom_.erase(std::prev(bottom_.end()));
  }
  if (top_.size() < k_ || (!top_.empty() && v > *top_.rbegin())) {
    top_.insert(v);
    if (top_.size() > k_) top_.erase(std::prev(top_.end()));
  }
}

void MinMaxTracker::Erase(double v) {
  if (auto it = bottom_.find(v); it != bottom_.end()) {
    if (bottom_.size() <= 1) {
      degraded_ = true;  // keep the last value as an outer approximation
    } else {
      bottom_.erase(it);
    }
  }
  if (auto it = top_.find(v); it != top_.end()) {
    if (top_.size() <= 1) {
      degraded_ = true;
    } else {
      top_.erase(it);
    }
  }
}

void MinMaxTracker::Merge(const MinMaxTracker& o) {
  for (double v : o.bottom_) {
    bottom_.insert(v);
    if (bottom_.size() > k_) bottom_.erase(std::prev(bottom_.end()));
  }
  for (double v : o.top_) {
    top_.insert(v);
    if (top_.size() > k_) top_.erase(std::prev(top_.end()));
  }
  degraded_ = degraded_ || o.degraded_;
}

std::optional<double> MinMaxTracker::Min() const {
  if (bottom_.empty()) return std::nullopt;
  return *bottom_.begin();
}

std::optional<double> MinMaxTracker::Max() const {
  if (top_.empty()) return std::nullopt;
  return *top_.begin();
}

void MinMaxTracker::Clear() {
  bottom_.clear();
  top_.clear();
  degraded_ = false;
}

void MinMaxTracker::SaveTo(persist::Writer* w) const {
  w->Size(k_);
  w->Bool(degraded_);
  w->Size(bottom_.size());
  for (double v : bottom_) w->F64(v);
  w->Size(top_.size());
  for (double v : top_) w->F64(v);
}

void MinMaxTracker::LoadFrom(persist::Reader* r) {
  k_ = r->Size();
  degraded_ = r->Bool();
  bottom_.clear();
  top_.clear();
  const size_t nb = r->Size();
  for (size_t i = 0; i < nb; ++i) bottom_.insert(r->F64());
  const size_t nt = r->Size();
  for (size_t i = 0; i < nt; ++i) top_.insert(r->F64());
}

}  // namespace janus
