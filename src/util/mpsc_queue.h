#ifndef JANUS_UTIL_MPSC_QUEUE_H_
#define JANUS_UTIL_MPSC_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace janus {

/// Bounded multi-producer queue feeding one consumer thread: the update
/// channel between client threads and a shard's maintenance thread in the
/// sharded engine. PushBatch() applies backpressure (blocks while the queue
/// is full), so a burst of producers can never outrun a shard's apply rate
/// by more than the queue capacity. Both sides move items in batches to
/// amortize wakeups and lock acquisitions.
///
/// Mutex-based rather than lock-free on purpose: the consumer's per-item
/// work (synopsis maintenance) dwarfs queue overhead, and a mutex keeps the
/// queue trivially ThreadSanitizer-clean. Any thread may call Close(); after
/// it, PushBatch() rejects and PopBatch() drains the remainder then returns
/// 0.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Enqueue `items` in order: one lock hold and one notify per chunk that
  /// fits, blocking while the queue is at capacity. Other producers' items
  /// may land between two chunks. Returns how many items were enqueued:
  /// all of them, or, once the queue is closed, the leading ones pushed
  /// before it was (the rest are dropped).
  size_t PushBatch(std::span<const T> items) {
    size_t pushed = 0;
    while (pushed < items.size()) {
      {
        MutexLock lock(&mu_);
        while (!closed_ && items_.size() >= capacity_) cv_not_full_.Wait(&mu_);
        if (closed_) return pushed;
        const size_t k =
            std::min(items.size() - pushed, capacity_ - items_.size());
        const std::span<const T> chunk = items.subspan(pushed, k);
        items_.insert(items_.end(), chunk.begin(), chunk.end());
        pushed += k;
      }
      cv_not_empty_.NotifyOne();
    }
    return pushed;
  }

  /// Append up to `max_items` items to `*out`. Blocks while the queue is
  /// empty and open; returns 0 only when the queue is closed and fully
  /// drained (the consumer's termination signal).
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    size_t n = 0;
    {
      MutexLock lock(&mu_);
      while (!closed_ && items_.empty()) cv_not_empty_.Wait(&mu_);
      n = std::min(max_items, items_.size());
      for (size_t i = 0; i < n; ++i) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    if (n > 0) cv_not_full_.NotifyAll();
    return n;
  }

  /// Reject further pushes and wake all waiters. Idempotent.
  void Close() {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    cv_not_empty_.NotifyAll();
    cv_not_full_.NotifyAll();
  }

  bool closed() const {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const {
    MutexLock lock(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar cv_not_full_;
  CondVar cv_not_empty_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace janus

#endif  // JANUS_UTIL_MPSC_QUEUE_H_
