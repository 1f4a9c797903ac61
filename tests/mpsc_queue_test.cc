// Unit tests for the bounded MPSC queue feeding the sharded engine's
// maintenance threads: FIFO delivery, backpressure at capacity, batches
// larger than the queue, close semantics, and lossless delivery under
// concurrent producers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mpsc_queue.h"

namespace janus {
namespace {

/// Push one item; true when it was enqueued.
template <typename T>
bool PushOne(BoundedMpscQueue<T>* q, T item) {
  return q->PushBatch({&item, 1}) == 1;
}

TEST(BoundedMpscQueueTest, FifoWithinCapacity) {
  BoundedMpscQueue<int> q(8);
  EXPECT_EQ(q.PushBatch(std::vector<int>{0, 1, 2}), 3u);
  EXPECT_EQ(q.PushBatch(std::vector<int>{}), 0u);
  for (int i = 3; i < 5; ++i) EXPECT_TRUE(PushOne(&q, i));
  EXPECT_EQ(q.size(), 5u);

  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.PopBatch(&out, 100), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedMpscQueueTest, PushBlocksAtCapacityUntilConsumed) {
  BoundedMpscQueue<int> q(2);
  EXPECT_EQ(q.PushBatch(std::vector<int>{1, 2}), 2u);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    PushOne(&q, 3);  // must block until the consumer drains one slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());

  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 1), 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.PopBatch(&out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedMpscQueueTest, BatchLargerThanCapacityArrivesInOrder) {
  // 1000 items through a queue of 16: the producer pushes chunk by chunk
  // as the consumer drains, and the consumer sees them in batch order.
  BoundedMpscQueue<int> q(16);
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> received;
  std::thread consumer([&] {
    std::vector<int> batch;
    for (;;) {
      batch.clear();
      if (q.PopBatch(&batch, 7) == 0) return;
      EXPECT_LE(batch.size(), 7u);
      received.insert(received.end(), batch.begin(), batch.end());
    }
  });
  EXPECT_EQ(q.PushBatch(items), items.size());
  q.Close();
  consumer.join();
  EXPECT_EQ(received, items);
}

TEST(BoundedMpscQueueTest, CloseDrainsRemainderThenSignalsZero) {
  BoundedMpscQueue<int> q(8);
  EXPECT_EQ(q.PushBatch(std::vector<int>{1, 2}), 2u);
  q.Close();
  EXPECT_FALSE(PushOne(&q, 3));  // rejected after close
  EXPECT_EQ(q.PushBatch(std::vector<int>{4, 5}), 0u);

  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 1), 1u);
  EXPECT_EQ(q.PopBatch(&out, 8), 1u);
  EXPECT_EQ(q.PopBatch(&out, 8), 0u);  // closed and drained
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedMpscQueueTest, CloseWakesBlockedProducer) {
  BoundedMpscQueue<int> q(1);
  EXPECT_TRUE(PushOne(&q, 1));
  std::atomic<bool> rejected{false};
  std::thread producer([&] { rejected = !PushOne(&q, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(BoundedMpscQueueTest, CloseReturnsCountOfABlockedBatch) {
  // A batch of 10 into a queue of 4: the first chunk fits, then the
  // producer blocks until Close, which leaves the rest unpushed.
  BoundedMpscQueue<int> q(4);
  std::vector<int> items(10);
  std::iota(items.begin(), items.end(), 0);
  std::atomic<size_t> pushed{items.size() + 1};
  std::thread producer([&] { pushed = q.PushBatch(items); });
  while (q.size() < 4) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(pushed.load(), items.size() + 1);  // still blocked
  q.Close();
  producer.join();
  EXPECT_EQ(pushed.load(), 4u);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 100), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedMpscQueueTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  // Batches larger than the queue, and not a divisor of kPerProducer.
  constexpr uint64_t kBatch = 300;
  BoundedMpscQueue<uint64_t> q(256);  // small: forces backpressure

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      std::vector<uint64_t> batch;
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        batch.push_back(static_cast<uint64_t>(p) * kPerProducer + i);
        if (batch.size() == kBatch || i + 1 == kPerProducer) {
          ASSERT_EQ(q.PushBatch(batch), batch.size());
          batch.clear();
        }
      }
    });
  }

  uint64_t received = 0, sum = 0;
  std::vector<uint64_t> last(kProducers, 0);
  bool ordered = true;
  std::thread consumer([&] {
    std::vector<uint64_t> batch;
    std::vector<bool> seen(kProducers, false);
    for (;;) {
      batch.clear();
      if (q.PopBatch(&batch, 128) == 0) return;
      received += batch.size();
      for (uint64_t v : batch) {
        sum += v;
        // Each producer's values arrive in the order it pushed them.
        const size_t p = static_cast<size_t>(v / kPerProducer);
        if (seen[p] && v <= last[p]) ordered = false;
        seen[p] = true;
        last[p] = v;
      }
    }
  });

  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();

  const uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(received, total);
  EXPECT_EQ(sum, total * (total - 1) / 2);  // every value exactly once
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace janus
