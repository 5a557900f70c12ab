#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "elastic/shard_queue.h"

namespace dlrover {
namespace {

// Longer than any run of this test: a wait ends only on a shard or on
// exhaustion, never on the deadline.
constexpr double kWaitSeconds = 3600.0;

// The threaded-runtime contract: N real threads pulling via WaitNextShardFor,
// with random mid-shard failures, must complete every batch exactly once
// and terminate (no thread left blocked).
TEST(ShardQueueConcurrencyTest, ExactlyOnceUnderEightThreads) {
  constexpr uint64_t kTotal = 20000;
  constexpr int kThreads = 8;
  ShardQueueOptions options;
  options.total_batches = kTotal;
  options.default_shard_batches = 64;
  options.min_shard_batches = 8;
  ShardQueue queue(options);

  std::vector<std::atomic<uint32_t>> times_done(kTotal);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&queue, &times_done, t]() {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (;;) {
        auto shard = queue.WaitNextShardFor(kWaitSeconds,
                                            rng.Bernoulli(0.3) ? 16 : 0);
        if (!shard.ok()) return;
        const uint64_t len = shard->batches();
        // Fail ~15% of shards partway through; the prefix we "pushed"
        // counts as done, the rest must be re-served to someone.
        const bool fail = rng.Bernoulli(0.15);
        const uint64_t processed =
            fail ? rng.UniformInt(len) : len;
        for (uint64_t b = 0; b < processed; ++b) {
          times_done[shard->start_batch + b].fetch_add(1);
        }
        const Status s = fail ? queue.ReportFailed(*shard, processed)
                              : queue.ReportCompleted(*shard);
        ASSERT_TRUE(s.ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(queue.AllDone());
  ASSERT_TRUE(queue.CheckInvariants().ok());
  for (uint64_t b = 0; b < kTotal; ++b) {
    EXPECT_EQ(times_done[b].load(), 1u) << "batch " << b;
  }
}

// Report-after-timeout double-dispatch audit: a worker is presumed dead and
// its shard re-queued (ReportFailed by the supervisor), the remainder is
// re-served to a new worker — then the "dead" worker comes back and reports
// completion with its old shard handle. The stale report must be rejected,
// not double-count the re-served range.
TEST(ShardQueueConcurrencyTest, StaleReportAfterRedispatchIsRejected) {
  ShardQueueOptions options;
  options.total_batches = 100;
  options.default_shard_batches = 50;
  ShardQueue queue(options);

  auto first = queue.NextShard();
  ASSERT_TRUE(first.ok());
  // Supervisor times the worker out: partial credit, remainder re-queued.
  ASSERT_TRUE(queue.ReportFailed(*first, 10).ok());
  // Remainder is re-dispatched to a replacement under a fresh index.
  auto retry = queue.NextShard();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->start_batch, 10u);
  EXPECT_NE(retry->index, first->index);

  // The zombie worker reports with its retired handle: rejected both ways.
  EXPECT_FALSE(queue.ReportCompleted(*first).ok());
  EXPECT_FALSE(queue.ReportFailed(*first, 0).ok());
  ASSERT_TRUE(queue.CheckInvariants().ok());

  // The replacement's report is the one that counts.
  ASSERT_TRUE(queue.ReportCompleted(*retry).ok());
  EXPECT_EQ(queue.completed_batches(), 50u);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

// WaitNextShardFor parks when the queue is empty but work is outstanding, and
// wakes to serve the re-queued remainder of a failed shard.
TEST(ShardQueueConcurrencyTest, WaitNextShardBlocksUntilRequeue) {
  ShardQueueOptions options;
  options.total_batches = 64;
  options.default_shard_batches = 64;
  ShardQueue queue(options);

  auto holder = queue.NextShard();
  ASSERT_TRUE(holder.ok());  // all data now outstanding

  std::atomic<bool> got{false};
  std::thread waiter([&queue, &got]() {
    auto shard = queue.WaitNextShardFor(kWaitSeconds);
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(shard->start_batch, 16u);
    ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
    got.store(true);
  });
  // Give the waiter a moment to park, then fail the outstanding shard.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ASSERT_TRUE(queue.ReportFailed(*holder, 16).ok());
  waiter.join();
  EXPECT_TRUE(got.load());
  EXPECT_TRUE(queue.AllDone());
}

}  // namespace
}  // namespace dlrover
