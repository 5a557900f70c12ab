#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace dlrover {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, FifoTieBreakAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  // The event already executed: cancelling its id must report false (the
  // pre-generation-tag implementation wrongly returned true and leaked a
  // tombstone for every such call).
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelNeverScheduledReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Cancel(12345));
  EXPECT_FALSE(sim.Cancel(~EventId{0}));
  EXPECT_EQ(sim.pending_events(), 0u);
  // And none of those bogus cancels may disturb a real event.
  bool fired = false;
  sim.ScheduleAt(1.0, [&] { fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StaleIdCannotCancelRecycledSlot) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventId a = sim.ScheduleAt(1.0, [&] { first = true; });
  EXPECT_TRUE(sim.Cancel(a));
  // The slot is recycled for a new event; the stale id must not touch it.
  const EventId b = sim.ScheduleAt(2.0, [&] { second = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.Cancel(a));
  sim.RunToCompletion();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, CancelDoesNotLeakPendingState) {
  Simulator sim;
  // Repeated schedule/cancel cycles must not accumulate tombstones or
  // grow the pending count; fired events release their slots too.
  for (int round = 0; round < 1000; ++round) {
    const EventId id = sim.ScheduleAt(1.0, [] {});
    EXPECT_TRUE(sim.Cancel(id));
    EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, CallbackMayCancelItsOwnFiringId) {
  Simulator sim;
  EventId self = 0;
  bool cancel_result = true;
  self = sim.ScheduleAt(1.0, [&] {
    // By the time the callback runs its id is stale; self-cancel is a safe
    // no-op (it must not disturb the recycled slot).
    cancel_result = sim.Cancel(self);
    sim.ScheduleAt(2.0, [] {});
  });
  sim.RunToCompletion();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, SchedulingInPastClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(10.0, [] {});
  sim.RunToCompletion();
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] { fired_at = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimulatorTest, RunUntilIncludesDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(5.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.ScheduleAt(10.0001, [&] { ++fired; });
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 2);  // the event exactly at the deadline runs
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
  sim.RunUntil(20.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);  // advances even when queue drains
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.ScheduleAfter(1.0, recurse);
  };
  sim.ScheduleAfter(1.0, recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(PeriodicTaskTest, TicksAtInterval) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10.0, [&] { ++ticks; });
  task.Start();
  sim.RunUntil(55.0);
  EXPECT_EQ(ticks, 5);  // at t=10,20,30,40,50
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10.0, [&] { ++ticks; });
  task.Start();
  sim.ScheduleAt(25.0, [&] { task.Stop(); });
  sim.RunUntil(100.0);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, CallbackMayStopItself) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 5.0, [&] {
    if (++ticks == 3) sim.ScheduleAfter(0.0, [&] { task.Stop(); });
  });
  task.Start();
  sim.RunUntil(100.0);
  EXPECT_EQ(ticks, 3);
}

// Deadline-edge contract: a tick landing exactly on a RunUntil deadline
// runs inside that call and re-arms strictly past the deadline, so chaining
// windows whose boundaries coincide with tick times neither drops nor
// double-fires a tick.
TEST(PeriodicTaskTest, TickAtWindowBoundaryFiresExactlyOncePerWindow) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10.0, [&] { ++ticks; });
  task.Start();
  sim.RunUntil(10.0);
  EXPECT_EQ(ticks, 1);  // the tick at the deadline belongs to this window
  sim.RunUntil(20.0);
  EXPECT_EQ(ticks, 2);  // not re-fired from a stale clock
  sim.RunUntil(30.0);
  EXPECT_EQ(ticks, 3);
}

// Chained RunUntil windows are byte-identical to one big RunUntil: the tick
// trace (count and timestamps) must not depend on where the window
// boundaries fall, aligned with tick times or not.
TEST(PeriodicTaskTest, ChainedWindowsMatchSingleRunTickTrace) {
  auto trace = [](const std::vector<SimTime>& deadlines) {
    Simulator sim;
    std::vector<SimTime> ticks;
    PeriodicTask task(&sim, 7.0, [&] { ticks.push_back(sim.Now()); });
    task.Start();
    for (SimTime deadline : deadlines) sim.RunUntil(deadline);
    return ticks;
  };
  const std::vector<SimTime> single = trace({100.0});
  EXPECT_EQ(single.size(), 14u);  // t = 7, 14, ..., 98
  EXPECT_EQ(trace({7.0, 14.0, 21.0, 100.0}), single);   // aligned boundaries
  EXPECT_EQ(trace({3.0, 50.0, 98.0, 100.0}), single);   // arbitrary ones
  EXPECT_EQ(trace({98.0, 98.0, 100.0}), single);        // repeated deadline
}

TEST(PeriodicTaskTest, DoubleStartIsNoOp) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10.0, [&] { ++ticks; });
  task.Start();
  task.Start();
  sim.RunUntil(35.0);
  EXPECT_EQ(ticks, 3);  // not doubled
}

// Captures larger than InlineCallback's inline buffer spill to the heap
// fallback; the callback must still run, move, and destroy correctly.
TEST(InlineCallbackTest, LargeCaptureUsesHeapFallback) {
  Simulator sim;
  std::array<double, 32> payload{};  // 256 bytes, well over the inline limit
  payload[0] = 1.5;
  payload[31] = 2.5;
  static_assert(sizeof(payload) > InlineCallback::kInlineBytes);
  double sum = 0.0;
  sim.ScheduleAt(1.0, [payload, &sum] { sum = payload[0] + payload[31]; });
  sim.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(sum, 4.0);
}

// Move-only captures (the common case: unique_ptr-owned state handed to the
// event) must compile and execute through the inline storage.
TEST(InlineCallbackTest, MoveOnlyCaptureRuns) {
  Simulator sim;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  sim.ScheduleAt(1.0, [p = std::move(owned), &seen] { seen = *p; });
  sim.RunUntil(2.0);
  EXPECT_EQ(seen, 7);
}

// Cancelling must destroy the stored callable (heap fallback included)
// without running it — destruction is observable via shared_ptr use count.
TEST(InlineCallbackTest, CancelDestroysWithoutInvoking) {
  Simulator sim;
  auto tracker = std::make_shared<int>(0);
  std::array<char, 100> bulk{};  // force the heap fallback path
  int runs = 0;
  const EventId id = sim.ScheduleAt(1.0, [tracker, bulk, &runs] {
    (void)bulk;
    ++runs;
  });
  EXPECT_EQ(tracker.use_count(), 2);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(tracker.use_count(), 1);  // capture destroyed on cancel
  sim.RunUntil(2.0);
  EXPECT_EQ(runs, 0);
}

}  // namespace
}  // namespace dlrover
