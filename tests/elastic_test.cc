#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/rng.h"
#include "elastic/checkpoint.h"
#include "elastic/heartbeat.h"
#include "elastic/oom_predictor.h"
#include "elastic/shard_queue.h"

namespace dlrover {
namespace {

ShardQueueOptions SmallQueue(uint64_t total = 1000, uint64_t shard = 64) {
  ShardQueueOptions options;
  options.total_batches = total;
  options.default_shard_batches = shard;
  options.min_shard_batches = 8;
  return options;
}

TEST(ShardQueueTest, ServesAllDataExactlyOnce) {
  ShardQueue queue(SmallQueue(1000, 64));
  std::set<uint64_t> seen;
  while (true) {
    auto shard = queue.NextShard();
    if (!shard.ok()) break;
    for (uint64_t b = shard->start_batch; b < shard->end_batch; ++b) {
      EXPECT_TRUE(seen.insert(b).second) << "batch served twice: " << b;
    }
    ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_TRUE(queue.AllDone());
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

TEST(ShardQueueTest, StragglerGetsSmallerShard) {
  ShardQueue queue(SmallQueue());
  auto normal = queue.NextShard();
  ASSERT_TRUE(normal.ok());
  EXPECT_EQ(normal->batches(), 64u);
  auto small = queue.NextShard(16);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->batches(), 16u);
  // Requests below the minimum are clamped up.
  auto clamped = queue.NextShard(1);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->batches(), 8u);
}

TEST(ShardQueueTest, FailedShardIsRequeuedWithPartialCredit) {
  ShardQueue queue(SmallQueue(100, 50));
  auto shard = queue.NextShard();
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(queue.ReportFailed(*shard, 20).ok());
  EXPECT_EQ(queue.completed_batches(), 20u);
  // The remainder comes back before fresh data.
  auto retry = queue.NextShard();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->start_batch, 20u);
  EXPECT_EQ(retry->end_batch, 50u);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

TEST(ShardQueueTest, RejectsUnknownReports) {
  ShardQueue queue(SmallQueue());
  DataShard bogus;
  bogus.index = 999;
  EXPECT_FALSE(queue.ReportCompleted(bogus).ok());
  EXPECT_FALSE(queue.ReportFailed(bogus, 0).ok());
}

TEST(ShardQueueTest, FastForwardResetsToCheckpoint) {
  ShardQueue queue(SmallQueue(1000, 64));
  for (int i = 0; i < 3; ++i) {
    auto shard = queue.NextShard();
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
  }
  auto outstanding = queue.NextShard();
  ASSERT_TRUE(outstanding.ok());
  queue.FastForwardTo(100);
  EXPECT_EQ(queue.completed_batches(), 100u);
  EXPECT_EQ(queue.outstanding_batches(), 0u);
  auto next = queue.NextShard();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->start_batch, 100u);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

// Property test: simulate a pool of workers that randomly fail mid-shard,
// get replaced, and shrink/grow, while the trainer now and then checkpoints
// the queue and later rolls back to that checkpoint; every batch must be
// completed exactly once regardless of seed.
class ShardQueueChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardQueueChaosTest, ExactlyOnceUnderRandomFailures) {
  Rng rng(GetParam());
  ShardQueue queue(SmallQueue(5000, 64));
  std::map<uint64_t, int> times_done;  // batch -> completions

  struct Worker {
    std::optional<DataShard> shard;
    uint64_t pos = 0;
  };
  std::vector<Worker> workers(4);
  auto credit = [](std::map<uint64_t, int>* done, uint64_t begin,
                   uint64_t end) {
    for (uint64_t b = begin; b < end; ++b) ++(*done)[b];
  };

  // A checkpoint: the queue cut, which counts every worker's recorded
  // prefix as done, and the oracle as of that cut.
  std::optional<ShardQueueSnapshot> snapshot;
  std::map<uint64_t, int> snapshot_done;
  int restores = 0;

  int steps = 0;
  while (!queue.AllDone() && steps++ < 200000) {
    if (!snapshot.has_value() && rng.Bernoulli(0.002)) {
      snapshot_done = times_done;
      for (const Worker& w : workers) {
        if (!w.shard.has_value()) continue;
        credit(&snapshot_done, w.shard->start_batch,
               w.shard->start_batch + w.pos);
      }
      snapshot = queue.SnapshotState();
    } else if (snapshot.has_value() && restores < 8 && rng.Bernoulli(0.002)) {
      // Roll back: the queue and the oracle return to the cut, and every
      // shard handed out before it is stale.
      queue.RestoreState(*snapshot);
      times_done = snapshot_done;
      snapshot.reset();
      ++restores;
      for (Worker& w : workers) {
        if (!w.shard.has_value()) continue;
        EXPECT_EQ(queue.RecordProgress(w.shard->index).code(),
                  StatusCode::kNotFound);
        EXPECT_EQ(queue.ReportCompleted(*w.shard).code(),
                  StatusCode::kNotFound);
        EXPECT_EQ(queue.ReportFailed(*w.shard, w.pos).code(),
                  StatusCode::kNotFound);
        w.shard.reset();
      }
    }
    ASSERT_TRUE(queue.CheckInvariants().ok());
    const size_t i = rng.UniformInt(workers.size());
    Worker& worker = workers[i];
    if (!worker.shard.has_value()) {
      const uint64_t limit = rng.Bernoulli(0.2) ? 16 : 0;
      auto shard = queue.NextShard(limit);
      if (!shard.ok()) continue;
      worker.shard = *shard;
      worker.pos = 0;
      continue;
    }
    const double dice = rng.Uniform();
    if (dice < 0.05) {
      // Worker crashes: partial credit for what it recorded already. An
      // even prefix is named in the report; an odd one is left to the
      // queue's record.
      credit(&times_done, worker.shard->start_batch,
             worker.shard->start_batch + worker.pos);
      const uint64_t reported = worker.pos % 2 == 0 ? worker.pos : 0;
      ASSERT_TRUE(queue.ReportFailed(*worker.shard, reported).ok());
      worker.shard.reset();
    } else if (worker.pos < worker.shard->batches()) {
      ASSERT_TRUE(queue.RecordProgress(worker.shard->index).ok());
      ++worker.pos;
    } else {
      credit(&times_done, worker.shard->start_batch, worker.shard->end_batch);
      ASSERT_TRUE(queue.ReportCompleted(*worker.shard).ok());
      worker.shard.reset();
    }
    ASSERT_TRUE(queue.CheckInvariants().ok());
  }
  ASSERT_TRUE(queue.AllDone());
  EXPECT_GT(restores, 0);
  ASSERT_EQ(times_done.size(), 5000u);
  for (const auto& [batch, times] : times_done) {
    EXPECT_EQ(times, 1) << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardQueueChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ShardQueueTest, WaitNextShardForTimesOutWhenNothingIsServable) {
  ShardQueue queue(SmallQueue(50, 50));
  auto shard = queue.NextShard();
  ASSERT_TRUE(shard.ok());
  // All data is outstanding with its holder: a bounded wait must expire
  // with kDeadlineExceeded, not block forever or claim exhaustion.
  auto waited = queue.WaitNextShardFor(0.02);
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  // Once the holder fails, the remainder is immediately servable again.
  ASSERT_TRUE(queue.ReportFailed(*shard, 10).ok());
  auto retry = queue.WaitNextShardFor(0.02);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->start_batch, 10u);
}

TEST(ShardQueueTest, WaitNextShardForReportsExhaustionAsNotFound) {
  ShardQueue queue(SmallQueue(50, 50));
  auto shard = queue.WaitNextShardFor(0.02);
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
  auto done = queue.WaitNextShardFor(0.02);
  EXPECT_EQ(done.status().code(), StatusCode::kNotFound);
}

TEST(ShardQueueTest, WaitNextShardForWakesOnRequeueFromAnotherThread) {
  ShardQueue queue(SmallQueue(50, 50));
  auto shard = queue.NextShard();
  ASSERT_TRUE(shard.ok());
  const DataShard held = *shard;
  std::thread failer([&queue, held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(queue.ReportFailed(held, 5).ok());
  });
  // Generous deadline: the wake must come from the requeue notification,
  // well before the timeout.
  auto woken = queue.WaitNextShardFor(5.0);
  failer.join();
  ASSERT_TRUE(woken.ok());
  EXPECT_EQ(woken->start_batch, 5u);
}

TEST(ShardQueueTest, SnapshotAccountsInFlightPrefixes) {
  ShardQueue queue(SmallQueue(200, 50));
  auto done = queue.NextShard();
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(queue.ReportCompleted(*done).ok());
  auto in_flight = queue.NextShard();
  ASSERT_TRUE(in_flight.ok());

  // 20 of the outstanding shard's 50 batches are already committed.
  for (int b = 0; b < 20; ++b) {
    ASSERT_TRUE(queue.RecordProgress(in_flight->index).ok());
  }
  const ShardQueueSnapshot snapshot = queue.SnapshotState();
  EXPECT_EQ(snapshot.completed_batches, 70u);
  ASSERT_EQ(snapshot.pending.size(), 1u);
  EXPECT_EQ(snapshot.pending[0].start_batch, 70u);
  EXPECT_EQ(snapshot.pending[0].end_batch, 100u);
  EXPECT_EQ(snapshot.cursor, 100u);
}

TEST(ShardQueueTest, RestoreStateResumesExactlyOnceFromTheCut) {
  ShardQueue source(SmallQueue(200, 50));
  auto first = source.NextShard();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(source.ReportCompleted(*first).ok());
  auto second = source.NextShard();
  ASSERT_TRUE(second.ok());
  for (int b = 0; b < 10; ++b) {
    ASSERT_TRUE(source.RecordProgress(second->index).ok());
  }
  const ShardQueueSnapshot snapshot = source.SnapshotState();

  ShardQueue restored(SmallQueue(200, 50));
  restored.RestoreState(snapshot);
  EXPECT_EQ(restored.completed_batches(), 60u);

  // Draining the restored queue serves batches [60, 200) exactly once:
  // the in-flight remainder first, then untouched data from the cursor.
  std::set<uint64_t> seen;
  while (true) {
    auto shard = restored.NextShard();
    if (!shard.ok()) break;
    for (uint64_t b = shard->start_batch; b < shard->end_batch; ++b) {
      EXPECT_TRUE(seen.insert(b).second) << "batch served twice: " << b;
    }
    ASSERT_TRUE(restored.ReportCompleted(*shard).ok());
  }
  EXPECT_EQ(seen.size(), 140u);
  EXPECT_EQ(*seen.begin(), 60u);
  EXPECT_TRUE(restored.AllDone());
  ASSERT_TRUE(restored.CheckInvariants().ok());

  // Stale indices from the pre-restore lineage bounce off harmlessly.
  EXPECT_EQ(restored.ReportCompleted(*second).code(), StatusCode::kNotFound);
}

// Records `n` batches of outstanding shard `index`.
void Record(ShardQueue* queue, uint64_t index, uint64_t n) {
  for (uint64_t b = 0; b < n; ++b) {
    ASSERT_TRUE(queue->RecordProgress(index).ok());
  }
}

TEST(ShardQueueTest, ShardDispatchedBeforeRestoreCannotRecordAfterIt) {
  // A worker that took its shard before a restore must not push into the
  // restored model: its index is retired, so RecordProgress — which the
  // trainer calls before every push — refuses it.
  ShardQueue queue(SmallQueue(100, 20));
  const ShardQueueSnapshot cut = queue.SnapshotState();
  auto held = queue.NextShard();
  ASSERT_TRUE(held.ok());
  Record(&queue, held->index, 5);
  queue.RestoreState(cut);
  EXPECT_EQ(queue.RecordProgress(held->index).code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.ReportCompleted(*held).code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.ReportFailed(*held, 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.completed_batches(), 0u);
  // The restored queue serves the held range again, under a fresh index.
  auto again = queue.NextShard();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->start_batch, held->start_batch);
  EXPECT_NE(again->index, held->index);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

TEST(ShardQueueTest, SnapshotBetweenLastRecordAndCompletionCountsOnce) {
  // The checkpoint cut can fall after a shard's last batch is recorded and
  // before its completion report. It must count those batches exactly
  // once, and so must a cut after the report.
  ShardQueue queue(SmallQueue(100, 20));
  auto shard = queue.NextShard();
  ASSERT_TRUE(shard.ok());
  Record(&queue, shard->index, shard->batches());
  const ShardQueueSnapshot before = queue.SnapshotState();
  EXPECT_EQ(before.completed_batches, 20u);
  EXPECT_TRUE(before.pending.empty());
  ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
  const ShardQueueSnapshot after = queue.SnapshotState();
  EXPECT_EQ(after.completed_batches, 20u);
  EXPECT_TRUE(after.pending.empty());
  EXPECT_EQ(after.cursor, before.cursor);

  // Restoring the first cut never re-serves the recorded batches.
  ShardQueue restored(SmallQueue(100, 20));
  restored.RestoreState(before);
  uint64_t served = 0;
  for (auto next = restored.NextShard(); next.ok();
       next = restored.NextShard()) {
    EXPECT_GE(next->start_batch, 20u);
    served += next->batches();
    ASSERT_TRUE(restored.ReportCompleted(*next).ok());
  }
  EXPECT_EQ(served, 80u);
  EXPECT_TRUE(restored.AllDone());
}

TEST(ShardQueueTest, ReportFailedCreditsTheLargerOfExplicitAndRecorded) {
  ShardQueue queue(SmallQueue(40, 20));
  auto recorded_more = queue.NextShard();
  auto explicit_more = queue.NextShard();
  ASSERT_TRUE(recorded_more.ok() && explicit_more.ok());
  Record(&queue, recorded_more->index, 5);
  Record(&queue, explicit_more->index, 2);
  ASSERT_TRUE(queue.ReportFailed(*recorded_more, 3).ok());
  EXPECT_EQ(queue.completed_batches(), 5u);
  ASSERT_TRUE(queue.ReportFailed(*explicit_more, 7).ok());
  EXPECT_EQ(queue.completed_batches(), 12u);
  // The remainders come back from the first unaccounted batch.
  auto rest = queue.NextShard();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->start_batch, recorded_more->start_batch + 5);
  rest = queue.NextShard();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->start_batch, explicit_more->start_batch + 7);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

TEST(ShardQueueTest, CompleteFullyRecordedCreditsOnlyFinishedShards) {
  // A lost completion report leaves a fully recorded shard outstanding;
  // one call credits it and leaves partly recorded shards alone.
  ShardQueue queue(SmallQueue(60, 20));
  auto finished = queue.NextShard();
  auto partial = queue.NextShard();
  ASSERT_TRUE(finished.ok() && partial.ok());
  Record(&queue, finished->index, finished->batches());
  EXPECT_EQ(queue.RecordProgress(finished->index).code(),
            StatusCode::kFailedPrecondition);
  Record(&queue, partial->index, 19);
  EXPECT_EQ(queue.CompleteFullyRecorded(), 1u);
  EXPECT_EQ(queue.completed_batches(), 20u);
  EXPECT_EQ(queue.outstanding_batches(), 20u);
  EXPECT_EQ(queue.ReportCompleted(*finished).code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.CompleteFullyRecorded(), 0u);
  ASSERT_TRUE(queue.RecordProgress(partial->index).ok());
  EXPECT_EQ(queue.CompleteFullyRecorded(), 1u);
  EXPECT_EQ(queue.completed_batches(), 40u);
  ASSERT_TRUE(queue.CheckInvariants().ok());
}

TEST(HeartbeatMonitorTest, DetectsSilentMemberAsFailed) {
  HeartbeatMonitorOptions options;
  options.failure_timeout = 60.0;
  HeartbeatMonitor monitor(options);
  monitor.AddMember(1, 0.0);
  monitor.AddMember(2, 0.0);
  monitor.Heartbeat(1, 50.0, 100);
  monitor.Heartbeat(2, 10.0, 100);
  const auto failed = monitor.DetectFailures(100.0);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 2u);
}

TEST(HeartbeatMonitorTest, DetectsStragglerByProgressRate) {
  HeartbeatMonitorOptions options;
  options.min_observation = 10.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 4; ++id) monitor.AddMember(id, 0.0);
  // Members 1-3 progress at 10/sec; member 4 at 1/sec.
  for (int t = 1; t <= 10; ++t) {
    for (uint64_t id = 1; id <= 3; ++id) {
      monitor.Heartbeat(id, t * 10.0, static_cast<uint64_t>(t) * 100);
    }
    monitor.Heartbeat(4, t * 10.0, static_cast<uint64_t>(t) * 10);
  }
  const auto stragglers = monitor.DetectStragglers(100.0);
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0], 4u);
  // Flagged members are not re-reported.
  EXPECT_TRUE(monitor.DetectStragglers(100.0).empty());
}

TEST(HeartbeatMonitorTest, NoStragglersWithFewPeers) {
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  monitor.AddMember(1, 0.0);
  monitor.AddMember(2, 0.0);
  monitor.Heartbeat(1, 100.0, 1000);
  monitor.Heartbeat(2, 100.0, 1);
  EXPECT_TRUE(monitor.DetectStragglers(200.0).empty());
}

TEST(HeartbeatMonitorTest, YoungMemberSuppressesStragglerJudgments) {
  // A member still inside min_observation has no meaningful rate; the
  // monitor must withhold judgment on the whole group rather than compare
  // unbaked numbers.
  HeartbeatMonitorOptions options;
  options.min_observation = 50.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 3; ++id) monitor.AddMember(id, 0.0);
  for (int t = 1; t <= 10; ++t) {
    monitor.Heartbeat(1, t * 10.0, static_cast<uint64_t>(t) * 100);
    monitor.Heartbeat(2, t * 10.0, static_cast<uint64_t>(t) * 100);
    monitor.Heartbeat(3, t * 10.0, static_cast<uint64_t>(t) * 1);
  }
  EXPECT_EQ(monitor.DetectStragglers(100.0).size(), 1u);
  // A replacement joins at t=100: even the obvious laggard is not judged
  // until the newcomer has been observed long enough.
  monitor.AddMember(4, 100.0);
  EXPECT_TRUE(monitor.DetectStragglers(120.0).empty());
  monitor.Heartbeat(4, 150.0, 500);
  EXPECT_EQ(monitor.DetectStragglers(151.0, /*include_flagged=*/true).size(),
            1u);
}

TEST(HeartbeatMonitorTest, AllMembersStalledMeansNoStragglers) {
  // Zero median rate (a global pause — migration, PS restart) must not
  // flag the whole fleet, and must not divide by zero.
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  for (uint64_t id = 1; id <= 4; ++id) monitor.AddMember(id, 0.0);
  for (uint64_t id = 1; id <= 4; ++id) monitor.Heartbeat(id, 200.0, 0);
  EXPECT_TRUE(monitor.DetectStragglers(200.0).empty());
}

TEST(HeartbeatMonitorTest, IncludeFlaggedReportsKnownStragglersAgain) {
  HeartbeatMonitorOptions options;
  options.min_observation = 10.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 4; ++id) monitor.AddMember(id, 0.0);
  for (int t = 1; t <= 10; ++t) {
    for (uint64_t id = 1; id <= 3; ++id) {
      monitor.Heartbeat(id, t * 10.0, static_cast<uint64_t>(t) * 100);
    }
    monitor.Heartbeat(4, t * 10.0, static_cast<uint64_t>(t) * 10);
  }
  ASSERT_EQ(monitor.DetectStragglers(100.0).size(), 1u);
  EXPECT_TRUE(monitor.DetectStragglers(100.0).empty())
      << "flagged members are silenced by default";
  const auto again = monitor.DetectStragglers(100.0, /*include_flagged=*/true);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], 4u);
}

TEST(HeartbeatMonitorTest, RemovingFlaggedMemberClearsItFromAllVerdicts) {
  HeartbeatMonitorOptions options;
  options.min_observation = 10.0;
  options.failure_timeout = 30.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 4; ++id) monitor.AddMember(id, 0.0);
  for (int t = 1; t <= 10; ++t) {
    for (uint64_t id = 1; id <= 3; ++id) {
      monitor.Heartbeat(id, t * 10.0, static_cast<uint64_t>(t) * 100);
    }
    monitor.Heartbeat(4, t * 10.0, static_cast<uint64_t>(t) * 10);
  }
  ASSERT_EQ(monitor.DetectStragglers(100.0).size(), 1u);
  monitor.RemoveMember(4);  // the job replaced the straggler
  EXPECT_EQ(monitor.member_count(), 3u);
  EXPECT_TRUE(
      monitor.DetectStragglers(100.0, /*include_flagged=*/true).empty());
  // Nor can the removed member be reported failed later.
  EXPECT_TRUE(monitor.DetectFailures(1000.0).size() == 3u)
      << "only the remaining (now silent) members are reported";
}

TEST(HeartbeatMonitorTest, StragglerVerdictAtExactlyMinObservation) {
  // The observation gate is `window < min_observation`: one tick before the
  // boundary the whole group is unjudged, at exactly the boundary verdicts
  // fire. Pinning the closed/open ends keeps a refactor from silently
  // delaying (or rushing) every straggler call by one monitor period.
  HeartbeatMonitorOptions options;
  options.min_observation = 60.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 3; ++id) monitor.AddMember(id, 0.0);
  monitor.Heartbeat(1, 50.0, 500);
  monitor.Heartbeat(2, 50.0, 500);
  monitor.Heartbeat(3, 50.0, 5);
  EXPECT_TRUE(monitor.DetectStragglers(59.999).empty())
      << "no member may be judged before its window is complete";
  const auto at_boundary = monitor.DetectStragglers(60.0);
  ASSERT_EQ(at_boundary.size(), 1u);
  EXPECT_EQ(at_boundary[0], 3u);
}

TEST(HeartbeatMonitorTest, ProgressRateZeroElapsedWindowIsZero) {
  // A heartbeat that lands in the same instant the member registered gives
  // a zero-elapsed observation window; the rate must read 0 rather than
  // divide by zero, and unknown members must read 0 as well.
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  monitor.AddMember(7, 100.0);
  monitor.Heartbeat(7, 100.0, 500);
  EXPECT_DOUBLE_EQ(monitor.ProgressRate(7, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(monitor.ProgressRate(99, 100.0), 0.0) << "unknown member";
  // Once wall time accrues, the same offset yields a finite rate.
  EXPECT_DOUBLE_EQ(monitor.ProgressRate(7, 150.0), 10.0);
}

TEST(HeartbeatMonitorTest, ReAddedMemberStartsWithCleanSlate) {
  // Remove-then-re-add with the same id (a replacement pod reusing a rank)
  // must reset the flagged bit and the observation window: the newcomer is
  // neither pre-flagged nor judged until it has been watched long enough.
  HeartbeatMonitorOptions options;
  options.min_observation = 10.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id = 1; id <= 4; ++id) monitor.AddMember(id, 0.0);
  for (int t = 1; t <= 10; ++t) {
    for (uint64_t id = 1; id <= 3; ++id) {
      monitor.Heartbeat(id, t * 10.0, static_cast<uint64_t>(t) * 100);
    }
    monitor.Heartbeat(4, t * 10.0, static_cast<uint64_t>(t) * 10);
  }
  ASSERT_EQ(monitor.DetectStragglers(100.0).size(), 1u);
  monitor.RemoveMember(4);
  monitor.AddMember(4, 100.0);
  ASSERT_FALSE(monitor.member(4)->flagged_straggler);
  EXPECT_TRUE(monitor.DetectStragglers(105.0, /*include_flagged=*/true).empty())
      << "fresh observation window suppresses judgment on the whole group";
  // After the newcomer's window completes at a healthy rate, nobody is slow.
  monitor.Heartbeat(4, 115.0, 1500);
  EXPECT_TRUE(
      monitor.DetectStragglers(115.0, /*include_flagged=*/true).empty());
}

TEST(HeartbeatMonitorTest, OutOfOrderHeartbeatDoesNotRewindSilenceClock) {
  // A reordered control plane can deliver an old heartbeat after a newer
  // one. The stale packet must not rewind liveness (which would delay
  // failure detection) but its progress still folds in monotonically.
  HeartbeatMonitorOptions options;
  options.failure_timeout = 60.0;
  HeartbeatMonitor monitor(options);
  monitor.AddMember(1, 0.0);
  monitor.Heartbeat(1, 50.0, 500);
  monitor.Heartbeat(1, 10.0, 800);  // late delivery of an older packet
  EXPECT_EQ(monitor.stale_heartbeats_ignored(), 1u);
  EXPECT_EQ(monitor.member(1)->last_heartbeat, 50.0);
  EXPECT_EQ(monitor.member(1)->progress_offset, 800u);
  // Liveness judged from the newest accepted packet, not the stale one.
  EXPECT_TRUE(monitor.DetectFailures(100.0).empty());
  ASSERT_EQ(monitor.DetectFailures(111.0).size(), 1u);
}

TEST(HeartbeatMonitorTest, DuplicateHeartbeatIsHarmless) {
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  monitor.AddMember(1, 0.0);
  monitor.Heartbeat(1, 10.0, 100);
  monitor.Heartbeat(1, 10.0, 100);  // duplicated copy, same timestamp
  EXPECT_EQ(monitor.stale_heartbeats_ignored(), 0u);
  EXPECT_EQ(monitor.member(1)->last_heartbeat, 10.0);
  EXPECT_EQ(monitor.member(1)->progress_offset, 100u);
}

TEST(HeartbeatMonitorTest, FencedMemberCannotBeResurrectedByLatePackets) {
  // Once the master gives up on a worker, heartbeat packets still in flight
  // must not auto-register a ghost member that would then be "detected" as
  // failed all over again.
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  monitor.AddMember(7, 0.0);
  monitor.Heartbeat(7, 5.0, 50);
  monitor.FenceMember(7);
  EXPECT_TRUE(monitor.IsFenced(7));
  EXPECT_EQ(monitor.member_count(), 0u);

  monitor.Heartbeat(7, 6.0, 60);  // late in-flight packet
  EXPECT_EQ(monitor.member_count(), 0u);
  EXPECT_EQ(monitor.fenced_heartbeats_ignored(), 1u);

  // An unknown-but-unfenced id still auto-registers (first contact).
  monitor.Heartbeat(8, 6.0, 10);
  EXPECT_EQ(monitor.member_count(), 1u);
}

TEST(HeartbeatMonitorTest, ExplicitReAddLiftsFence) {
  // AddMember is the one path that lifts a fence: a replacement pod
  // legitimately reusing the id is a new incarnation.
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  monitor.AddMember(7, 0.0);
  monitor.FenceMember(7);
  monitor.AddMember(7, 10.0);
  EXPECT_FALSE(monitor.IsFenced(7));
  monitor.Heartbeat(7, 12.0, 5);
  EXPECT_EQ(monitor.member_count(), 1u);
  EXPECT_EQ(monitor.fenced_heartbeats_ignored(), 0u);
  EXPECT_EQ(monitor.member(7)->progress_offset, 5u);
}

TEST(HeartbeatMonitorTest, SparseIdsKeepFencesAndAscendingVerdictOrder) {
  // Ids 0, 5 and 9 leave holes in the flat table: a hole is neither a
  // member nor fenced, queries past the end do not grow it, and every scan
  // reports in ascending id order.
  HeartbeatMonitorOptions options;
  options.min_observation = 10.0;
  options.failure_timeout = 30.0;
  HeartbeatMonitor monitor(options);
  for (uint64_t id : {9u, 0u, 5u}) monitor.AddMember(id, 0.0);
  EXPECT_EQ(monitor.member_count(), 3u);
  EXPECT_EQ(monitor.member(3), nullptr);
  EXPECT_EQ(monitor.member(1000), nullptr);
  EXPECT_FALSE(monitor.IsFenced(3));
  EXPECT_DOUBLE_EQ(monitor.ProgressRate(1000, 10.0), 0.0);

  // Fence 5; its late packet neither registers it nor moves anything.
  monitor.FenceMember(5);
  EXPECT_TRUE(monitor.IsFenced(5));
  EXPECT_EQ(monitor.member(5), nullptr);
  monitor.Heartbeat(5, 1.0, 10);
  EXPECT_EQ(monitor.member_count(), 2u);
  EXPECT_EQ(monitor.fenced_heartbeats_ignored(), 1u);

  // An unknown, unfenced id auto-registers on its first heartbeat.
  monitor.Heartbeat(7, 0.0, 0);
  ASSERT_NE(monitor.member(7), nullptr);
  EXPECT_EQ(monitor.member_count(), 3u);

  // Re-adding 5 lifts its fence with a clean slate.
  monitor.AddMember(5, 0.0);
  EXPECT_FALSE(monitor.IsFenced(5));
  ASSERT_NE(monitor.member(5), nullptr);
  EXPECT_EQ(monitor.member(5)->progress_offset, 0u);
  EXPECT_EQ(monitor.member_count(), 4u);

  std::vector<uint64_t> order;
  monitor.ForEachMember(
      [&order](uint64_t id, const MemberHealth&) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 5, 7, 9}));

  // 9 and 5 are slow against a median of 100/s: both verdicts, id order.
  for (uint64_t id : {0u, 7u}) monitor.Heartbeat(id, 20.0, 2000);
  monitor.Heartbeat(9, 20.0, 20);
  monitor.Heartbeat(5, 20.0, 10);
  EXPECT_EQ(monitor.DetectStragglers(20.0), (std::vector<uint64_t>{5, 9}));
  EXPECT_TRUE(monitor.member(9)->flagged_straggler);

  monitor.RemoveMember(0);
  EXPECT_EQ(monitor.member(0), nullptr);
  EXPECT_EQ(monitor.DetectFailures(60.0), (std::vector<uint64_t>{5, 7, 9}));
}

TEST(CheckpointStoreTest, FlashIsOrdersOfMagnitudeFasterThanRds) {
  RdsStore rds;
  CacheStore cache;
  const Bytes model = GiB(20);
  // Paper: RDS checkpoint 5-10 minutes; flash-checkpoint < 1s + overhead.
  EXPECT_GT(rds.WriteTime(model), Minutes(5));
  EXPECT_LT(rds.WriteTime(model), Minutes(10));
  EXPECT_LT(cache.WriteTime(model), Seconds(1.5));
}

TEST(CheckpointStoreTest, AsyncFlushAccumulates) {
  CacheStore cache;
  cache.AsyncFlushToRds(GiB(1));
  cache.AsyncFlushToRds(GiB(2));
  EXPECT_DOUBLE_EQ(cache.flushed_bytes(), GiB(3));
}

TEST(OomPredictorTest, FitsLinearGrowth) {
  OomPredictor predictor;
  for (int i = 0; i < 10; ++i) {
    predictor.Observe(i * 10.0, GiB(1) + i * MiB(100));
  }
  EXPECT_NEAR(predictor.SlopeBytesPerSec(), MiB(10), MiB(0.1));
  EXPECT_NEAR(predictor.ProjectAt(190.0), GiB(1) + MiB(1900), MiB(20));
}

TEST(OomPredictorTest, RecommendsWhenLimitWillBeHit) {
  OomPredictor predictor;
  for (int i = 0; i < 10; ++i) {
    predictor.Observe(i * 10.0, GiB(1) + i * MiB(100));
  }
  // Growing ~10 MiB/s; a 2 GiB limit is hit around t=190s.
  const auto rec = predictor.RecommendLimit(GiB(2), 500.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_GT(*rec, GiB(4));
  // A roomy limit needs no action.
  EXPECT_FALSE(predictor.RecommendLimit(GiB(64), 500.0).has_value());
}

TEST(OomPredictorTest, SilentWithTooFewSamples) {
  OomPredictor predictor;
  predictor.Observe(0.0, GiB(1));
  predictor.Observe(1.0, GiB(2));
  EXPECT_FALSE(predictor.RecommendLimit(GiB(1), 100.0).has_value());
}

TEST(OomPredictorTest, FlatUsageNeverTriggers) {
  OomPredictor predictor;
  for (int i = 0; i < 20; ++i) predictor.Observe(i * 10.0, GiB(3));
  EXPECT_FALSE(predictor.RecommendLimit(GiB(4), 1e9).has_value());
}

}  // namespace
}  // namespace dlrover
