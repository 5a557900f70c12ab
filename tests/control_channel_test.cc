#include "cluster/control_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "elastic/shard_queue.h"
#include "fnv1a.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

ControlChannelOptions CleanOptions() {
  ControlChannelOptions options;
  options.enabled = true;
  options.seed = 7;
  return options;
}

// A master endpoint that just records what the channel did to it.
struct RecordingMaster : ControlMasterEndpoint {
  int crashes = 0;
  int restarts = 0;
  void OnMasterCrash() override { ++crashes; }
  void OnMasterRestart() override { ++restarts; }
};

TEST(ControlChannelTest, CleanSendDeliversExactlyOnceWithinLatencyBounds) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  ControlChannel channel(&sim, options);

  int delivered = 0;
  SimTime delivered_at = -1.0;
  channel.Send(ControlMessageKind::kHeartbeat, 3, ControlChannel::kMaster,
               [&] {
                 ++delivered;
                 delivered_at = sim.Now();
               });
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 1);
  EXPECT_GE(delivered_at, options.min_latency);
  EXPECT_LE(delivered_at, options.max_latency);
  EXPECT_EQ(channel.stats().messages_sent, 1u);
  EXPECT_EQ(channel.stats().messages_delivered, 1u);
  EXPECT_EQ(channel.stats().messages_dropped, 0u);
  EXPECT_EQ(channel.stats().retries, 0u);
}

TEST(ControlChannelTest, DropProbabilityOneLosesFireAndForget) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.drop_prob = 1.0;
  ControlChannel channel(&sim, options);

  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    channel.Send(ControlMessageKind::kHeartbeat, 0, ControlChannel::kMaster,
                 [&] { ++delivered; });
  }
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stats().messages_dropped, 10u);
  EXPECT_EQ(channel.stats().messages_delivered, 0u);
}

TEST(ControlChannelTest, DuplicateProbabilityOneDeliversTwoCopies) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.duplicate_prob = 1.0;
  ControlChannel channel(&sim, options);

  int delivered = 0;
  channel.Send(ControlMessageKind::kHeartbeat, 0, ControlChannel::kMaster,
               [&] { ++delivered; });
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(channel.stats().messages_duplicated, 1u);
  EXPECT_EQ(channel.stats().messages_delivered, 2u);
}

TEST(ControlChannelTest, ReorderedCopyArrivesAfterLaterMessage) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.reorder_prob = 1.0;  // every copy held reorder_delay extra
  options.min_latency = Seconds(0.1);
  options.max_latency = Seconds(0.1);
  ControlChannel channel(&sim, options);

  int delivered = 0;
  SimTime delivered_at = -1.0;
  channel.Send(ControlMessageKind::kHeartbeat, 0, ControlChannel::kMaster,
               [&] {
                 ++delivered;
                 delivered_at = sim.Now();
               });
  sim.RunToCompletion();
  EXPECT_EQ(channel.stats().messages_reordered, 1u);
  EXPECT_EQ(delivered, 1);
  // The held copy landed at latency + kReorderDelay — late enough for any
  // promptly-sent later message to overtake it.
  EXPECT_GE(delivered_at, ControlChannel::kReorderDelay);
}

TEST(ControlChannelTest, ReliableSendRetriesThroughLossAndEventuallyLands) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.drop_prob = 0.8;  // most attempts lost; retries must recover
  options.retry_base = Seconds(0.5);
  options.retry_cap = Seconds(2);
  options.retry_deadline = Minutes(30);
  ControlChannel channel(&sim, options);

  int delivered = 0;
  int expired = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; },
                       [&] { ++expired; });
  sim.RunToCompletion();

  EXPECT_GE(delivered, 1);
  EXPECT_EQ(expired, 0);
  EXPECT_GE(channel.stats().retries, 1u);
  EXPECT_EQ(channel.stats().sends_expired, 0u);
}

TEST(ControlChannelTest, ReliableSendExpiresPastDeadlineAndFiresHookOnce) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.drop_prob = 1.0;  // nothing ever gets through
  options.retry_base = Seconds(1);
  options.retry_cap = Seconds(5);
  options.retry_deadline = Minutes(2);
  ControlChannel channel(&sim, options);

  int delivered = 0;
  int expired = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; },
                       [&] { ++expired; });
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(channel.stats().sends_expired, 1u);
  // Expiry is checked at retry time, so it lands after the deadline.
  EXPECT_GT(sim.Now(), options.retry_deadline);
}

TEST(ControlChannelTest, RetriesDisabledMeansSingleAttemptAndNoExpiry) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.drop_prob = 1.0;
  options.retries_enabled = false;
  options.retry_deadline = Seconds(10);
  ControlChannel channel(&sim, options);

  int delivered = 0;
  int expired = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; },
                       [&] { ++expired; });
  sim.RunUntil(Minutes(30));

  // The one attempt was dropped; without retries the expiry hook is the
  // unprotected arm's blind spot — it must never fire.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(expired, 0);
  EXPECT_EQ(channel.stats().messages_sent, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
  EXPECT_EQ(channel.stats().sends_expired, 0u);
}

TEST(ControlChannelTest, NodePartitionSeversOnlyThatNodeThenHeals) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  ControlChannel channel(&sim, options);

  channel.PartitionNode(4, Minutes(5));
  EXPECT_TRUE(channel.NodePartitioned(4));
  EXPECT_FALSE(channel.NodePartitioned(3));
  EXPECT_FALSE(channel.CellPartitioned());

  int from_partitioned = 0;
  int from_healthy = 0;
  channel.Send(ControlMessageKind::kHeartbeat, 4, ControlChannel::kMaster,
               [&] { ++from_partitioned; });
  channel.Send(ControlMessageKind::kHeartbeat, 3, ControlChannel::kMaster,
               [&] { ++from_healthy; });
  sim.RunUntil(Minutes(1));
  EXPECT_EQ(from_partitioned, 0);
  EXPECT_EQ(from_healthy, 1);
  EXPECT_EQ(channel.node_partition_drops(4), 1u);
  EXPECT_EQ(channel.node_partition_drops(3), 0u);

  // After the heal, traffic flows again.
  sim.RunUntil(Minutes(6));
  EXPECT_FALSE(channel.NodePartitioned(4));
  channel.Send(ControlMessageKind::kHeartbeat, 4, ControlChannel::kMaster,
               [&] { ++from_partitioned; });
  sim.RunToCompletion();
  EXPECT_EQ(from_partitioned, 1);
}

TEST(ControlChannelTest, CellPartitionSeversBrainTrafficNotWorkerTraffic) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  ControlChannel channel(&sim, options);

  channel.PartitionCell(Minutes(3));
  EXPECT_TRUE(channel.CellPartitioned());

  int plan_delivered = 0;
  int heartbeat_delivered = 0;
  channel.Send(ControlMessageKind::kPlan, ControlChannel::kBrain,
               ControlChannel::kMaster, [&] { ++plan_delivered; });
  channel.Send(ControlMessageKind::kHeartbeat, 7, ControlChannel::kMaster,
               [&] { ++heartbeat_delivered; });
  sim.RunUntil(Minutes(1));

  EXPECT_EQ(plan_delivered, 0);
  EXPECT_EQ(heartbeat_delivered, 1);
  EXPECT_EQ(channel.cell_partition_drops(), 1u);
  EXPECT_EQ(channel.stats().messages_partition_dropped, 1u);

  sim.RunUntil(Minutes(4));
  EXPECT_FALSE(channel.CellPartitioned());
}

TEST(ControlChannelTest, OverlappingPartitionsExtendToTheLaterEnd) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  ControlChannel channel(&sim, options);

  channel.PartitionNode(1, Minutes(4));
  sim.RunUntil(Minutes(2));
  channel.PartitionNode(1, Minutes(1));  // shorter overlap must not shrink
  sim.RunUntil(Minutes(3.5));
  EXPECT_TRUE(channel.NodePartitioned(1));
  sim.RunUntil(Minutes(4.5));
  EXPECT_FALSE(channel.NodePartitioned(1));
  EXPECT_EQ(channel.stats().node_partitions, 2u);
}

TEST(ControlChannelTest, ReliableSendRetriesAcrossPartitionHeal) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.retry_base = Seconds(5);
  options.retry_cap = Seconds(20);
  options.retry_deadline = Minutes(30);
  ControlChannel channel(&sim, options);

  channel.PartitionNode(2, Minutes(3));
  int delivered = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; });
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 1);
  EXPECT_GE(channel.stats().messages_partition_dropped, 1u);
  EXPECT_GE(channel.stats().retries, 1u);
  // Delivery happened only after the partition healed.
  EXPECT_GE(channel.node_partition_drops(2), 1u);
}

// The first attempt's backoff multiplier, drawn from a fresh channel's RNG
// stream as Attempt draws it for an unpartitioned send: drop, latency,
// reorder and duplicate come first, the backoff fifth.
double FirstBackoffMultiplier(uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) (void)rng.Uniform();
  return rng.Uniform(0.5, 1.5);
}

// Retry timers reach the simulator only when needed (DESIGN.md §15): the
// three cases below pin when a held retry is dropped or armed.
TEST(ControlChannelTest, AckBeatingTheBackoffMeansNoRetryTimer) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.min_latency = Seconds(0.1);
  options.max_latency = Seconds(0.1);
  options.retry_base = Seconds(5);  // backoff in [2.5, 7.5) s
  ControlChannel channel(&sim, options);

  int delivered = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; });
  EXPECT_EQ(sim.pending_events(), 1u) << "only the copy; the retry is held";
  sim.RunToCompletion();

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stats().retries, 0u);
  EXPECT_EQ(sim.executed_events(), 2u) << "the copy and its ack";
}

TEST(ControlChannelTest, LostAckFiresTheRetryAtFirstSendPlusBackoff) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.min_latency = Seconds(0.1);
  options.max_latency = Seconds(0.1);
  options.retry_base = Seconds(1);  // backoff in [0.5, 1.5) s
  ControlChannel channel(&sim, options);

  int delivered = 0;
  channel.SendReliable(ControlMessageKind::kShardReport, 2,
                       ControlChannel::kMaster, [&] { ++delivered; });
  // Sever node 2 from t = 0.05 to 0.15 s: the copy lands at 0.1 s, but its
  // ack cannot get back.
  sim.ScheduleAt(Seconds(0.05),
                 [&] { channel.PartitionNode(2, Seconds(0.1)); });
  sim.RunToCompletion();

  EXPECT_EQ(channel.stats().acks_lost, 1u);
  EXPECT_EQ(channel.stats().retries, 1u);
  EXPECT_EQ(delivered, 2);
  const SimTime expected = options.retry_base * FirstBackoffMultiplier(7);
  const auto retried =
      std::find_if(channel.log().begin(), channel.log().end(),
                   [](const ControlEvent& e) {
                     return e.kind == ControlEventKind::kRetried;
                   });
  ASSERT_NE(retried, channel.log().end());
  EXPECT_EQ(retried->time, expected);
}

TEST(ControlChannelTest, FencedCopyArmsTheRetry) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.min_latency = Seconds(0.1);
  options.max_latency = Seconds(0.1);
  options.retry_base = Seconds(5);  // backoff in [2.5, 7.5) s
  options.master_restart_delay = Seconds(45);
  ControlChannel channel(&sim, options);
  RecordingMaster master;
  const int handle = channel.RegisterMaster(&master);

  int delivered = 0;
  channel.SendReliable(ControlMessageKind::kPlan, ControlChannel::kBrain,
                       ControlChannel::kMaster, [&] { ++delivered; },
                       /*on_expire=*/nullptr, handle);
  EXPECT_EQ(sim.pending_events(), 1u) << "only the copy; the retry is held";
  channel.CrashMasterByOrdinal(0);  // schedules the restart
  sim.RunUntil(Seconds(0.2));
  EXPECT_EQ(channel.stats().epoch_fenced, 1u);
  EXPECT_EQ(sim.pending_events(), 2u) << "the restart and the armed retry";

  sim.RunToCompletion();
  EXPECT_EQ(delivered, 1);
  const SimTime expected = options.retry_base * FirstBackoffMultiplier(7);
  const auto retried =
      std::find_if(channel.log().begin(), channel.log().end(),
                   [](const ControlEvent& e) {
                     return e.kind == ControlEventKind::kRetried;
                   });
  ASSERT_NE(retried, channel.log().end());
  EXPECT_EQ(retried->time, expected);
}

TEST(ControlChannelTest, MasterCrashFencesInFlightDeliveriesAndRestartBumpsEpoch) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.master_restart_delay = Seconds(45);
  options.min_latency = Seconds(1);
  options.max_latency = Seconds(1);
  ControlChannel channel(&sim, options);

  RecordingMaster master;
  const int handle = channel.RegisterMaster(&master);
  EXPECT_TRUE(channel.MasterUp(handle));
  EXPECT_EQ(channel.MasterEpoch(handle), 0u);
  EXPECT_EQ(channel.MastersUp(), 1u);

  // Fire-and-forget copy in flight when the master dies: it must be fenced,
  // not delivered into the void.
  int delivered = 0;
  channel.SendReliable(ControlMessageKind::kPlan, ControlChannel::kBrain,
                       ControlChannel::kMaster, [&] { ++delivered; },
                       /*on_expire=*/nullptr, handle);
  EXPECT_EQ(channel.CrashMasterByOrdinal(0), handle);
  EXPECT_EQ(master.crashes, 1);
  EXPECT_FALSE(channel.MasterUp(handle));
  EXPECT_EQ(channel.MastersUp(), 0u);

  sim.RunUntil(Seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(channel.stats().epoch_fenced, 1u);

  // Failover brings a replacement with a new epoch; the retry loop
  // re-captures it and the plan finally lands.
  sim.RunToCompletion();
  EXPECT_EQ(master.restarts, 1);
  EXPECT_TRUE(channel.MasterUp(handle));
  EXPECT_EQ(channel.MasterEpoch(handle), 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stats().master_crashes, 1u);
  EXPECT_EQ(channel.stats().master_restarts, 1u);
}

TEST(ControlChannelTest, FailoverDisabledLeavesMasterDownForGood) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.failover_enabled = false;
  ControlChannel channel(&sim, options);

  RecordingMaster master;
  const int handle = channel.RegisterMaster(&master);
  EXPECT_EQ(channel.CrashMasterByOrdinal(0), handle);
  sim.RunUntil(Minutes(30));

  EXPECT_EQ(master.restarts, 0);
  EXPECT_FALSE(channel.MasterUp(handle));
  EXPECT_EQ(channel.stats().master_restarts, 0u);
}

TEST(ControlChannelTest, CrashOrdinalSkipsDownAndUnregisteredMasters) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.failover_enabled = false;
  ControlChannel channel(&sim, options);

  RecordingMaster a, b, c;
  const int ha = channel.RegisterMaster(&a);
  const int hb = channel.RegisterMaster(&b);
  const int hc = channel.RegisterMaster(&c);
  channel.UnregisterMaster(hb);

  // Ordinal 1 among up masters {a, c} is c.
  EXPECT_EQ(channel.CrashMasterByOrdinal(1), hc);
  EXPECT_EQ(c.crashes, 1);
  EXPECT_EQ(a.crashes, 0);
  // Only a remains up; crashing past the end is a no-op.
  EXPECT_EQ(channel.CrashMasterByOrdinal(1), -1);
  EXPECT_EQ(channel.CrashMasterByOrdinal(0), ha);
  EXPECT_EQ(channel.MastersUp(), 0u);
}

TEST(ControlChannelTest, ChaoticRunIsByteIdenticalAcrossReruns) {
  auto run = [](ControlChannelStats* stats, std::vector<ControlEvent>* log) {
    Simulator sim;
    ControlChannelOptions options = CleanOptions();
    options.drop_prob = 0.3;
    options.duplicate_prob = 0.2;
    options.reorder_prob = 0.2;
    options.retry_base = Seconds(0.5);
    options.retry_cap = Seconds(4);
    options.retry_deadline = Minutes(5);
    ControlChannel channel(&sim, options);

    RecordingMaster master;
    const int handle = channel.RegisterMaster(&master);
    channel.PartitionNode(3, Minutes(2));
    int delivered = 0;
    for (int i = 0; i < 40; ++i) {
      const ControlEndpoint src = i % 8;
      if (i % 3 == 0) {
        channel.SendReliable(ControlMessageKind::kShardReport, src,
                             ControlChannel::kMaster, [&] { ++delivered; },
                             nullptr, handle);
      } else {
        channel.Send(ControlMessageKind::kHeartbeat, src,
                     ControlChannel::kMaster, [&] { ++delivered; });
      }
    }
    sim.RunUntil(Minutes(1));
    channel.CrashMasterByOrdinal(0);
    channel.PartitionCell(Minutes(1));
    sim.RunToCompletion();
    *stats = channel.stats();
    *log = channel.log();
  };

  ControlChannelStats stats_a, stats_b;
  std::vector<ControlEvent> log_a, log_b;
  run(&stats_a, &log_a);
  run(&stats_b, &log_b);

  EXPECT_TRUE(stats_a == stats_b);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_TRUE(log_a[i] == log_b[i]) << "log diverges at entry " << i;
  }
  EXPECT_FALSE(log_a.empty());
}

// FNV-1a digest of a chaotic run: every stats counter, every log entry, and
// the time and order of every delivery and expiry callback. High reorder
// makes many copies land after their retry time; drops also lose acks; a
// node partition and a master crash with epoch fencing cut traffic.
std::string ChaoticRunDigest(ControlChannelStats* stats) {
  Simulator sim;
  ControlChannelOptions options = CleanOptions();
  options.seed = 99;
  options.drop_prob = 0.2;
  options.duplicate_prob = 0.25;
  options.reorder_prob = 0.4;
  options.retry_base = Seconds(0.5);
  options.retry_cap = Seconds(4);
  options.retry_deadline = Minutes(3);
  ControlChannel channel(&sim, options);
  RecordingMaster master;
  const int handle = channel.RegisterMaster(&master);

  Fnv1a h;
  auto note = [&h, &sim](uint64_t what, uint64_t id) {
    h.Add(what);
    h.Add(id);
    h.Add(sim.Now());
  };
  for (uint64_t i = 0; i < 120; ++i) {
    sim.ScheduleAt(Seconds(1.5 * static_cast<double>(i)), [&, i] {
      const ControlEndpoint src = static_cast<ControlEndpoint>(i % 6);
      switch (i % 4) {
        case 0:
          channel.Send(ControlMessageKind::kHeartbeat, src,
                       ControlChannel::kMaster, [&note, i] { note(0, i); });
          break;
        case 1:
          channel.SendReliable(ControlMessageKind::kShardReport, src,
                               ControlChannel::kMaster,
                               [&note, i] { note(1, i); },
                               [&note, i] { note(2, i); });
          break;
        default:
          channel.SendReliable(ControlMessageKind::kPlan,
                               ControlChannel::kBrain, ControlChannel::kMaster,
                               [&note, i] { note(3, i); },
                               [&note, i] { note(4, i); }, handle);
          break;
      }
    });
  }
  sim.ScheduleAt(Seconds(20), [&] { channel.PartitionNode(2, Seconds(40)); });
  sim.ScheduleAt(Seconds(50), [&] { channel.CrashMasterByOrdinal(0); });
  sim.ScheduleAt(Seconds(120), [&] { channel.PartitionCell(Seconds(30)); });
  sim.RunToCompletion();

  const ControlChannelStats& s = channel.stats();
  *stats = s;
  for (uint64_t v :
       {s.messages_sent, s.messages_delivered, s.messages_dropped,
        s.messages_partition_dropped, s.messages_duplicated,
        s.messages_reordered, s.retries, s.sends_expired, s.acks_lost,
        s.epoch_fenced, s.plans_fenced_stale, s.stale_plan_applies,
        s.node_partitions, s.cell_partitions, s.master_crashes,
        s.master_restarts, sim.executed_events()}) {
    h.Add(v);
  }
  for (const ControlEvent& e : channel.log()) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.kind));
    h.Add(e.a);
    h.Add(e.b);
  }
  return h.Hex();
}

TEST(ControlChannelTest, ChaoticRunMatchesPinnedDigest) {
  // Recorded before retries were armed lazily: the channel's observable
  // behaviour (what is delivered or expired, when, and in what order) must
  // not depend on how many retry timers reach the simulator.
  ControlChannelStats stats;
  EXPECT_EQ(ChaoticRunDigest(&stats), "c0ad94a442603749");
  // The run exercises every path that holds, arms or drops a retry.
  EXPECT_GT(stats.messages_reordered, 0u);
  EXPECT_GT(stats.messages_duplicated, 0u);
  EXPECT_GT(stats.acks_lost, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.epoch_fenced, 0u);
  EXPECT_GT(stats.messages_partition_dropped, 0u);
}

TEST(ControlChannelTest, FencingNotesFeedStatsAndLog) {
  Simulator sim;
  ControlChannel channel(&sim, CleanOptions());
  EXPECT_TRUE(channel.fencing_enabled());
  channel.NotePlanFenced(12, 7);
  channel.NoteStalePlanApplied(12, 6);
  EXPECT_EQ(channel.stats().plans_fenced_stale, 1u);
  EXPECT_EQ(channel.stats().stale_plan_applies, 1u);
  ASSERT_EQ(channel.log().size(), 2u);
  EXPECT_EQ(channel.log()[0].kind, ControlEventKind::kPlanFencedStale);
  EXPECT_EQ(channel.log()[0].a, 12u);
  EXPECT_EQ(channel.log()[0].b, 7u);
  EXPECT_EQ(channel.log()[1].kind, ControlEventKind::kStalePlanApplied);
}

// ControlEvent packs `b` and `kind` into one word. Every kind must read back
// exactly next to the widest `a` (a plan-fence source is a job's 64-bit
// seed) and the widest `b`, and neither field may spill into the other.
TEST(ControlChannelTest, EventHoldsEveryKindNextToFullWidthDetail) {
  constexpr uint64_t kMaxA = std::numeric_limits<uint64_t>::max();
  constexpr uint64_t kMaxB = ControlEvent::kMaxB;
  static_assert(kMaxB == (uint64_t{1} << 56) - 1);
  const int last = static_cast<int>(ControlEventKind::kStalePlanApplied);
  for (int k = 0; k <= last; ++k) {
    const auto kind = static_cast<ControlEventKind>(k);
    for (uint64_t b : {kMaxB, uint64_t{0}, uint64_t{0xA5A5A5A5A5A5A5}}) {
      ControlEvent e;
      e.time = 1234.5;
      e.a = kMaxA;
      e.b = b;
      e.kind = kind;
      EXPECT_EQ(e.time, 1234.5);
      EXPECT_EQ(e.a, kMaxA);
      EXPECT_EQ(static_cast<uint64_t>(e.b), b) << "kind " << k;
      EXPECT_EQ(e.kind, kind) << "b " << b;
      // Writing the other field afterwards leaves this one as it was.
      e.b = kMaxB - b;
      EXPECT_EQ(e.kind, kind);
      e.kind = static_cast<ControlEventKind>(last - k);
      EXPECT_EQ(static_cast<uint64_t>(e.b), kMaxB - b);
      EXPECT_EQ(e.a, kMaxA);
    }
  }

  // The same widths through Record, by the two notes that carry a job seed.
  Simulator sim;
  ControlChannel channel(&sim, CleanOptions());
  channel.NotePlanFenced(kMaxA, kMaxB);
  channel.NoteStalePlanApplied(kMaxA, kMaxB - 1);
  ASSERT_EQ(channel.log().size(), 2u);
  EXPECT_EQ(channel.log()[0].kind, ControlEventKind::kPlanFencedStale);
  EXPECT_EQ(channel.log()[0].a, kMaxA);
  EXPECT_EQ(static_cast<uint64_t>(channel.log()[0].b), kMaxB);
  EXPECT_EQ(channel.log()[1].kind, ControlEventKind::kStalePlanApplied);
  EXPECT_EQ(channel.log()[1].a, kMaxA);
  EXPECT_EQ(static_cast<uint64_t>(channel.log()[1].b), kMaxB - 1);
}

// A `b` of 2^56 would lose its top bit in the packed record; Record aborts
// instead, in every build type.
TEST(ControlChannelDeathTest, RecordRejectsDetailPast56Bits) {
  Simulator sim;
  ControlChannel channel(&sim, CleanOptions());
  EXPECT_DEATH(channel.NotePlanFenced(1, ControlEvent::kMaxB + 1),
               "does not fit in 56 bits");
}

TEST(ControlChannelTest, StatsMergeIsFieldwiseSum) {
  ControlChannelStats a;
  a.messages_sent = 3;
  a.retries = 1;
  a.master_crashes = 1;
  ControlChannelStats b;
  b.messages_sent = 4;
  b.epoch_fenced = 2;
  b.master_restarts = 1;
  a += b;
  EXPECT_EQ(a.messages_sent, 7u);
  EXPECT_EQ(a.retries, 1u);
  EXPECT_EQ(a.epoch_fenced, 2u);
  EXPECT_EQ(a.master_crashes, 1u);
  EXPECT_EQ(a.master_restarts, 1u);
}

// Property test: a seeded random schedule of channel chaos (drop, duplicate
// and reorder probabilities), node and cell partitions and master crashes,
// while workers report finished shards to their master's ShardQueue over
// SendReliable and an expired report requeues its shard. The brain also
// sends reliable plans, so cell partitions have traffic to cut.
struct PropertyRun {
  ControlChannelStats stats;
  std::vector<ControlEvent> log;
};

PropertyRun RunChannelProperty(uint64_t seed) {
  constexpr int kWorkers = 4;
  constexpr int kPlans = 12;
  constexpr uint64_t kTotalBatches = 2000;
  constexpr Duration kBatchTime = Seconds(0.5);
  constexpr Duration kIdlePoll = Seconds(5);
  // Idle workers poll until the queue drains, so a shard that is never
  // requeued would keep the run going forever. Every seed drains well
  // within the first simulated hour.
  constexpr SimTime kHorizon = Hours(4);

  Rng rng(seed);
  ControlChannelOptions options = CleanOptions();
  options.seed = seed;
  options.drop_prob = rng.Uniform(0.0, 0.3);
  options.duplicate_prob = rng.Uniform(0.0, 0.3);
  options.reorder_prob = rng.Uniform(0.0, 0.3);
  options.retry_base = Seconds(0.5);
  options.retry_cap = Seconds(8);
  options.retry_deadline = Seconds(rng.Uniform(20.0, 90.0));

  Simulator sim;
  ControlChannel channel(&sim, options);
  RecordingMaster master;
  const int handle = channel.RegisterMaster(&master);
  ShardQueueOptions queue_options;
  queue_options.total_batches = kTotalBatches;
  queue_options.default_shard_batches = 32;
  ShardQueue queue(queue_options);

  // Per reliable send: copies delivered and on_expire calls.
  struct SendOutcome {
    int delivered = 0;
    int expired = 0;
  };
  std::vector<std::unique_ptr<SendOutcome>> sends;
  auto track = [&sends] {
    sends.push_back(std::make_unique<SendOutcome>());
    return sends.back().get();
  };
  std::vector<int> times_done(kTotalBatches, 0);

  // Each worker pulls a shard, works through it, reports it reliably and
  // pulls the next one without waiting for the ack.
  std::function<void(int)> work = [&](int worker) {
    auto shard = queue.NextShard();
    if (!shard.ok()) {
      if (!queue.AllDone()) {
        sim.ScheduleAfter(kIdlePoll, [&work, worker] { work(worker); });
      }
      return;
    }
    const DataShard s = *shard;
    const Duration busy = kBatchTime * static_cast<double>(s.batches());
    sim.ScheduleAfter(busy, [&, s, worker] {
      SendOutcome* out = track();
      channel.SendReliable(
          ControlMessageKind::kShardReport, worker, ControlChannel::kMaster,
          [&, s, out] {
            ++out->delivered;
            if (queue.ReportCompleted(s).ok()) {
              for (uint64_t b = s.start_batch; b < s.end_batch; ++b) {
                ++times_done[b];
              }
            }
          },
          [&, s, out] {
            ++out->expired;
            (void)queue.ReportFailed(s, 0);
          },
          handle);
      work(worker);
    });
  };
  for (int w = 0; w < kWorkers; ++w) work(w);

  for (int i = 0; i < kPlans; ++i) {
    sim.ScheduleAt(Seconds(rng.Uniform(0.0, 600.0)), [&] {
      SendOutcome* out = track();
      channel.SendReliable(
          ControlMessageKind::kPlan, ControlChannel::kBrain,
          ControlChannel::kMaster, [out] { ++out->delivered; },
          [out] { ++out->expired; }, handle);
    });
  }
  const int node_partitions = static_cast<int>(rng.UniformInt(int64_t{1}, 4));
  for (int i = 0; i < node_partitions; ++i) {
    const NodeId node = static_cast<NodeId>(rng.UniformInt(kWorkers));
    const Duration length = Seconds(rng.Uniform(10.0, 150.0));
    sim.ScheduleAt(Seconds(rng.Uniform(0.0, 400.0)),
                   [&channel, node, length] {
                     channel.PartitionNode(node, length);
                   });
  }
  const Duration cell_length = Seconds(rng.Uniform(10.0, 150.0));
  sim.ScheduleAt(Seconds(rng.Uniform(0.0, 400.0)), [&channel, cell_length] {
    channel.PartitionCell(cell_length);
  });
  const int crashes = static_cast<int>(rng.UniformInt(int64_t{0}, 2));
  for (int i = 0; i < crashes; ++i) {
    sim.ScheduleAt(Seconds(rng.Uniform(0.0, 400.0)),
                   [&channel] { channel.CrashMasterByOrdinal(0); });
  }

  while (sim.Now() < kHorizon && sim.Step()) {
    const Status invariants = queue.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants << " at t=" << sim.Now();
    if (!invariants.ok()) break;
  }

  EXPECT_TRUE(queue.AllDone());
  EXPECT_EQ(std::count(times_done.begin(), times_done.end(), 1),
            static_cast<std::ptrdiff_t>(kTotalBatches))
      << "every batch must be completed exactly once";
  for (size_t i = 0; i < sends.size(); ++i) {
    EXPECT_GE(sends[i]->delivered + sends[i]->expired, 1)
        << "reliable send " << i << " ended with no delivery and no expiry";
    EXPECT_LE(sends[i]->expired, 1) << "reliable send " << i;
  }
  return PropertyRun{channel.stats(), channel.log()};
}

class ControlChannelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControlChannelPropertyTest, ShardReportsCompleteExactlyOnce) {
  const PropertyRun first = RunChannelProperty(GetParam());
  const PropertyRun second = RunChannelProperty(GetParam());
  EXPECT_TRUE(first.stats == second.stats);
  EXPECT_TRUE(first.log == second.log);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlChannelPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dlrover
