#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/background_load.h"
#include "cluster/failure_injector.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

ClusterOptions TinyCluster(int nodes = 2, Cores cpu = 16.0) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.node_capacity = {cpu, GiB(64)};
  options.min_pod_startup = Seconds(10);
  options.max_pod_startup = Seconds(10);
  return options;
}

PodSpec TrainingPod(Cores cpu, Bytes mem = GiB(8)) {
  PodSpec spec;
  spec.name = "train";
  spec.request = {cpu, mem};
  spec.priority = PriorityClass::kTraining;
  return spec;
}

TEST(ClusterTest, PodLifecycleRuns) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster());
  bool running = false;
  bool stopped = false;
  const PodId id = cluster.CreatePod(
      TrainingPod(4.0), [&](Pod&) { running = true; },
      [&](Pod&, PodStopReason reason) {
        stopped = true;
        EXPECT_EQ(reason, PodStopReason::kOwnerKill);
      });
  EXPECT_EQ(cluster.GetPod(id)->phase, PodPhase::kStarting);
  sim.RunUntil(Seconds(20));
  EXPECT_TRUE(running);
  EXPECT_EQ(cluster.GetPod(id)->phase, PodPhase::kRunning);
  cluster.KillPod(id);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(cluster.GetPod(id)->phase, PodPhase::kKilled);
}

TEST(ClusterTest, CapacityNeverExceeded) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(2, 16.0));
  for (int i = 0; i < 10; ++i) {
    cluster.CreatePod(TrainingPod(6.0), nullptr, nullptr);
    for (size_t n = 0; n < cluster.num_nodes(); ++n) {
      const Node& node = cluster.GetNode(static_cast<NodeId>(n));
      EXPECT_LE(node.allocated.cpu, node.capacity.cpu + 1e-9);
      EXPECT_LE(node.allocated.memory, node.capacity.memory + 1e-9);
    }
  }
  // 2 nodes x 16 cores / 6 cores = 2 per node -> 4 placed, 6 pending.
  EXPECT_EQ(cluster.PendingCount(), 6u);
}

TEST(ClusterTest, PendingPodPlacesWhenCapacityFrees) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const PodId a = cluster.CreatePod(TrainingPod(10.0), nullptr, nullptr);
  const PodId b = cluster.CreatePod(TrainingPod(10.0), nullptr, nullptr);
  EXPECT_EQ(cluster.GetPod(b)->phase, PodPhase::kPending);
  cluster.KillPod(a);
  EXPECT_EQ(cluster.GetPod(b)->phase, PodPhase::kStarting);
}

TEST(ClusterTest, HigherPriorityPreemptsLower) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  PodStopReason reason = PodStopReason::kCompleted;
  const PodId victim = cluster.CreatePod(
      TrainingPod(12.0), nullptr,
      [&](Pod&, PodStopReason r) { reason = r; });
  sim.RunUntil(Seconds(20));
  ASSERT_EQ(cluster.GetPod(victim)->phase, PodPhase::kRunning);

  PodSpec online = TrainingPod(12.0);
  online.priority = PriorityClass::kOnline;
  const PodId high = cluster.CreatePod(std::move(online), nullptr, nullptr);
  EXPECT_EQ(cluster.GetPod(victim)->phase, PodPhase::kPreempted);
  EXPECT_EQ(reason, PodStopReason::kPreemption);
  EXPECT_NE(cluster.GetPod(high)->phase, PodPhase::kPending);
  EXPECT_EQ(cluster.counters().pods_preempted, 1u);
}

TEST(ClusterTest, EqualPriorityNeverPreempts) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const PodId a = cluster.CreatePod(TrainingPod(12.0), nullptr, nullptr);
  const PodId b = cluster.CreatePod(TrainingPod(12.0), nullptr, nullptr);
  EXPECT_NE(cluster.GetPod(a)->phase, PodPhase::kPreempted);
  EXPECT_EQ(cluster.GetPod(b)->phase, PodPhase::kPending);
}

TEST(ClusterTest, PendingQueueServesHigherPriorityFirst) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const PodId hog = cluster.CreatePod(TrainingPod(16.0), nullptr, nullptr);
  const PodId low = cluster.CreatePod(TrainingPod(16.0), nullptr, nullptr);
  PodSpec stream = TrainingPod(16.0);
  stream.priority = PriorityClass::kStream;
  const PodId mid = cluster.CreatePod(std::move(stream), nullptr, nullptr);
  // Stream preempts the training hog immediately.
  EXPECT_EQ(cluster.GetPod(hog)->phase, PodPhase::kPreempted);
  EXPECT_NE(cluster.GetPod(mid)->phase, PodPhase::kPending);
  EXPECT_EQ(cluster.GetPod(low)->phase, PodPhase::kPending);
}

TEST(ClusterTest, UsageAggregation) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const PodId id = cluster.CreatePod(TrainingPod(8.0), nullptr, nullptr);
  sim.RunUntil(Seconds(20));
  cluster.ReportUsage(id, {4.0, GiB(4)});
  const ClusterUsage usage = cluster.Usage();
  EXPECT_DOUBLE_EQ(usage.cpu_allocated_fraction, 0.5);
  EXPECT_DOUBLE_EQ(usage.cpu_used_fraction, 0.25);
  EXPECT_DOUBLE_EQ(usage.cpu_used_of_allocated, 0.5);
}

TEST(ClusterTest, ScarcityDetection) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  EXPECT_FALSE(cluster.UnderScarcity());
  cluster.CreatePod(TrainingPod(15.0), nullptr, nullptr);
  EXPECT_TRUE(cluster.UnderScarcity());
}

TEST(ClusterTest, VisitPodsSeesEverything) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster());
  for (int i = 0; i < 5; ++i) {
    cluster.CreatePod(TrainingPod(2.0), nullptr, nullptr);
  }
  int count = 0;
  cluster.VisitPods([&](const Pod&) { ++count; });
  EXPECT_EQ(count, 5);
}

// A terminated pod stays resolvable (for post-mortem inspection) until its
// slab slot is re-armed by a new pod; from then on the old id is stale and
// every lookup or kill through it must be a safe no-op.
TEST(ClusterTest, StalePodIdIsNullAfterSlotReuse) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const PodId dead = cluster.CreatePod(TrainingPod(4.0), nullptr, nullptr);
  cluster.KillPod(dead);
  ASSERT_NE(cluster.GetPod(dead), nullptr);
  EXPECT_EQ(cluster.GetPod(dead)->phase, PodPhase::kKilled);

  // Reuses the freed slot with a bumped generation.
  const PodId fresh = cluster.CreatePod(TrainingPod(4.0), nullptr, nullptr);
  EXPECT_NE(fresh, dead);
  EXPECT_EQ(cluster.GetPod(dead), nullptr);
  ASSERT_NE(cluster.GetPod(fresh), nullptr);
  EXPECT_EQ(cluster.GetPod(fresh)->id, fresh);

  // Operations through the stale id must not touch the new tenant.
  cluster.KillPod(dead);
  cluster.FailPod(dead, PodStopReason::kCrash);
  EXPECT_EQ(cluster.GetPod(fresh)->phase, PodPhase::kStarting);
}

// CreatePod re-arms a freed slot's Pod in place. An on_running callback
// that kills its own pod and creates another (which takes the freed slot)
// must still run on its own closure. The payload makes the closure too big
// for std::function's inline buffer, so a replaced closure would be freed
// while it runs (AddressSanitizer reports the read below).
TEST(ClusterTest, RunningCallbackOutlivesReArmOfItsSlot) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  const std::array<int, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  int sum = 0;
  PodId successor = 0;
  const PodId first = cluster.CreatePod(
      TrainingPod(4.0),
      [&cluster, &sum, &successor, payload](Pod& pod) {
        cluster.KillPod(pod.id);
        successor = cluster.CreatePod(TrainingPod(4.0), nullptr, nullptr);
        for (int v : payload) sum += v;
      },
      nullptr);
  sim.RunUntil(Minutes(5));
  EXPECT_EQ(sum, 36);
  EXPECT_EQ(cluster.GetPod(first), nullptr);  // its slot went to successor
  ASSERT_NE(cluster.GetPod(successor), nullptr);
  EXPECT_EQ(cluster.GetPod(successor)->phase, PodPhase::kRunning);
}

// A victim's stop callback may kill the pod that preempts it and create
// another pod, which re-arms the preemptor's slot. The dead preemptor must
// not be placed after the eviction, and the new tenant is placed once.
TEST(ClusterTest, PreemptorKilledByItsVictimIsNotPlaced) {
  Simulator sim;
  ClusterOptions options = TinyCluster(1, 16.0);
  options.validate_placement_index = true;
  Cluster cluster(&sim, options);
  PodSpec low = TrainingPod(12.0);
  low.priority = PriorityClass::kBestEffort;
  PodId replacement = 0;
  cluster.CreatePod(std::move(low), nullptr, [&](Pod&, PodStopReason) {
    PodId preemptor = 0;
    cluster.VisitPods([&](const Pod& pod) {
      if (pod.phase == PodPhase::kPending) preemptor = pod.id;
    });
    cluster.KillPod(preemptor);
    replacement = cluster.CreatePod(TrainingPod(4.0), nullptr, nullptr);
  });
  sim.RunUntil(Minutes(1));
  const PodId high = cluster.CreatePod(TrainingPod(8.0), nullptr, nullptr);
  EXPECT_EQ(cluster.GetPod(high), nullptr);  // its slot went to replacement
  EXPECT_DOUBLE_EQ(cluster.GetNode(0).allocated.cpu, 4.0);
  EXPECT_EQ(cluster.GetNode(0).pods, std::vector<PodId>{replacement});
  EXPECT_EQ(cluster.PendingCount(), 0u);
  sim.RunUntil(Minutes(5));
  EXPECT_EQ(cluster.GetPod(replacement)->phase, PodPhase::kRunning);
  EXPECT_DOUBLE_EQ(cluster.TotalAllocated().cpu, 4.0);
}

// VisitRunningPods iterates in creation order regardless of slot recycling
// (recycled slots make it differ from slot order here); the failure injector
// draws one Bernoulli per visited pod, so this order is part of the
// deterministic-output contract.
TEST(ClusterTest, VisitRunningPodsKeepsCreationOrderAcrossSlotReuse) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(2, 16.0));
  std::vector<PodId> created;
  for (int i = 0; i < 4; ++i) {
    created.push_back(cluster.CreatePod(TrainingPod(2.0), nullptr, nullptr));
  }
  sim.RunUntil(Minutes(5));
  cluster.KillPod(created[1]);
  cluster.KillPod(created[2]);
  for (int i = 0; i < 3; ++i) {
    created.push_back(cluster.CreatePod(TrainingPod(2.0), nullptr, nullptr));
  }
  sim.RunUntil(Minutes(10));
  created.erase(created.begin() + 1, created.begin() + 3);
  std::vector<PodId> visited;
  cluster.VisitRunningPods(PriorityClass::kTraining,
                           [&](const Pod& pod) { visited.push_back(pod.id); });
  EXPECT_EQ(visited, created);
  std::vector<PodId> slab;
  cluster.VisitPods([&](const Pod& pod) { slab.push_back(pod.id); });
  EXPECT_NE(slab, visited);
}

// Regression: a cluster with no nodes (a fleet cell gets none when there
// are more cells than nodes) has zero capacity; UnderScarcity must report
// false instead of dividing by zero.
TEST(ClusterTest, UnderScarcityFalseOnZeroCapacity) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(0, 16.0));
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu, 0.0);
  EXPECT_FALSE(cluster.UnderScarcity());
  const PodId id = cluster.CreatePod(TrainingPod(15.0), nullptr, nullptr);
  EXPECT_EQ(cluster.GetPod(id)->phase, PodPhase::kPending);
  EXPECT_FALSE(cluster.UnderScarcity());
}

// Reference totals recomputed from scratch: every node's capacity and
// allocation (cordoned nodes included), and the usage of running pods.
struct ScannedTotals {
  ResourceSpec capacity;
  ResourceSpec allocated;
  ResourceSpec usage;
};

ScannedTotals ScanTotals(const Cluster& cluster) {
  ScannedTotals totals;
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    const Node& node = cluster.GetNode(static_cast<NodeId>(i));
    totals.capacity += node.capacity;
    totals.allocated += node.allocated;
  }
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kRunning) totals.usage += pod.usage;
  });
  return totals;
}

void ExpectTotalsMatchScan(const Cluster& cluster, const char* step) {
  SCOPED_TRACE(step);
  const ScannedTotals scan = ScanTotals(cluster);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu, scan.capacity.cpu);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().memory, scan.capacity.memory);
  EXPECT_DOUBLE_EQ(cluster.TotalAllocated().cpu, scan.allocated.cpu);
  EXPECT_DOUBLE_EQ(cluster.TotalAllocated().memory, scan.allocated.memory);
  EXPECT_DOUBLE_EQ(cluster.TotalUsage().cpu, scan.usage.cpu);
  EXPECT_DOUBLE_EQ(cluster.TotalUsage().memory, scan.usage.memory);
}

// The running totals must agree with a fresh scan of nodes and pods at
// every point of the pod lifecycle and of the node lifecycle: cordon,
// placement around cordoned nodes and uncordon.
TEST(ClusterTest, IncrementalAccountingMatchesScan) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(3, 16.0));
  std::vector<PodId> pods;
  for (int i = 0; i < 5; ++i) {
    pods.push_back(cluster.CreatePod(TrainingPod(6.0), nullptr, nullptr));
  }
  ExpectTotalsMatchScan(cluster, "created");
  sim.RunUntil(Seconds(20));
  for (size_t i = 0; i < pods.size(); ++i) {
    const double share = static_cast<double>(i + 1);
    cluster.ReportUsage(pods[i], {share, GiB(share)});
  }
  ExpectTotalsMatchScan(cluster, "usage");

  cluster.KillPod(pods[1]);
  ExpectTotalsMatchScan(cluster, "kill");

  cluster.CordonNode(1);
  ExpectTotalsMatchScan(cluster, "cordon");
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu, 48.0);

  cluster.CordonNode(0);
  ExpectTotalsMatchScan(cluster, "cordon second");
  cluster.CordonNode(0);
  ExpectTotalsMatchScan(cluster, "cordon again");

  // Replacements queue up: only node 2 is uncordoned.
  for (int i = 0; i < 3; ++i) {
    pods.push_back(cluster.CreatePod(TrainingPod(6.0), nullptr, nullptr));
  }
  ExpectTotalsMatchScan(cluster, "pending");
  EXPECT_GT(cluster.PendingCount(), 0u);

  cluster.UncordonNode(0);
  cluster.UncordonNode(1);
  ExpectTotalsMatchScan(cluster, "uncordon");
  sim.RunUntil(Seconds(60));
  for (PodId id : pods) cluster.ReportUsage(id, {2.5, GiB(2)});
  ExpectTotalsMatchScan(cluster, "usage after uncordon");
  EXPECT_GT(cluster.TotalUsage().cpu, 0.0);
}

// Regression: killing pods from inside a preemption-victim callback must
// not corrupt the pending queue (this used to be a use-after-free).
TEST(ClusterTest, ReentrantKillDuringPreemptionIsSafe) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(1, 16.0));
  std::vector<PodId> my_pods;
  const PodId a = cluster.CreatePod(
      TrainingPod(8.0), nullptr, [&](Pod&, PodStopReason reason) {
        if (reason == PodStopReason::kPreemption) {
          // Tear down our other pods and submit replacements, like a job
          // restart would.
          for (PodId id : my_pods) cluster.KillPod(id);
          cluster.CreatePod(TrainingPod(8.0), nullptr, nullptr);
          cluster.CreatePod(TrainingPod(8.0), nullptr, nullptr);
        }
      });
  const PodId b = cluster.CreatePod(TrainingPod(8.0), nullptr, nullptr);
  my_pods = {a, b};
  sim.RunUntil(Seconds(20));

  PodSpec online = TrainingPod(16.0);
  online.priority = PriorityClass::kOnline;
  cluster.CreatePod(std::move(online), nullptr, nullptr);
  sim.RunUntil(Minutes(2));  // must not crash
  EXPECT_GE(cluster.counters().pods_preempted, 1u);
}

TEST(ClusterTest, PreemptionBudgetBreaksRelaunchLivelock) {
  // A victim whose stop callback synchronously resubmits an identical pod
  // steals the freed capacity before the preemptor can claim it. With no
  // relaunch backoff that cycle never leaves the current instant; the
  // per-instant preemption budget must cut it off so the simulation keeps
  // advancing (the preemptor waits in the pending queue instead).
  Simulator sim;
  ClusterOptions options = TinyCluster(1, 16.0);
  options.max_preemptions_per_instant = 64;
  Cluster cluster(&sim, options);
  auto respawn =
      std::make_shared<std::function<void(Pod&, PodStopReason)>>();
  *respawn = [&cluster, respawn](Pod&, PodStopReason reason) {
    if (reason == PodStopReason::kPreemption) {
      cluster.CreatePod(TrainingPod(16.0), nullptr, *respawn);
    }
  };
  cluster.CreatePod(TrainingPod(16.0), nullptr, *respawn);

  PodSpec online = TrainingPod(16.0);
  online.priority = PriorityClass::kOnline;
  const PodId svc = cluster.CreatePod(std::move(online), nullptr, nullptr);

  // Each cycle evicts exactly one victim, so the storm stops right at the
  // budget; the service pod is parked pending and the clock can advance.
  EXPECT_EQ(cluster.counters().pods_preempted, 64u);
  EXPECT_EQ(cluster.GetPod(svc)->phase, PodPhase::kPending);

  // A later instant (the periodic reschedule pump) opens a fresh budget —
  // still bounded, still terminating.
  sim.RunUntil(Seconds(16));
  EXPECT_EQ(cluster.counters().pods_preempted, 128u);
  *respawn = nullptr;  // the closure holds `respawn`: break the cycle
}

TEST(FailureInjectorTest, InjectsCrashesAtConfiguredRate) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(20, 32.0));
  for (int i = 0; i < 40; ++i) {
    cluster.CreatePod(TrainingPod(4.0, GiB(2)), nullptr, nullptr);
  }
  FailureInjectorOptions options;
  options.daily_pod_failure_rate = 0.5;  // aggressive for test speed
  options.daily_straggler_rate = 0.5;
  FailureInjector injector(&sim, &cluster, options);
  injector.Start();
  sim.RunUntil(Days(1));
  // Expect roughly 40 * 0.5 = 20 crashes; accept a wide band.
  EXPECT_GT(injector.crashes_injected(), 5u);
  EXPECT_LT(injector.crashes_injected(), 40u);
  EXPECT_GT(injector.stragglers_injected(), 2u);
}

TEST(FailureInjectorTest, OnlyTargetsConfiguredPriority) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(4, 32.0));
  PodSpec online = TrainingPod(4.0, GiB(2));
  online.priority = PriorityClass::kOnline;
  for (int i = 0; i < 10; ++i) {
    PodSpec copy = online;
    cluster.CreatePod(std::move(copy), nullptr, nullptr);
  }
  FailureInjectorOptions options;
  options.daily_pod_failure_rate = 1.0;
  FailureInjector injector(&sim, &cluster, options);
  injector.Start();
  sim.RunUntil(Days(2));
  EXPECT_EQ(injector.crashes_injected(), 0u);
}

TEST(BackgroundLoadTest, TracksDiurnalTarget) {
  Simulator sim;
  Cluster cluster(&sim, TinyCluster(20, 32.0));
  BackgroundLoadOptions options;
  options.base_fraction = 0.2;
  options.peak_fraction = 0.2;
  BackgroundLoad load(&sim, &cluster, options);
  load.Start();
  sim.RunUntil(Hours(1));
  const size_t at_base = load.ActivePods();
  sim.RunUntil(Hours(6));  // sin peak at 1/4 period
  const size_t at_peak = load.ActivePods();
  EXPECT_GT(at_peak, at_base);
  load.Stop();
  EXPECT_EQ(load.ActivePods(), 0u);
}

}  // namespace
}  // namespace dlrover
