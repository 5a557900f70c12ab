// Self-healing fleet suite (ctest label `resilience`): the evidence-based
// NodeHealthTracker state machine, cordon/drain semantics on the cluster
// substrate, make-before-break drain migration in the training job, and
// lane-count determinism of the fault/health audit logs on the sharded
// engine.

#include "cluster/node_health.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "master/job_master.h"
#include "ps/training_job.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

// ---------------------------------------------------------------------------
// Tracker unit tests: pure bookkeeping, driven by hand.
// ---------------------------------------------------------------------------

TEST(NodeHealthTrackerTest, CrashBurstCordonsThenHysteresisReleases) {
  NodeHealthTracker tracker(4);
  // Repeated mature-pod crashes (no churn bonus) on node 2: each is worth
  // kCrashWeight, so the score crosses suspect and then cordon within a few
  // 30-second ticks.
  SimTime now = 0.0;
  bool cordoned = false;
  for (int i = 0; i < 10 && !cordoned; ++i) {
    now += 30.0;
    tracker.ObservePodStopped(2, PodStopReason::kCrash, Minutes(10), now);
    for (const auto& action : tracker.Tick(now)) {
      EXPECT_EQ(action.node, 2u);
      EXPECT_TRUE(action.cordon);
      cordoned = true;
    }
  }
  ASSERT_TRUE(cordoned);
  EXPECT_EQ(tracker.state(2), NodeHealthState::kCordoned);
  EXPECT_EQ(tracker.cordons(), 1u);
  // The crash burst stops. The score decays below kClearThreshold well
  // before kMinCordon elapses; the cordon must hold regardless.
  const SimTime cordon_time = now;
  bool released = false;
  while (now < cordon_time + Hours(2) && !released) {
    now += 30.0;
    for (const auto& action : tracker.Tick(now)) {
      EXPECT_FALSE(action.cordon);
      released = true;
      EXPECT_GE(now - cordon_time, NodeHealthTracker::kMinCordon);
    }
  }
  ASSERT_TRUE(released);
  EXPECT_EQ(tracker.state(2), NodeHealthState::kHealthy);
  EXPECT_EQ(tracker.uncordons(), 1u);
  // The full transition history reads healthy -> ... -> cordoned -> healthy.
  ASSERT_FALSE(tracker.log().empty());
  EXPECT_EQ(tracker.log().front().from, NodeHealthState::kHealthy);
  EXPECT_EQ(tracker.log().back().to, NodeHealthState::kHealthy);
  // Untouched nodes never moved.
  EXPECT_EQ(tracker.state(0), NodeHealthState::kHealthy);
}

TEST(NodeHealthTrackerTest, IsolatedCrashDecaysWithoutCordon) {
  NodeHealthTracker tracker(2);
  // One young-pod crash (crash + churn weight) is the worst-looking single
  // event; it may make the node Suspect but must never cordon, and the
  // suspicion must decay back to Healthy on its own.
  tracker.ObservePodStopped(0, PodStopReason::kCrash, Seconds(30), 30.0);
  SimTime now = 30.0;
  for (int i = 0; i < 240; ++i) {
    now += 30.0;
    EXPECT_TRUE(tracker.Tick(now).empty());
  }
  EXPECT_EQ(tracker.state(0), NodeHealthState::kHealthy);
  EXPECT_EQ(tracker.cordons(), 0u);
}

TEST(NodeHealthTrackerTest, UnaccountedFloorCreepCordons) {
  NodeHealthTracker tracker(2);
  // The node's unaccounted memory share creeps at 1.5e-4 of capacity per
  // second — squarely inside the slope band. After kLeakStreak windows the
  // evidence stream starts and the node must cordon within the fault's
  // first half hour.
  const double rate = 1.5e-4;
  SimTime now = 0.0;
  double fraction = 0.01;
  bool cordoned = false;
  while (now < Minutes(30) && !cordoned) {
    now += 30.0;
    fraction += rate * 30.0;
    tracker.ObserveNodeMemory(0, fraction, now);
    for (const auto& action : tracker.Tick(now)) {
      EXPECT_TRUE(action.cordon);
      cordoned = true;
    }
  }
  EXPECT_TRUE(cordoned);
  EXPECT_EQ(tracker.state(0), NodeHealthState::kCordoned);
}

TEST(NodeHealthTrackerTest, StepJumpAndFlatSignalNeverFire) {
  NodeHealthTracker tracker(2);
  // A one-off step (reserved pool appearing) is far steeper than the band's
  // ceiling across the window it lands in, and flat before and after: the
  // streak must never build, so no evidence and no state change.
  SimTime now = 0.0;
  double fraction = 0.02;
  for (int i = 0; i < 120; ++i) {
    now += 30.0;
    if (i == 60) fraction += 0.2;  // the step
    tracker.ObserveNodeMemory(0, fraction, now);
    EXPECT_TRUE(tracker.Tick(now).empty());
  }
  EXPECT_EQ(tracker.state(0), NodeHealthState::kHealthy);
  EXPECT_EQ(tracker.score(0, now), 0.0);
}

TEST(NodeHealthTrackerTest, StragglerVerdictsNeedCorroboration) {
  // A single pod reported as a straggler every tick for an hour: weak
  // evidence that saturates between suspect and cordon — the node may turn
  // Suspect but is never cordoned on one pod's word.
  NodeHealthTracker lone(2);
  SimTime now = 0.0;
  for (int i = 0; i < 120; ++i) {
    now += 30.0;
    lone.ObserveStraggler(0, /*source=*/7, now);
    EXPECT_TRUE(lone.Tick(now).empty());
  }
  EXPECT_EQ(lone.cordons(), 0u);
  EXPECT_EQ(lone.state(0), NodeHealthState::kSuspect);

  // Two distinct slow pods on one node corroborate each other — the
  // node-level signature — and the tracker cordons within minutes.
  NodeHealthTracker pair(2);
  now = 0.0;
  bool cordoned = false;
  for (int i = 0; i < 120 && !cordoned; ++i) {
    now += 30.0;
    pair.ObserveStraggler(0, 7, now);
    pair.ObserveStraggler(0, 9, now);
    cordoned = !pair.Tick(now).empty();
  }
  EXPECT_TRUE(cordoned);
  EXPECT_LE(now, Minutes(10));
}

TEST(NodeHealthTrackerTest, OneJobsPsSlowdownNeedsAnotherSource) {
  // One job charges every node hosting its PSes each tick for an hour; it
  // cannot say which one is slow, so alone it never cordons any of them.
  NodeHealthTracker lone(3);
  SimTime now = 0.0;
  for (int i = 0; i < 120; ++i) {
    now += 30.0;
    for (NodeId node = 0; node < 3; ++node) {
      lone.ObservePsSlowdown(node, /*source=*/42, now);
    }
    EXPECT_TRUE(lone.Tick(now).empty());
  }
  EXPECT_EQ(lone.cordons(), 0u);
  EXPECT_EQ(lone.state(0), NodeHealthState::kSuspect);

  // The same verdict plus a second source on node 1 (one slow resident pod,
  // itself too weak to cordon) cordons node 1 and only node 1.
  NodeHealthTracker backed(3);
  now = 0.0;
  std::vector<NodeId> cordoned;
  for (int i = 0; i < 120 && cordoned.empty(); ++i) {
    now += 30.0;
    for (NodeId node = 0; node < 3; ++node) {
      backed.ObservePsSlowdown(node, 42, now);
    }
    backed.ObserveStraggler(1, /*source=*/7, now);
    for (const auto& action : backed.Tick(now)) cordoned.push_back(action.node);
  }
  EXPECT_EQ(cordoned, std::vector<NodeId>{1});

  // Two jobs corroborating one node cordon it within minutes.
  NodeHealthTracker pair(1);
  now = 0.0;
  bool pair_cordoned = false;
  for (int i = 0; i < 120 && !pair_cordoned; ++i) {
    now += 30.0;
    pair.ObservePsSlowdown(0, 42, now);
    pair.ObservePsSlowdown(0, 43, now);
    pair_cordoned = !pair.Tick(now).empty();
  }
  EXPECT_TRUE(pair_cordoned);
  EXPECT_LE(now, Minutes(10));
}

// ---------------------------------------------------------------------------
// Cluster integration: cordon/drain semantics on the substrate.
// ---------------------------------------------------------------------------

ClusterOptions TwoNodeCluster() {
  ClusterOptions options;
  options.num_nodes = 2;
  options.node_capacity = {16.0, GiB(64)};
  options.min_pod_startup = Seconds(10);
  options.max_pod_startup = Seconds(10);
  options.validate_placement_index = true;
  return options;
}

PodSpec BigPod(const std::string& name) {
  PodSpec spec;
  spec.name = name;
  spec.request = {10.0, GiB(32)};
  spec.priority = PriorityClass::kTraining;
  return spec;
}

TEST(ClusterCordonTest, CordonExcludesFromPlacementPodsKeepRunning) {
  Simulator sim;
  Cluster cluster(&sim, TwoNodeCluster());
  // One big pod lands on each node.
  const PodId a = cluster.CreatePod(BigPod("a"), nullptr, nullptr);
  const PodId b = cluster.CreatePod(BigPod("b"), nullptr, nullptr);
  sim.RunUntil(Seconds(20));
  ASSERT_EQ(cluster.GetPod(a)->phase, PodPhase::kRunning);
  ASSERT_EQ(cluster.GetPod(b)->phase, PodPhase::kRunning);
  const NodeId node_a = cluster.GetPod(a)->node;

  cluster.CordonNode(node_a);
  EXPECT_TRUE(cluster.IsCordoned(node_a));
  EXPECT_EQ(cluster.counters().nodes_cordoned, 1u);
  // The resident pod keeps running — cordon is a fence, not an eviction.
  EXPECT_EQ(cluster.GetPod(a)->phase, PodPhase::kRunning);
  // Cordoned capacity is visible to the blacklist surface.
  EXPECT_DOUBLE_EQ(cluster.CordonedCapacity().cpu, 16.0);
  EXPECT_GE(cluster.QuarantinedCapacity().cpu, 16.0);

  // A third big pod cannot fit: the other node is full and the cordoned
  // node is excluded from placement, so it must sit pending even though the
  // cordoned node nominally has room for nothing — and even after killing
  // pod `a`, which frees plenty of capacity on the cordoned node.
  cluster.KillPod(a);
  const PodId c = cluster.CreatePod(BigPod("c"), nullptr, nullptr);
  sim.RunUntil(Seconds(120));
  EXPECT_EQ(cluster.GetPod(c)->phase, PodPhase::kPending);

  // Lifting the cordon pumps the pending queue: the pod lands on node_a.
  cluster.UncordonNode(node_a);
  EXPECT_EQ(cluster.counters().nodes_uncordoned, 1u);
  sim.RunUntil(sim.Now() + Seconds(60));
  EXPECT_EQ(cluster.GetPod(c)->phase, PodPhase::kRunning);
  EXPECT_EQ(cluster.GetPod(c)->node, node_a);
  EXPECT_DOUBLE_EQ(cluster.CordonedCapacity().cpu, 0.0);
}

TEST(ClusterCordonTest, EvidenceDrivesCordonThroughControlPlane) {
  Simulator sim;
  ClusterOptions options = TwoNodeCluster();
  options.enable_node_health = true;
  Cluster cluster(&sim, options);
  ASSERT_TRUE(cluster.node_health_enabled());

  // Kill young pods on one node repeatedly: crash + churn evidence per
  // kill. The periodic health tick must classify the node and cordon it
  // without any manual CordonNode call.
  PodSpec spec;
  spec.name = "victim";
  spec.request = {2.0, GiB(4)};
  spec.priority = PriorityClass::kTraining;
  NodeId target = 0;
  for (int i = 0; i < 4; ++i) {
    const PodId id = cluster.CreatePod(spec, nullptr, nullptr);
    sim.RunUntil(sim.Now() + Seconds(15));
    if (cluster.GetPod(id)->phase != PodPhase::kRunning) break;
    target = cluster.GetPod(id)->node;
    if (cluster.IsCordoned(target)) break;
    cluster.FailPod(id, PodStopReason::kCrash);
    sim.RunUntil(sim.Now() + Seconds(45));  // let a health tick land
  }
  EXPECT_GE(cluster.counters().nodes_cordoned, 1u);
  ASSERT_NE(cluster.health(), nullptr);
  EXPECT_FALSE(cluster.health()->log().empty());
}

// ---------------------------------------------------------------------------
// Make-before-break drain migration in the training job.
// ---------------------------------------------------------------------------

JobSpec DrainSpec(uint64_t steps = 60000) {
  JobSpec spec;
  spec.name = "drain-job";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = steps;
  return spec;
}

JobConfig DrainConfig() {
  JobConfig config;
  config.num_workers = 6;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);
  return config;
}

int WorkerPodsOnNode(const Cluster& cluster, NodeId node) {
  int count = 0;
  cluster.VisitPods([&](const Pod& pod) {
    if (!pod.terminal() && pod.node == node &&
        pod.spec.name.find("worker") != std::string::npos) {
      ++count;
    }
  });
  return count;
}

TEST(DrainMigrationTest, WorkersEvacuateMakeBeforeBreak) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  cluster_options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, cluster_options);
  TrainingJob job(&sim, &cluster, DrainSpec(), DrainConfig());
  JobMaster master(&sim, &job);  // every master tick runs the drain pass
  job.Start();
  master.Start();
  sim.RunUntil(Minutes(10));
  ASSERT_EQ(job.state(), JobState::kRunning);

  // Drain the node hosting the most workers.
  NodeId victim = 0;
  int most = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    const int count = WorkerPodsOnNode(cluster, static_cast<NodeId>(n));
    if (count > most) {
      most = count;
      victim = static_cast<NodeId>(n);
    }
  }
  ASSERT_GT(most, 0);
  const uint64_t batches_before = job.batches_done();
  cluster.DrainNode(victim);

  // Make-before-break: replacements reach Running before victims stop, so
  // the active worker count never dips below the configured size while the
  // drain is in flight.
  const int configured = DrainConfig().num_workers;
  bool undershoot = false;
  for (int i = 0; i < 60; ++i) {
    sim.RunUntil(sim.Now() + Seconds(30));
    int running = 0;
    cluster.VisitPods([&](const Pod& pod) {
      if (pod.phase == PodPhase::kRunning &&
          pod.spec.name.find("worker") != std::string::npos) {
        ++running;
      }
    });
    if (job.state() == JobState::kRunning && running < configured) {
      undershoot = true;
    }
  }
  EXPECT_FALSE(undershoot);
  EXPECT_EQ(WorkerPodsOnNode(cluster, victim), 0);
  EXPECT_GE(job.stats().drain_migrations, most);
  EXPECT_EQ(job.stats().drain_fallbacks, 0);
  EXPECT_GT(job.batches_done(), batches_before);
}

TEST(DrainMigrationTest, ScarcityFallsBackToStopAndRestart) {
  Simulator sim;
  // Two nodes sized so the job fills both: a drained worker's replacement
  // has nowhere to stage, so make-before-break must give up and take the
  // stop-and-restart path instead of wedging.
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 2;
  cluster_options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, cluster_options);
  JobConfig config;
  config.num_workers = 6;
  config.num_ps = 1;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(16);
  config.ps_memory = GiB(48);
  TrainingJob job(&sim, &cluster, DrainSpec(120000), config);
  JobMaster master(&sim, &job);
  job.Start();
  master.Start();
  sim.RunUntil(Minutes(10));
  ASSERT_EQ(job.state(), JobState::kRunning);

  // Drain the node hosting workers (avoid the PS node: a draining PS takes
  // the whole-deployment migration path instead).
  const Pod* ps_pod = nullptr;
  cluster.VisitPods([&](const Pod& pod) {
    if (!pod.terminal() && pod.spec.name.find("ps") != std::string::npos &&
        (ps_pod == nullptr || pod.creation_seq > ps_pod->creation_seq)) {
      ps_pod = &pod;  // the newest live PS
    }
  });
  NodeId victim = 0;
  int most = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (ps_pod != nullptr && ps_pod->node == node) continue;
    const int count = WorkerPodsOnNode(cluster, node);
    if (count > most) {
      most = count;
      victim = node;
    }
  }
  ASSERT_GT(most, 0);
  cluster.DrainNode(victim);
  sim.RunUntil(sim.Now() + Hours(1));
  EXPECT_GE(job.stats().drain_fallbacks, 1);
  EXPECT_NE(job.state(), JobState::kFailed);
}

// ---------------------------------------------------------------------------
// Audit-log determinism on the sharded engine (same seed, any lane count).
// ---------------------------------------------------------------------------

FleetScenario GreyFaultScenario() {
  FleetScenario scenario;
  scenario.seed = 91;
  scenario.workload.num_jobs = 10;
  scenario.workload.arrival_span = Hours(2);
  scenario.workload.seed = 17;
  scenario.cluster.num_nodes = 24;
  scenario.cluster.enable_node_health = true;
  scenario.horizon = Hours(6);
  scenario.enable_background = false;
  scenario.failures.daily_pod_failure_rate = 0.3;
  scenario.failures.daily_straggler_rate = 0.05;
  scenario.failures.daily_node_flaky_rate = 2.0;
  scenario.failures.daily_node_degraded_rate = 2.0;
  scenario.failures.daily_node_leak_rate = 2.0;
  scenario.failures.daily_node_crashloop_rate = 2.0;
  return scenario;
}

TEST(ResilienceDeterminismTest, AuditLogsIdenticalAcrossLaneCounts) {
  const FleetScenario scenario = GreyFaultScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  // The campaign must actually exercise the machinery for the parity to
  // mean anything.
  EXPECT_GT(one_lane.fleet.node_faults_injected, 0u);
  EXPECT_GT(one_lane.fleet.nodes_cordoned, 0u);
  ASSERT_FALSE(one_lane.fleet.fault_log.empty());
  ASSERT_FALSE(one_lane.fleet.health_log.empty());

  for (int lanes : {2, 0}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    options.shards = lanes;
    const ShardedFleetResult multi = RunFleetSharded(scenario, options);
    // The ground-truth fault audit log and the health transition log are
    // part of the deterministic result: byte-identical at any lane count.
    ASSERT_EQ(multi.fleet.fault_log.size(), one_lane.fleet.fault_log.size());
    for (size_t i = 0; i < one_lane.fleet.fault_log.size(); ++i) {
      EXPECT_TRUE(multi.fleet.fault_log[i] == one_lane.fleet.fault_log[i])
          << "fault record " << i << " diverges";
    }
    ASSERT_EQ(multi.fleet.health_log.size(),
              one_lane.fleet.health_log.size());
    for (size_t i = 0; i < one_lane.fleet.health_log.size(); ++i) {
      EXPECT_TRUE(multi.fleet.health_log[i] == one_lane.fleet.health_log[i])
          << "health event " << i << " diverges";
    }
    EXPECT_EQ(multi.fleet.nodes_cordoned, one_lane.fleet.nodes_cordoned);
    EXPECT_EQ(multi.fleet.nodes_uncordoned, one_lane.fleet.nodes_uncordoned);
    ASSERT_EQ(multi.fleet.jobs.size(), one_lane.fleet.jobs.size());
    for (size_t i = 0; i < one_lane.fleet.jobs.size(); ++i) {
      EXPECT_EQ(multi.fleet.jobs[i].batches_done,
                one_lane.fleet.jobs[i].batches_done);
      EXPECT_EQ(multi.fleet.jobs[i].stats.drain_migrations,
                one_lane.fleet.jobs[i].stats.drain_migrations);
    }
  }
}

}  // namespace
}  // namespace dlrover
