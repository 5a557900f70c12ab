// Property tests: the cluster substrate's bookkeeping must survive
// arbitrary interleavings of pod creation, kills, failures, preemptions and
// node cordons. Each seed drives a random operation script and the
// invariants are checked after every step.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fnv1a.h"
#include "ps/training_job.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

class ClusterChaosTest : public ::testing::TestWithParam<uint64_t> {};

void CheckInvariants(const Cluster& cluster) {
  // (1) No node over-committed; (2) allocated equals the sum of placed pod
  // requests; (3) every placed pod's node lists it exactly once.
  std::map<NodeId, ResourceSpec> per_node;
  std::map<NodeId, int> placed_count;
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kStarting || pod.phase == PodPhase::kRunning) {
      per_node[pod.node] += pod.spec.request;
      ++placed_count[pod.node];
    }
  });
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    const Node& node = cluster.GetNode(static_cast<NodeId>(n));
    ASSERT_LE(node.allocated.cpu, node.capacity.cpu + 1e-6);
    ASSERT_LE(node.allocated.memory, node.capacity.memory + 1e-3);
    ASSERT_GE(node.allocated.cpu, -1e-6);
    const ResourceSpec expected = per_node[node.id];
    ASSERT_NEAR(node.allocated.cpu, expected.cpu, 1e-6);
    ASSERT_NEAR(node.allocated.memory, expected.memory, 1.0);
    ASSERT_EQ(static_cast<int>(node.pods.size()), placed_count[node.id]);
  }
}

TEST_P(ClusterChaosTest, BookkeepingSurvivesRandomOperations) {
  Rng rng(GetParam());
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 6;
  options.node_capacity = {16.0, GiB(64)};
  options.seed = GetParam() * 3 + 1;
  Cluster cluster(&sim, options);

  std::vector<PodId> pods;
  int stop_callbacks = 0;
  for (int step = 0; step < 400; ++step) {
    const double dice = rng.Uniform();
    if (dice < 0.40) {
      PodSpec spec;
      spec.name = "chaos";
      spec.request = {rng.Uniform(1.0, 8.0), GiB(rng.Uniform(1.0, 16.0))};
      const double cls = rng.Uniform();
      spec.priority = cls < 0.6   ? PriorityClass::kTraining
                      : cls < 0.85 ? PriorityClass::kStream
                                   : PriorityClass::kOnline;
      pods.push_back(cluster.CreatePod(
          std::move(spec), nullptr,
          [&](Pod&, PodStopReason) { ++stop_callbacks; }));
    } else if (dice < 0.60 && !pods.empty()) {
      cluster.KillPod(pods[rng.UniformInt(pods.size())]);
    } else if (dice < 0.75 && !pods.empty()) {
      cluster.FailPod(pods[rng.UniformInt(pods.size())],
                      PodStopReason::kCrash);
    } else if (dice < 0.80) {
      const NodeId node = static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(options.num_nodes)));
      if (cluster.IsCordoned(node)) {
        cluster.UncordonNode(node);
      } else {
        cluster.CordonNode(node);
      }
    } else {
      sim.RunUntil(sim.Now() + rng.Uniform(1.0, 60.0));
    }
    CheckInvariants(cluster);
  }
  sim.RunUntil(sim.Now() + Hours(1));
  CheckInvariants(cluster);

  // Terminal pods never sit in the pending queue.
  size_t pending_seen = 0;
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kPending) ++pending_seen;
  });
  ASSERT_EQ(pending_seen, cluster.PendingCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Node lifecycle idempotence: CordonNode / UncordonNode must be safe to call
// redundantly (the health tracker and an operator may both fence the same
// node), the cordon ledger must count each node once, and a cordoned node
// must stay out of placement until the cordon lifts.
// ---------------------------------------------------------------------------

void ExpectResourceNear(const ResourceSpec& got, const ResourceSpec& want) {
  ASSERT_NEAR(got.cpu, want.cpu, 1e-6);
  ASSERT_NEAR(got.memory, want.memory, 1.0);
}

TEST(NodeLifecycleIdempotenceTest, DoubleCordonAndDoubleUncordonAreNoOps) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 3;
  options.node_capacity = {16.0, GiB(64)};
  options.validate_placement_index = true;
  Cluster cluster(&sim, options);

  // Spread some load so the cordoned node has resident pods.
  for (int i = 0; i < 6; ++i) {
    PodSpec spec;
    spec.name = "resident";
    spec.request = {4.0, GiB(8)};
    cluster.CreatePod(std::move(spec), nullptr, nullptr);
  }
  sim.RunUntil(sim.Now() + Minutes(1));
  CheckInvariants(cluster);

  const ResourceSpec full_capacity = cluster.TotalCapacity();
  const ResourceSpec allocated = cluster.TotalAllocated();
  const ResourceSpec node_capacity = cluster.GetNode(1).capacity;
  ASSERT_FALSE(cluster.GetNode(1).pods.empty());

  cluster.CordonNode(1);
  CheckInvariants(cluster);
  ExpectResourceNear(cluster.CordonedCapacity(), node_capacity);
  // Cordoned capacity stays in the totals, and resident pods keep running.
  ExpectResourceNear(cluster.TotalCapacity(), full_capacity);
  ExpectResourceNear(cluster.TotalAllocated(), allocated);
  ASSERT_FALSE(cluster.GetNode(1).pods.empty());

  // Second CordonNode: no double count.
  cluster.CordonNode(1);
  CheckInvariants(cluster);
  ExpectResourceNear(cluster.CordonedCapacity(), node_capacity);
  ASSERT_EQ(cluster.counters().nodes_cordoned, 1u);

  cluster.UncordonNode(1);
  CheckInvariants(cluster);
  ExpectResourceNear(cluster.CordonedCapacity(), ResourceSpec{});

  // UncordonNode on an uncordoned node early-returns: nothing goes negative.
  cluster.UncordonNode(1);
  cluster.UncordonNode(0);  // never cordoned
  CheckInvariants(cluster);
  ExpectResourceNear(cluster.CordonedCapacity(), ResourceSpec{});
  ExpectResourceNear(cluster.TotalCapacity(), full_capacity);
  ASSERT_EQ(cluster.counters().nodes_uncordoned, 1u);
  sim.RunUntil(sim.Now() + Minutes(1));
  CheckInvariants(cluster);
}

TEST(NodeLifecycleIdempotenceTest, CordonHoldsPlacementUntilUncordon) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 3;
  options.node_capacity = {16.0, GiB(64)};
  options.validate_placement_index = true;
  Cluster cluster(&sim, options);

  const ResourceSpec node_capacity = cluster.GetNode(2).capacity;
  cluster.CordonNode(2);
  ASSERT_TRUE(cluster.IsCordoned(2));

  // Fill the two schedulable nodes, then submit one more node-sized pod: it
  // must pend (node 2 is cordoned) until the cordon lifts.
  for (int i = 0; i < 2; ++i) {
    PodSpec spec;
    spec.name = "filler";
    spec.request = node_capacity;
    cluster.CreatePod(std::move(spec), nullptr, nullptr);
  }
  sim.RunUntil(sim.Now() + Minutes(1));
  ASSERT_EQ(cluster.PendingCount(), 0u);

  PodSpec spec;
  spec.name = "blocked";
  spec.request = node_capacity;
  cluster.CreatePod(std::move(spec), nullptr, nullptr);
  sim.RunUntil(sim.Now() + Minutes(1));
  ASSERT_EQ(cluster.PendingCount(), 1u);
  ASSERT_TRUE(cluster.GetNode(2).pods.empty());

  cluster.UncordonNode(2);
  CheckInvariants(cluster);
  ASSERT_FALSE(cluster.IsCordoned(2));
  ExpectResourceNear(cluster.CordonedCapacity(), ResourceSpec{});
  sim.RunUntil(sim.Now() + Minutes(1));
  ASSERT_EQ(cluster.PendingCount(), 0u);
  ASSERT_FALSE(cluster.GetNode(2).pods.empty());
  CheckInvariants(cluster);
}

// ---------------------------------------------------------------------------
// Placement decisions against the reference scans: thousands of mixed
// place/kill/cordon/uncordon/preempt/usage-report operations run with
// validate_placement_index on, so the Cluster recomputes every best-fit and
// every victim list with the plain scans where the decision is made (pump
// placements included) and aborts on any difference; every index mutation
// is cross-checked against a fresh scan too. The run's DecisionTrace digest
// is pinned to a literal recorded with those checks on, so any change to a
// decision shows up even where index and scans would move together.

/// Everything observable about one run of the random op script.
struct DecisionTrace {
  /// (pod creation ordinal, stop reason) in stop-callback firing order —
  /// preemption victim identity AND order land here.
  std::vector<std::pair<uint64_t, int>> stops;
  /// Per-op digest: for each created pod its (phase, node) after the op.
  std::vector<int> state_digest;
  std::vector<PodId> ids;
  uint64_t placements = 0;
  uint64_t preempted = 0;
  uint64_t failed = 0;
  size_t pending = 0;

  std::string Digest() const {
    Fnv1a h;
    h.Add(static_cast<uint64_t>(stops.size()));
    for (const auto& stop : stops) {
      h.Add(stop.first);
      h.Add(static_cast<uint64_t>(stop.second));
    }
    h.Add(static_cast<uint64_t>(state_digest.size()));
    for (int v : state_digest) h.Add(static_cast<uint64_t>(v));
    h.Add(static_cast<uint64_t>(ids.size()));
    for (PodId id : ids) h.Add(id);
    for (uint64_t v : {placements, preempted, failed,
                       static_cast<uint64_t>(pending)}) {
      h.Add(v);
    }
    return h.Hex();
  }
};

DecisionTrace RunDecisionScript(uint64_t seed) {
  Rng rng(seed * 101 + 7);
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 8;
  options.node_capacity = {16.0, GiB(64)};
  options.seed = seed * 3 + 1;
  options.validate_placement_index = true;
  Cluster cluster(&sim, options);

  DecisionTrace trace;
  std::vector<PodId> pods;
  uint64_t ordinal = 0;
  for (int step = 0; step < 2500; ++step) {
    const double dice = rng.Uniform();
    if (dice < 0.38) {
      PodSpec spec;
      spec.name = "parity";
      // Quantized sizes so capacity ties across nodes are common (the
      // tie-break rule is the part most worth pinning).
      spec.request = {static_cast<double>(rng.UniformInt(1, 8)),
                      GiB(static_cast<double>(rng.UniformInt(1, 16)))};
      const double cls = rng.Uniform();
      spec.priority = cls < 0.45   ? PriorityClass::kBestEffort
                      : cls < 0.75 ? PriorityClass::kTraining
                      : cls < 0.9  ? PriorityClass::kStream
                                   : PriorityClass::kOnline;
      const uint64_t my_ordinal = ordinal++;
      pods.push_back(cluster.CreatePod(
          std::move(spec), nullptr,
          [&trace, my_ordinal](Pod&, PodStopReason reason) {
            trace.stops.emplace_back(my_ordinal, static_cast<int>(reason));
          }));
      trace.ids.push_back(pods.back());
    } else if (dice < 0.52 && !pods.empty()) {
      cluster.KillPod(pods[rng.UniformInt(pods.size())]);
    } else if (dice < 0.62 && !pods.empty()) {
      cluster.FailPod(pods[rng.UniformInt(pods.size())],
                      PodStopReason::kCrash);
    } else if (dice < 0.68) {
      cluster.CordonNode(static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(options.num_nodes))));
    } else if (dice < 0.74) {
      cluster.UncordonNode(static_cast<NodeId>(
          rng.UniformInt(static_cast<uint64_t>(options.num_nodes))));
    } else if (dice < 0.84 && !pods.empty()) {
      const PodId id = pods[rng.UniformInt(pods.size())];
      cluster.ReportUsage(id, {rng.Uniform(0.1, 4.0), GiB(rng.Uniform(0.1, 4.0))});
    } else {
      sim.RunUntil(sim.Now() + rng.Uniform(1.0, 90.0));
    }
    // Digest every pod's (phase, node) — placement decisions land here.
    for (PodId id : pods) {
      const Pod* pod = cluster.GetPod(id);
      if (pod == nullptr) {
        trace.state_digest.push_back(-1);
        continue;
      }
      trace.state_digest.push_back(static_cast<int>(pod->phase) * 1000 +
                                   static_cast<int>(pod->node));
    }
  }
  sim.RunUntil(sim.Now() + Hours(2));
  trace.placements = cluster.counters().placements;
  trace.preempted = cluster.counters().pods_preempted;
  trace.failed = cluster.counters().pods_failed;
  trace.pending = cluster.PendingCount();
  return trace;
}

struct ParityCase {
  uint64_t seed;
  const char* digest;
};

void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.seed; }

class PlacementParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(PlacementParityTest, IndexedDecisionsMatchLegacyScan) {
  const DecisionTrace trace = RunDecisionScript(GetParam().seed);
  EXPECT_EQ(trace.Digest(), GetParam().digest)
      << "placements, victims, victim order, stop reasons or counters moved";
  // The trace must describe a run where scheduling actually happened
  // (preemptions included), or the checks above mean little.
  EXPECT_GT(trace.placements, 100u);
  EXPECT_GT(trace.preempted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlacementParityTest,
    ::testing::Values(ParityCase{21, "27a68381a6509855"},
                      ParityCase{22, "6d36ff98265898e1"},
                      ParityCase{23, "7f098aefa1ea3398"},
                      ParityCase{24, "12b41be31d899fbd"},
                      ParityCase{25, "3f28e953c1f911bc"},
                      ParityCase{26, "7ad8a870240664e5"}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::to_string(info.param.seed);
    });

class JobChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JobChaosTest, JobAccountingSurvivesRandomFaults) {
  Rng rng(GetParam() * 17 + 3);
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  Cluster cluster(&sim, cluster_options);

  JobSpec spec;
  spec.name = "chaos-job";
  spec.total_steps = 60000;
  spec.checkpoint_interval = Minutes(3);
  spec.seed = GetParam();
  JobConfig config;
  config.num_workers = 12;
  config.num_ps = 3;
  config.worker_cpu = 8.0;
  config.ps_cpu = 6.0;
  config.worker_memory = GiB(6);
  config.ps_memory = GiB(10);
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();

  // Random fault script against the job's own pods.
  for (int burst = 0; burst < 30; ++burst) {
    sim.RunUntil(sim.Now() + rng.Uniform(30.0, 180.0));
    if (job.finished()) break;
    std::vector<PodId> victims;
    cluster.VisitRunningPods(PriorityClass::kTraining, [&](const Pod& pod) {
      victims.push_back(pod.id);
    });
    if (victims.empty()) continue;
    const PodId victim = victims[rng.UniformInt(victims.size())];
    const double dice = rng.Uniform();
    if (dice < 0.5) {
      cluster.FailPod(victim, PodStopReason::kCrash);
    } else if (dice < 0.8) {
      cluster.DegradePod(victim, 0.1);
    } else {
      cluster.KillPod(victim);
    }
    // Accounting invariants hold at every point.
    ASSERT_LE(job.batches_done(), job.total_batches());
    ASSERT_GE(job.stats().downtime_checkpoint, 0.0);
    ASSERT_GE(job.stats().downtime_waiting_pods, 0.0);
  }
  sim.RunUntil(Hours(24));

  // With dynamic sharding + recovery the job must finish, having processed
  // exactly its step budget, or have exhausted its restart budget cleanly.
  if (job.state() == JobState::kCompleted) {
    EXPECT_EQ(job.batches_done(), spec.total_steps);
  } else {
    EXPECT_EQ(job.state(), JobState::kFailed);
    EXPECT_FALSE(job.stats().fail_reason.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobChaosTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace dlrover
