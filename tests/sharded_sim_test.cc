// Sharded engine determinism and sharded-vs-sequential fleet parity.
//
// The contract under test: for a fixed cell count, RunFleetSharded produces
// byte-identical FleetResults at every execution width (lanes, pool or no
// pool), and with cells == 1 it reproduces the sequential RunFleet exactly.

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "cluster/cluster.h"
#include "cluster/commit_log.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_simulator.h"

namespace dlrover {
namespace {

// ---------------------------------------------------------------------------
// Engine-level determinism
// ---------------------------------------------------------------------------

/// Per-shard (time, tag) traces of shard-local events.
using Traces = std::vector<std::vector<std::pair<SimTime, int>>>;

/// Three shards each run their own periodic events, some of which schedule
/// follow-ups on the same shard; every shard's trace must be identical at
/// any execution width. Each shard writes only its own trace, so lanes
/// never touch shared state.
Traces RunShardTraces(ThreadPool* pool, size_t parallelism) {
  ShardedSimOptions options;
  options.num_shards = 3;
  options.window = 10.0;
  options.pool = pool;
  options.parallelism = parallelism;
  ShardedSimulator engine(options);

  Traces traces(3);
  for (int s = 0; s < 3; ++s) {
    Simulator& sim = engine.shard(s);
    auto& trace = traces[static_cast<size_t>(s)];
    const Duration interval = 5.0 + 2.0 * s;
    for (int k = 1; k <= 20; ++k) {
      const int tag = s * 100 + k;
      sim.ScheduleAt(interval * k, [&sim, &trace, tag] {
        trace.emplace_back(sim.Now(), tag);
        // Equal-time follow-up: FIFO tie-breaking inside the shard.
        sim.ScheduleAfter(0.0, [&sim, &trace, tag] {
          trace.emplace_back(sim.Now(), -tag);
        });
      });
    }
  }
  engine.RunUntil(120.0);
  return traces;
}

TEST(ShardedSimulatorTest, ShardTracesIndependentOfExecutionWidth) {
  const Traces sequential = RunShardTraces(nullptr, 1);
  for (const auto& trace : sequential) ASSERT_FALSE(trace.empty());
  const Traces two_lanes = RunShardTraces(&SharedThreadPool(), 2);
  const Traces hw_lanes = RunShardTraces(&SharedThreadPool(), 0);
  EXPECT_EQ(sequential, two_lanes);
  EXPECT_EQ(sequential, hw_lanes);
}

TEST(ShardedSimulatorTest, ZeroWidthWindowStillRunsTheBarrierHook) {
  ShardedSimOptions options;
  options.num_shards = 2;
  options.window = 10.0;
  ShardedSimulator engine(options);
  std::vector<SimTime> barriers;
  engine.set_barrier_hook([&](SimTime barrier) {
    // Every shard is quiescent at the barrier time.
    EXPECT_EQ(engine.shard(0).Now(), barrier);
    EXPECT_EQ(engine.shard(1).Now(), barrier);
    barriers.push_back(barrier);
  });
  int fired = 0;
  engine.shard(1).ScheduleAt(25.0, [&] { ++fired; });
  engine.RunUntil(0.0);  // zero-width window: a barrier, no time advance
  EXPECT_EQ(engine.Now(), 0.0);
  EXPECT_EQ(engine.windows_run(), 1u);
  engine.RunUntil(25.0);
  EXPECT_EQ(fired, 1);  // events exactly at the deadline run
  EXPECT_EQ(barriers, (std::vector<SimTime>{0.0, 10.0, 20.0, 25.0}));
}

// ---------------------------------------------------------------------------
// Commit log / ledger
// ---------------------------------------------------------------------------

TEST(CommitLogTest, LedgerFoldReconstructsClusterTotals) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_capacity = {16.0, GiB(64)};
  Cluster cluster(&sim, options);
  ClusterCommitLog log;
  cluster.set_commit_log(&log);

  PodSpec spec;
  spec.name = "ledger-pod";
  spec.request = {4.0, GiB(8)};
  std::vector<PodId> pods;
  for (int i = 0; i < 5; ++i) {
    pods.push_back(cluster.CreatePod(spec, nullptr, nullptr));
  }
  sim.RunUntil(Minutes(5));
  cluster.ReportUsage(pods[0], {2.0, GiB(3)});
  cluster.KillPod(pods[1]);
  cluster.CordonNode(0);
  sim.RunUntil(Minutes(10));
  cluster.UncordonNode(0);
  cluster.CordonNode(1);
  sim.RunUntil(Minutes(15));

  FleetLedger ledger;
  ledger.Fold({&log});
  EXPECT_TRUE(log.empty());  // fold consumes
  EXPECT_GT(ledger.entries_folded(), 0u);
  EXPECT_DOUBLE_EQ(ledger.totals().capacity.cpu, cluster.TotalCapacity().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().capacity.memory,
                   cluster.TotalCapacity().memory);
  EXPECT_DOUBLE_EQ(ledger.totals().allocated.cpu,
                   cluster.TotalAllocated().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().allocated.memory,
                   cluster.TotalAllocated().memory);
  EXPECT_DOUBLE_EQ(ledger.totals().usage.cpu, cluster.TotalUsage().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().usage.memory, cluster.TotalUsage().memory);
  EXPECT_DOUBLE_EQ(ledger.totals().cordoned.cpu,
                   cluster.CordonedCapacity().cpu);
  EXPECT_GT(ledger.totals().cordoned.cpu, 0.0);
}

// ---------------------------------------------------------------------------
// Fleet parity
// ---------------------------------------------------------------------------

/// EXPECT-equality on every field of two FleetResults, including full
/// per-job JobStats: "byte-identical" in the acceptance criteria's sense.
void ExpectFleetResultsIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.pods_preempted, b.pods_preempted);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.stragglers_injected, b.stragglers_injected);
  EXPECT_EQ(a.node_faults_injected, b.node_faults_injected);
  EXPECT_EQ(a.nodes_cordoned, b.nodes_cordoned);
  EXPECT_EQ(a.nodes_uncordoned, b.nodes_uncordoned);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_TRUE(a.fault_log[i] == b.fault_log[i]) << "fault_log[" << i << "]";
  }
  ASSERT_EQ(a.health_log.size(), b.health_log.size());
  for (size_t i = 0; i < a.health_log.size(); ++i) {
    EXPECT_TRUE(a.health_log[i] == b.health_log[i])
        << "health_log[" << i << "]";
  }
  EXPECT_TRUE(a.control_stats == b.control_stats);
  EXPECT_EQ(a.control_faults_injected, b.control_faults_injected);
  EXPECT_EQ(a.plans_fenced, b.plans_fenced);
  EXPECT_EQ(a.stale_plan_applies, b.stale_plan_applies);
  EXPECT_EQ(a.shard_reports_rejected, b.shard_reports_rejected);
  EXPECT_EQ(a.shard_reports_expired, b.shard_reports_expired);
  ASSERT_EQ(a.control_log.size(), b.control_log.size());
  for (size_t i = 0; i < a.control_log.size(); ++i) {
    EXPECT_TRUE(a.control_log[i] == b.control_log[i])
        << "control_log[" << i << "]";
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i) + " (" + a.jobs[i].name + ")");
    const FleetJobOutcome& x = a.jobs[i];
    const FleetJobOutcome& y = b.jobs[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.used_dlrover, y.used_dlrover);
    EXPECT_EQ(x.hot_ps, y.hot_ps);
    EXPECT_EQ(x.misconfig, y.misconfig);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.fail_reason, y.fail_reason);
    EXPECT_EQ(x.jct, y.jct);
    EXPECT_EQ(x.pending_time, y.pending_time);
    EXPECT_EQ(x.requested_cpus, y.requested_cpus);
    EXPECT_EQ(x.total_steps, y.total_steps);
    EXPECT_EQ(x.max_workers_quota, y.max_workers_quota);
    EXPECT_EQ(x.avg_worker_cpu_util, y.avg_worker_cpu_util);
    EXPECT_EQ(x.avg_ps_cpu_util, y.avg_ps_cpu_util);
    EXPECT_EQ(x.avg_worker_mem_util, y.avg_worker_mem_util);
    EXPECT_EQ(x.avg_ps_mem_util, y.avg_ps_mem_util);
    EXPECT_EQ(x.batches_done, y.batches_done);
    EXPECT_EQ(x.stats.submit_time, y.stats.submit_time);
    EXPECT_EQ(x.stats.first_training_time, y.stats.first_training_time);
    EXPECT_EQ(x.stats.finish_time, y.stats.finish_time);
    EXPECT_EQ(x.stats.downtime_checkpoint, y.stats.downtime_checkpoint);
    EXPECT_EQ(x.stats.downtime_waiting_pods, y.stats.downtime_waiting_pods);
    EXPECT_EQ(x.stats.downtime_repartition, y.stats.downtime_repartition);
    EXPECT_EQ(x.stats.worker_failures, y.stats.worker_failures);
    EXPECT_EQ(x.stats.ps_failures, y.stats.ps_failures);
    EXPECT_EQ(x.stats.oom_events, y.stats.oom_events);
    EXPECT_EQ(x.stats.full_restarts, y.stats.full_restarts);
    EXPECT_EQ(x.stats.migrations, y.stats.migrations);
    EXPECT_EQ(x.stats.scale_operations, y.stats.scale_operations);
    EXPECT_EQ(x.stats.stragglers_mitigated, y.stats.stragglers_mitigated);
    EXPECT_EQ(x.stats.drain_migrations, y.stats.drain_migrations);
    EXPECT_EQ(x.stats.drain_fallbacks, y.stats.drain_fallbacks);
    EXPECT_EQ(x.stats.fail_reason, y.stats.fail_reason);
  }
}

/// Fig 3 shape scaled down: an all-manual fleet under churn.
FleetScenario Fig3ShapedScenario() {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 12;
  scenario.workload.arrival_span = Hours(4);
  scenario.cluster.num_nodes = 16;
  scenario.failures.daily_pod_failure_rate = 0.5;
  scenario.failures.daily_straggler_rate = 0.35;
  scenario.horizon = Hours(24);
  scenario.seed = 11;
  return scenario;
}

/// Scarcity shape: demand well above capacity, so pending queues, slow
/// startups, and preemption paths all exercise.
FleetScenario ScarcityShapedScenario() {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.5;
  scenario.workload.num_jobs = 10;
  scenario.workload.arrival_span = Hours(2);
  scenario.cluster.num_nodes = 6;
  scenario.failures.daily_pod_failure_rate = 0.5;
  scenario.horizon = Hours(24);
  scenario.seed = 37;
  return scenario;
}

TEST(ShardedFleetTest, OneCellReproducesSequentialRunFleet) {
  const FleetScenario scenario = Fig3ShapedScenario();
  const FleetResult oracle = RunFleet(scenario);

  for (int lanes : {1, 2, 0}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ShardedFleetOptions options;
    options.cells = 1;
    options.shards = lanes;
    const ShardedFleetResult sharded = RunFleetSharded(scenario, options);
    ExpectFleetResultsIdentical(oracle, sharded.fleet);
    EXPECT_GT(sharded.windows, 0u);
  }
}

TEST(ShardedFleetTest, MultiCellParityAcrossLanesFig3Shape) {
  FleetScenario scenario = Fig3ShapedScenario();
  ShardedFleetOptions options;
  options.cells = 3;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  ASSERT_EQ(one_lane.fleet.jobs.size(), 12u);

  EXPECT_GT(one_lane.ledger_entries, 0u);
  EXPECT_GT(one_lane.fleet_peak_allocated_cpu, 0.0);

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, two_lanes.fleet);
  EXPECT_EQ(one_lane.windows, two_lanes.windows);

  options.shards = 0;  // hardware concurrency
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
  // The ledger folds cell logs in cell order, so its view is
  // lane-independent too.
  EXPECT_EQ(one_lane.ledger_entries, hw_lanes.ledger_entries);
  EXPECT_EQ(one_lane.fleet_peak_allocated_cpu,
            hw_lanes.fleet_peak_allocated_cpu);
}

TEST(ShardedFleetTest, MultiCellParityAcrossLanesScarcityShape) {
  FleetScenario scenario = ScarcityShapedScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);

  options.shards = 0;
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
}

/// Chaotic control plane turned all the way up: drops, duplicates, reorder,
/// node and cell partitions, master crashes. The acceptance bar is that
/// sharded runs stay byte-identical at every lane count with the channel on.
FleetScenario ControlChaosScenario() {
  FleetScenario scenario = Fig3ShapedScenario();
  scenario.dlrover_fraction = 1.0;  // control traffic needs dynamic sharding
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 1.5;
  scenario.failures.daily_cell_partition_rate = 2.0;
  scenario.failures.daily_master_crash_rate = 0.3;
  return scenario;
}

TEST(ShardedFleetTest, ControlChannelChaosParityAcrossLanes) {
  const FleetScenario scenario = ControlChaosScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  // The chaos actually ran: control messages flowed and faults landed.
  EXPECT_GT(one_lane.fleet.control_stats.messages_delivered, 0u);
  EXPECT_GT(one_lane.fleet.control_faults_injected, 0u);
  ASSERT_FALSE(one_lane.fleet.control_log.empty());

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, two_lanes.fleet);

  options.shards = 0;  // hardware concurrency
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
}

TEST(ShardedFleetTest, ControlChannelChaosRerunIdentity) {
  const FleetScenario scenario = ControlChaosScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 0;
  const ShardedFleetResult first = RunFleetSharded(scenario, options);
  const ShardedFleetResult second = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(first.fleet, second.fleet);
}

}  // namespace
}  // namespace dlrover
