#include "harness/sharded_fleet.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/commit_log.h"

namespace dlrover {

ShardedFleetResult RunFleetSharded(const FleetScenario& scenario,
                                   const ShardedFleetOptions& options) {
  const int cells = std::max(1, options.cells);
  int lanes = options.shards;
  if (lanes <= 0) {
    lanes = static_cast<int>(
        std::max<unsigned>(1, std::thread::hardware_concurrency()));
  }

  // The full trace is generated once, exactly as RunFleet would, then dealt
  // round-robin: job i lives in cell i % cells, preserving arrival order
  // within each cell.
  WorkloadOptions workload_options = scenario.workload;
  workload_options.seed = scenario.seed * 1009 + 4;
  const std::vector<GeneratedJob> trace =
      WorkloadGenerator(workload_options).Generate();
  std::vector<std::vector<GeneratedJob>> slices(
      static_cast<size_t>(cells));
  for (size_t i = 0; i < trace.size(); ++i) {
    slices[i % static_cast<size_t>(cells)].push_back(trace[i]);
  }

  // Nodes split as evenly as the division allows (first cells get the
  // remainder). Cell 0 keeps the scenario seed — with cells == 1 every
  // derived RNG stream matches the sequential RunFleet exactly.
  const int nodes_base = scenario.cluster.num_nodes / cells;
  const int nodes_rem = scenario.cluster.num_nodes % cells;

  // Destruction order matters: the fleets' teardown (brain Stop) cancels
  // events on the engine's shard simulators, so `fleets` must unwind
  // before `engine`; the clusters hold pointers into `logs`, so `logs`
  // outlives `fleets`. Declaration order below encodes exactly that.
  std::vector<ClusterCommitLog> logs(static_cast<size_t>(cells));
  ShardedSimOptions engine_options;
  engine_options.num_shards = cells;
  engine_options.window = options.window;
  engine_options.parallelism = static_cast<size_t>(lanes);
  engine_options.pool =
      lanes > 1 ? (options.pool != nullptr ? options.pool
                                           : &SharedThreadPool())
                : options.pool;
  ShardedSimulator engine(engine_options);
  std::vector<std::unique_ptr<FleetSimulation>> fleets;
  fleets.reserve(static_cast<size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    FleetScenario cell_scenario = scenario;
    cell_scenario.seed = scenario.seed + 7919ull * static_cast<uint64_t>(c);
    cell_scenario.cluster.num_nodes = nodes_base + (c < nodes_rem ? 1 : 0);
    fleets.push_back(std::make_unique<FleetSimulation>(
        &engine.shard(c), cell_scenario,
        std::move(slices[static_cast<size_t>(c)])));
    fleets.back()->cluster().set_commit_log(&logs[static_cast<size_t>(c)]);
  }

  FleetLedger ledger;
  std::vector<ClusterCommitLog*> log_ptrs;
  for (auto& log : logs) log_ptrs.push_back(&log);

  engine.set_barrier_hook([&](SimTime) { ledger.Fold(log_ptrs); });

  engine.RunUntil(scenario.horizon);

  // Tear each cell down as soon as it is collected: what the cell still
  // holds after Collect has handed its audit logs over is freed at once.
  std::vector<FleetResult> cell_results;
  cell_results.reserve(static_cast<size_t>(cells));
  for (auto& fleet : fleets) {
    cell_results.push_back(fleet->Collect());
    fleet.reset();
  }

  ShardedFleetResult result;
  result.cells = cells;
  result.shards = lanes;
  result.windows = engine.windows_run();
  result.ledger_entries = ledger.entries_folded();
  result.fleet_peak_allocated_cpu = ledger.peak_allocated_cpu();
  size_t fault_events = 0;
  size_t health_events = 0;
  size_t control_events = 0;
  for (const FleetResult& cell : cell_results) {
    fault_events += cell.fault_log.size();
    health_events += cell.health_log.size();
    control_events += cell.control_log.size();
  }
  result.fleet.fault_log.reserve(fault_events);
  result.fleet.health_log.reserve(health_events);
  result.fleet.control_log.reserve(control_events);
  for (FleetResult& cell : cell_results) {
    result.fleet.executed_events += cell.executed_events;
    result.fleet.pods_preempted += cell.pods_preempted;
    result.fleet.crashes_injected += cell.crashes_injected;
    result.fleet.stragglers_injected += cell.stragglers_injected;
    result.fleet.node_faults_injected += cell.node_faults_injected;
    // Per-cell audit logs concatenate in cell order: each cell's log is a
    // pure function of its own seeded streams, so the merged log is
    // byte-identical at any lane count. Each cell's copy is freed once
    // appended.
    result.fleet.fault_log.insert(result.fleet.fault_log.end(),
                                  cell.fault_log.begin(),
                                  cell.fault_log.end());
    cell.fault_log = std::vector<FaultRecord>();
    result.fleet.health_log.insert(result.fleet.health_log.end(),
                                   cell.health_log.begin(),
                                   cell.health_log.end());
    cell.health_log = std::vector<NodeHealthEvent>();
    result.fleet.nodes_cordoned += cell.nodes_cordoned;
    result.fleet.nodes_uncordoned += cell.nodes_uncordoned;
    // Control-plane telemetry merges the same way: summed counters plus
    // per-cell event logs appended in cell order.
    result.fleet.control_stats += cell.control_stats;
    result.fleet.control_log.insert(result.fleet.control_log.end(),
                                    cell.control_log.begin(),
                                    cell.control_log.end());
    cell.control_log = std::vector<ControlEvent>();
    result.fleet.control_faults_injected += cell.control_faults_injected;
    result.fleet.plans_fenced += cell.plans_fenced;
    result.fleet.stale_plan_applies += cell.stale_plan_applies;
    result.fleet.shard_reports_rejected += cell.shard_reports_rejected;
    result.fleet.shard_reports_expired += cell.shard_reports_expired;
  }
  // Merge the jobs back into the original trace order: the k-th job of
  // cell c was trace job c + k*cells.
  result.fleet.jobs.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    FleetResult& cell = cell_results[i % static_cast<size_t>(cells)];
    result.fleet.jobs.push_back(
        std::move(cell.jobs[i / static_cast<size_t>(cells)]));
  }
  return result;
}

}  // namespace dlrover
