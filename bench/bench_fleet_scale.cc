// Fleet-scale benchmark for the sharded event core: runs a Fig 3-shaped
// all-manual fleet (48 jobs / 60 nodes at 1x) at up to 250x the base size
// on the sharded engine, sweeping execution lanes {1, 2, 4, hw}. Cells
// partition the fleet (part of the scenario shape); lanes only change which
// thread advances which cell, so the bench verifies in-process that every
// lane count produces byte-identical outcomes — the speedup column measures
// pure execution-width effect. At 1x it additionally checks the sequential
// oracle: RunFleetSharded with one cell must reproduce RunFleet exactly.
// Results land in BENCH_fleet_scale.json: events/sec per lane count,
// speedup vs one lane, window size, peak RSS, and both parity verdicts.
//
// Usage: bench_fleet_scale [max_scale]   (default 100; ctest runs 1)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/reporting.h"
#include "harness/sharded_fleet.h"

namespace dlrover {
namespace {

struct LaneRun {
  int lanes = 1;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double speedup_vs_1 = 1.0;
};

struct ScaleRun {
  int scale = 1;
  int num_jobs = 0;
  int num_nodes = 0;
  int cells = 1;
  uint64_t events = 0;
  uint64_t windows = 0;
  std::vector<LaneRun> lanes;
  double peak_rss_mb = 0.0;
  bool lanes_identical = false;
};

FleetScenario ScaledScenario(int scale) {
  FleetScenario scenario;
  // Fig 3 shape: an all-manual fleet. No brain/NSGA-II planning in the
  // loop, so events/sec measures the event core itself rather than plan
  // optimization.
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 48 * scale;
  scenario.workload.arrival_span = Hours(8);
  scenario.cluster.num_nodes = 60 * scale;
  scenario.horizon = Hours(30);
  scenario.seed = 11;
  return scenario;
}

int CellsForScale(int scale) {
  // Enough cells that sharding is always exercised, capped so small fleets
  // keep a few nodes per cell.
  return std::min(16, 4 * scale);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool SameOutcomes(const FleetResult& a, const FleetResult& b) {
  if (a.executed_events != b.executed_events ||
      a.pods_preempted != b.pods_preempted ||
      a.crashes_injected != b.crashes_injected ||
      a.stragglers_injected != b.stragglers_injected ||
      a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].completed != b.jobs[i].completed ||
        a.jobs[i].jct != b.jobs[i].jct ||
        a.jobs[i].pending_time != b.jobs[i].pending_time) {
      return false;
    }
  }
  return true;
}

std::vector<int> LaneSweep() {
  std::vector<int> lanes = {1, 2, 4};
  const int hw = static_cast<int>(
      std::max<unsigned>(1, std::thread::hardware_concurrency()));
  if (std::find(lanes.begin(), lanes.end(), hw) == lanes.end()) {
    lanes.push_back(hw);
  }
  return lanes;
}

ScaleRun RunScale(int scale, Duration window) {
  ScaleRun run;
  run.scale = scale;
  run.num_jobs = 48 * scale;
  run.num_nodes = 60 * scale;
  run.cells = CellsForScale(scale);
  const FleetScenario scenario = ScaledScenario(scale);

  ShardedFleetOptions options;
  options.cells = run.cells;
  options.window = window;

  run.lanes_identical = true;
  FleetResult reference;
  for (int lanes : LaneSweep()) {
    options.shards = lanes;
    const auto start = std::chrono::steady_clock::now();
    ShardedFleetResult result = RunFleetSharded(scenario, options);
    LaneRun lane;
    lane.lanes = lanes;
    lane.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    lane.events_per_sec =
        static_cast<double>(result.fleet.executed_events) / lane.seconds;
    if (run.lanes.empty()) {
      run.events = result.fleet.executed_events;
      run.windows = result.windows;
      reference = std::move(result.fleet);
      lane.speedup_vs_1 = 1.0;
    } else {
      lane.speedup_vs_1 = lane.seconds > 0.0
                              ? run.lanes.front().seconds / lane.seconds
                              : 0.0;
      run.lanes_identical =
          run.lanes_identical && SameOutcomes(reference, result.fleet);
    }
    run.lanes.push_back(lane);
  }
  run.peak_rss_mb = PeakRssMb();
  return run;
}

void Run(int max_scale) {
  PrintBanner("fleet scale: sharded event core, lane sweep");
  const Duration window = Minutes(2);

  // Sequential oracle at the base scale: one cell on one lane must be the
  // sequential RunFleet byte for byte.
  std::printf("checking 1-cell parity against sequential RunFleet...\n");
  std::fflush(stdout);
  const FleetScenario base = ScaledScenario(1);
  ShardedFleetOptions one_cell;
  one_cell.cells = 1;
  one_cell.shards = 1;
  one_cell.window = window;
  const bool sequential_parity =
      SameOutcomes(RunFleet(base), RunFleetSharded(base, one_cell).fleet);
  std::printf("  sequential parity: %s\n",
              sequential_parity ? "identical" : "DIVERGED");

  std::vector<ScaleRun> runs;
  for (int scale : {1, 20, 100, 250}) {
    if (scale > max_scale) continue;
    std::printf("running scale %dx (%d jobs / %d nodes / %d cells)...\n",
                scale, 48 * scale, 60 * scale, CellsForScale(scale));
    std::fflush(stdout);
    runs.push_back(RunScale(scale, window));
  }

  bool all_identical = sequential_parity;
  TablePrinter table({"scale", "jobs", "nodes", "cells", "lanes", "events",
                      "seconds", "events/s", "speedup", "peak RSS",
                      "outcomes"});
  for (const ScaleRun& r : runs) {
    all_identical = all_identical && r.lanes_identical;
    for (const LaneRun& lane : r.lanes) {
      table.AddRow(
          {StrFormat("%dx", r.scale), StrFormat("%d", r.num_jobs),
           StrFormat("%d", r.num_nodes), StrFormat("%d", r.cells),
           StrFormat("%d", lane.lanes),
           StrFormat("%llu", static_cast<unsigned long long>(r.events)),
           StrFormat("%.2f", lane.seconds),
           StrFormat("%.3g", lane.events_per_sec),
           StrFormat("%.2fx", lane.speedup_vs_1),
           StrFormat("%.0f MiB", r.peak_rss_mb),
           r.lanes_identical ? "identical" : "DIVERGED"});
    }
  }
  table.Print();
  std::printf("\nlane-count independence: %s\n",
              all_identical ? "byte-identical outcomes at every width"
                            : "DIVERGED");

  FILE* json = OpenBenchJson("BENCH_fleet_scale.json", "fleet_scale");
  if (json == nullptr) std::exit(1);
  std::fprintf(json, "  \"window_seconds\": %.1f,\n", window);
  std::fprintf(json, "  \"sequential_parity_1cell\": %s,\n",
               sequential_parity ? "true" : "false");
  std::fprintf(json, "  \"lanes_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ScaleRun& r = runs[i];
    std::fprintf(json,
                 "    {\"scale\": %d, \"jobs\": %d, \"nodes\": %d, "
                 "\"cells\": %d, \"events\": %llu, \"windows\": %llu, "
                 "\"peak_rss_mb\": %.1f, \"shard_runs\": [",
                 r.scale, r.num_jobs, r.num_nodes, r.cells,
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.windows),
                 r.peak_rss_mb);
    for (size_t j = 0; j < r.lanes.size(); ++j) {
      const LaneRun& lane = r.lanes[j];
      std::fprintf(json,
                   "{\"shards\": %d, \"seconds\": %.4f, "
                   "\"events_per_sec\": %.1f, \"speedup_vs_1shard\": %.3f}%s",
                   lane.lanes, lane.seconds, lane.events_per_sec,
                   lane.speedup_vs_1, j + 1 < r.lanes.size() ? ", " : "");
    }
    std::fprintf(json, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_fleet_scale.json\n");

  if (!all_identical) std::exit(1);
}

}  // namespace
}  // namespace dlrover

int main(int argc, char** argv) {
  int max_scale = 100;
  if (argc > 1) max_scale = std::atoi(argv[1]);
  dlrover::Run(max_scale);
  return 0;
}
