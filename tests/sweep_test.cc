// Tests for the parallel scenario-sweep engine: submission-ordered results,
// exception propagation, and — the load-bearing property — byte-identical
// results at every thread count. Each scenario builds its own Simulator,
// Cluster, and Rng chain from its seed, so a sweep at N threads must
// reproduce the 1-thread (and plain sequential) results exactly.

#include "harness/sweep.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <string>
#include <thread>
#include <vector>

#include "brain/nsga2.h"
#include "fleet_fingerprint.h"
#include "gtest/gtest.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

// Exact textual fingerprint of a result: every float printed as %a (hex,
// lossless), so two fingerprints match iff the results are bit-identical.
// Fleet results use the shared FleetFingerprint (fleet_fingerprint.h).
std::string Fingerprint(const SingleJobResult& r) {
  std::string out = StrFormat(
      "state=%d jct=%a recovery=%a events=%" PRIu64
      " w=%d ps=%d wcpu=%a pscpu=%a wmem=%a psmem=%a",
      static_cast<int>(r.final_state), r.jct, r.recovery_time,
      r.executed_events, r.final_config.num_workers, r.final_config.num_ps,
      r.final_config.worker_cpu, r.final_config.ps_cpu,
      r.final_config.worker_memory, r.final_config.ps_memory);
  out += StrFormat(
      " ckpt=%a wait=%a repart=%a restarts=%d migr=%d scale=%d strag=%d",
      r.stats.downtime_checkpoint, r.stats.downtime_waiting_pods,
      r.stats.downtime_repartition, r.stats.full_restarts,
      r.stats.migrations, r.stats.scale_operations,
      r.stats.stragglers_mitigated);
  out += StrFormat(" hist=%zu", r.history.size());
  for (const ThroughputSample& s : r.history) {
    out += StrFormat(" (%a,%a,%d,%" PRIu64 ")", s.time, s.samples_per_sec,
                     s.active_workers, s.batches_done);
  }
  return out;
}

std::vector<SingleJobScenario> SmallSingleJobGrid() {
  std::vector<SingleJobScenario> scenarios;
  for (ModelKind model : {ModelKind::kWideDeep, ModelKind::kXDeepFm}) {
    for (SchedulerKind scheduler :
         {SchedulerKind::kDlrover, SchedulerKind::kEs,
          SchedulerKind::kManualTuned}) {
      for (uint64_t seed : {3ull, 21ull}) {
        SingleJobScenario scenario;
        scenario.model = model;
        scenario.scheduler = scheduler;
        scenario.seed = seed;
        scenario.total_steps = 60000;  // small but long enough to scale
        scenarios.push_back(scenario);
      }
    }
  }
  return scenarios;
}

std::vector<FleetScenario> SmallFleetGrid() {
  std::vector<FleetScenario> scenarios;
  for (uint64_t seed : {31ull, 77ull}) {
    FleetScenario scenario;
    scenario.workload.num_jobs = 8;
    scenario.workload.arrival_span = Hours(2);
    scenario.horizon = Hours(8);
    scenario.seed = seed;
    scenario.dlrover_fraction = seed == 31ull ? 1.0 : 0.5;
    scenarios.push_back(scenario);
  }
  return scenarios;
}

std::vector<std::string> Fingerprints(
    const std::vector<SingleJobResult>& results) {
  std::vector<std::string> prints;
  prints.reserve(results.size());
  for (const SingleJobResult& r : results) prints.push_back(Fingerprint(r));
  return prints;
}

TEST(SweepEngineTest, MapReturnsSubmissionOrderedResults) {
  SweepOptions options;
  options.num_threads = 4;
  SweepEngine engine(options);
  std::vector<int> items;
  for (int i = 0; i < 64; ++i) items.push_back(i);
  // Early items sleep longest, so completion order inverts submission
  // order; the result vector must still match submission order.
  const std::vector<int> results = engine.Map(items, [](int item) {
    std::this_thread::sleep_for(std::chrono::microseconds(640 - item * 10));
    return item * item;
  });
  ASSERT_EQ(results.size(), items.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(SweepEngineTest, MapDrainsAllTasksThenRethrows) {
  SweepOptions options;
  options.num_threads = 2;
  SweepEngine engine(options);
  std::vector<int> items;
  for (int i = 0; i < 32; ++i) items.push_back(i);
  std::atomic<int> ran{0};
  EXPECT_THROW(engine.Map(items,
                          [&ran](int item) {
                            ran.fetch_add(1);
                            if (item == 5) throw std::runtime_error("boom");
                            return item;
                          }),
               std::runtime_error);
  // Every task ran to completion before the exception escaped; none was
  // left to write into a dead stack frame.
  EXPECT_EQ(ran.load(), 32);
}

TEST(SweepEngineTest, SingleJobSweepMatchesSequentialRun) {
  const std::vector<SingleJobScenario> scenarios = SmallSingleJobGrid();
  SweepOptions options;
  options.num_threads = 4;
  const std::vector<SingleJobResult> swept =
      RunSingleJobSweep(scenarios, options);
  ASSERT_EQ(swept.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(Fingerprint(swept[i]), Fingerprint(RunSingleJob(scenarios[i])))
        << "scenario " << i;
  }
}

TEST(SweepEngineTest, SingleJobSweepDeterministicAcrossThreadCounts) {
  const std::vector<SingleJobScenario> scenarios = SmallSingleJobGrid();
  std::vector<size_t> counts = {1, 2};
  const size_t hardware = std::thread::hardware_concurrency();
  if (hardware > 2) counts.push_back(hardware);
  std::vector<std::string> reference;
  for (size_t threads : counts) {
    SweepOptions options;
    options.num_threads = threads;
    const std::vector<std::string> prints =
        Fingerprints(RunSingleJobSweep(scenarios, options));
    if (reference.empty()) {
      reference = prints;
      continue;
    }
    ASSERT_EQ(prints.size(), reference.size());
    for (size_t i = 0; i < prints.size(); ++i) {
      EXPECT_EQ(prints[i], reference[i])
          << "scenario " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(SweepEngineTest, FleetSweepDeterministicAcrossThreadCounts) {
  const std::vector<FleetScenario> scenarios = SmallFleetGrid();
  // Sequential reference first, then sweeps at 2 and hardware threads.
  std::vector<std::string> reference;
  reference.reserve(scenarios.size());
  for (const FleetScenario& scenario : scenarios) {
    reference.push_back(FleetFingerprint(RunFleet(scenario)));
  }
  std::vector<size_t> counts = {1, 2};
  const size_t hardware = std::thread::hardware_concurrency();
  if (hardware > 2) counts.push_back(hardware);
  for (size_t threads : counts) {
    SweepOptions options;
    options.num_threads = threads;
    const std::vector<FleetResult> swept = RunFleetSweep(scenarios, options);
    ASSERT_EQ(swept.size(), reference.size());
    for (size_t i = 0; i < swept.size(); ++i) {
      EXPECT_EQ(FleetFingerprint(swept[i]), reference[i])
          << "fleet scenario " << i << " diverged at " << threads
          << " threads";
    }
  }
}

TEST(SweepEngineTest, ExternalPoolIsUsedAndNotOwned) {
  ThreadPool pool(3);
  SweepOptions options;
  options.pool = &pool;
  SweepEngine engine(options);
  EXPECT_EQ(engine.num_threads(), 3u);
  std::vector<int> items = {1, 2, 3, 4, 5};
  const std::vector<int> doubled =
      engine.Map(items, [](int item) { return item * 2; });
  EXPECT_EQ(doubled, (std::vector<int>{2, 4, 6, 8, 10}));
  // `pool` must still be usable after the engine goes away.
}

// NSGA-II keeps all of its search state in the instance, so searches
// running at once on a sweep's threads (as the brain's planning rounds do
// across fleet lanes) must each reproduce the single-threaded result.
TEST(SweepEngineTest, ConcurrentNsga2SearchesMatchSequential) {
  const std::vector<DecisionBounds> bounds = {
      {1.0, 32.0, true}, {0.5, 16.0, false}};
  const auto objective = [](const std::vector<double>& x) {
    // A simple two-objective tradeoff: cost vs inverse throughput.
    const double cost = x[0] * x[1];
    const double inv_gain = 1.0 / (1.0 + x[0] * 0.7 + x[1] * 0.3);
    return Nsga2::Objectives{cost, inv_gain};
  };
  Nsga2Options options;
  options.population = 24;
  options.generations = 12;
  options.seed = 11;
  const auto search = [&](int) {
    Nsga2 nsga2(bounds, objective, options);
    return nsga2.Run();
  };
  const std::vector<Nsga2Individual> expected = search(0);

  SweepOptions sweep_options;
  sweep_options.num_threads = 4;
  SweepEngine engine(sweep_options);
  const std::vector<std::vector<Nsga2Individual>> fronts =
      engine.Map(std::vector<int>(16, 0), search);
  for (size_t task = 0; task < fronts.size(); ++task) {
    const std::vector<Nsga2Individual>& front = fronts[task];
    ASSERT_EQ(front.size(), expected.size()) << "task " << task;
    for (size_t i = 0; i < front.size(); ++i) {
      EXPECT_EQ(front[i].x, expected[i].x) << "task " << task << " #" << i;
      EXPECT_EQ(front[i].objectives, expected[i].objectives)
          << "task " << task << " #" << i;
      EXPECT_EQ(front[i].crowding, expected[i].crowding)
          << "task " << task << " #" << i;
    }
  }
}

}  // namespace
}  // namespace dlrover
