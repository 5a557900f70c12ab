// Sweep smoke test compiled with -fsanitize=thread regardless of the global
// build flags (see tests/CMakeLists.txt): it recompiles the whole scenario
// stack — simulator, cluster, training job, brain, baselines, harness —
// into an instrumented binary and runs a small multi-threaded sweep, so
// tier-1 `ctest` exercises the concurrent sweep path (shared ConfigDb
// cache, WellTunedConfig statics, concurrent NSGA-II searches) under
// ThreadSanitizer. No gtest here: TSan makes the process exit nonzero when
// it reports a race, logic failures return 1.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                         \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

void SingleJobSweepSmoke() {
  using namespace dlrover;
  std::vector<SingleJobScenario> scenarios;
  for (SchedulerKind scheduler :
       {SchedulerKind::kDlrover, SchedulerKind::kEs,
        SchedulerKind::kManualTuned, SchedulerKind::kOptimus}) {
    for (uint64_t seed : {3ull, 7ull}) {
      SingleJobScenario scenario;
      scenario.scheduler = scheduler;
      scenario.model = ModelKind::kWideDeep;
      scenario.total_steps = 40000;
      scenario.seed = seed;
      scenarios.push_back(scenario);
    }
  }

  SweepOptions options;
  options.num_threads = 4;
  const std::vector<SingleJobResult> parallel =
      RunSingleJobSweep(scenarios, options);
  CHECK_TRUE(parallel.size() == scenarios.size());

  options.num_threads = 1;
  const std::vector<SingleJobResult> serial =
      RunSingleJobSweep(scenarios, options);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    CHECK_TRUE(parallel[i].final_state == serial[i].final_state);
    CHECK_TRUE(parallel[i].jct == serial[i].jct);
    CHECK_TRUE(parallel[i].executed_events == serial[i].executed_events);
    CHECK_TRUE(parallel[i].final_config == serial[i].final_config);
    CHECK_TRUE(parallel[i].executed_events > 0);
  }
}

void FleetSweepSmoke() {
  using namespace dlrover;
  std::vector<FleetScenario> scenarios;
  for (uint64_t seed : {5ull, 11ull}) {
    FleetScenario scenario;
    scenario.workload.num_jobs = 6;
    scenario.workload.arrival_span = Hours(2);
    scenario.horizon = Hours(6);
    scenario.seed = seed;
    scenarios.push_back(scenario);
  }
  SweepOptions options;
  options.num_threads = 2;
  const std::vector<FleetResult> results = RunFleetSweep(scenarios, options);
  CHECK_TRUE(results.size() == 2);
  for (const FleetResult& result : results) {
    CHECK_TRUE(result.jobs.size() == 6);
    CHECK_TRUE(result.executed_events > 0);
  }
}

}  // namespace

int main() {
  SingleJobSweepSmoke();
  FleetSweepSmoke();
  std::printf("sweep tsan smoke: ok\n");
  return 0;
}
