// Fleet goldens (ctest label `golden`): reduced versions of perfbench's three
// fleet workloads at seeds 1-3, each pinned to the FNV-1a outcome
// fingerprint (fleet_fingerprint.h) of a run recorded before the change
// that introduced this file. A literal moves only when fleet outcomes move;
// regenerating one is its own reviewed step, with the old and new values
// recorded in CHANGES.md.
//
// The shapes follow perfbench's FleetScenarioFor at a smaller scale (48 jobs
// and 60 nodes per 1x, 4 cells instead of 16):
//   - fleet_manual:  the all-manual Fig 3 fleet, 5x, 30 h horizon;
//   - fleet_managed: the all-DLRover Fig 3 fleet, 2x, 30 h horizon;
//   - fleet_chaos:   the managed fleet, 3x, 14 h horizon, under the grey-fault
//     and control-partition campaigns with node health on.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "fleet_fingerprint.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"

namespace dlrover {
namespace {

struct GoldenCase {
  const char* workload;
  uint64_t seed;
  const char* fingerprint;
};

FleetScenario ReducedScenario(const std::string& workload, uint64_t seed) {
  FleetScenario s;
  s.seed = seed;
  s.workload.arrival_span = Hours(8);
  if (workload == "fleet_manual" || workload == "fleet_managed") {
    const int scale = workload == "fleet_manual" ? 5 : 2;
    s.dlrover_fraction = workload == "fleet_manual" ? 0.0 : 1.0;
    s.workload.num_jobs = 48 * scale;
    s.cluster.num_nodes = 60 * scale;
    s.horizon = Hours(30);
    return s;
  }
  const int scale = 3;
  s.dlrover_fraction = 1.0;
  s.workload.num_jobs = 48 * scale;
  s.cluster.num_nodes = 60 * scale;
  s.horizon = Hours(14);
  s.enable_background = false;
  s.failures.daily_straggler_rate = 0.01;
  s.failures.daily_node_flaky_rate = 1.0;
  s.failures.daily_node_degraded_rate = 1.0;
  s.failures.daily_node_leak_rate = 0.9;
  s.failures.daily_node_crashloop_rate = 0.75;
  s.cluster.enable_node_health = true;
  s.control.enabled = true;
  s.control.drop_prob = 0.02;
  s.control.duplicate_prob = 0.05;
  s.control.reorder_prob = 0.05;
  s.failures.daily_node_partition_rate = 1.5;
  s.failures.daily_cell_partition_rate = 2.0;
  s.failures.daily_master_crash_rate = 0.3;
  return s;
}

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.workload << " seed " << c.seed;
}

class FleetGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FleetGoldenTest, FingerprintMatchesRecorded) {
  const GoldenCase& c = GetParam();
  const FleetScenario scenario = ReducedScenario(c.workload, c.seed);
  ShardedFleetOptions options;
  options.cells = 4;
  options.shards = 1;
  options.window = Minutes(2);
  const ShardedFleetResult result = RunFleetSharded(scenario, options);
  ASSERT_EQ(result.fleet.jobs.size(),
            static_cast<size_t>(scenario.workload.num_jobs));
  EXPECT_EQ(FleetFingerprint(result), c.fingerprint)
      << c.workload << " seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FleetGoldenTest,
    ::testing::Values(GoldenCase{"fleet_manual", 1, "313738bec08a2e4c"},
                      GoldenCase{"fleet_manual", 2, "96809dddffc55410"},
                      GoldenCase{"fleet_manual", 3, "cc213ad8bc2fb48f"},
                      GoldenCase{"fleet_managed", 1, "052a39dd65e978fc"},
                      GoldenCase{"fleet_managed", 2, "a8769871e343ef5f"},
                      GoldenCase{"fleet_managed", 3, "01cc8653fe137263"},
                      GoldenCase{"fleet_chaos", 1, "c3746556052cd079"},
                      GoldenCase{"fleet_chaos", 2, "836676a4094cc6e2"},
                      GoldenCase{"fleet_chaos", 3, "195e8ad23aba301d"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dlrover
