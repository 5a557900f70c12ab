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
//
// FleetPerfbenchGoldenTest pins perfbench's own fleet_chaos, fleet_managed
// and fleet_manual runs at their gated seed (~1.5 s each, ~3 s for
// fleet_manual, the workload with the most pods), and fleet_chaos and
// fleet_managed at their held-out seeds, the full-scale fingerprints
// perfbench prints.
//
// A third suite pins the sequential RunFleet path that the Fig 3, Table 4,
// Fig 14 and Fig 15 benches run through the sweep engine: one scenario of
// each bench at its own scale and seed (the Fig 3 trace, Table 4's manual
// arm, month 4 of Fig 14, Fig 15's DLRover arm); ~0.5 s for all four.

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
                      GoldenCase{"fleet_manual", 2, "d5a5d96554c5b00c"},
                      GoldenCase{"fleet_manual", 3, "cc213ad8bc2fb48f"},
                      GoldenCase{"fleet_managed", 1, "052a39dd65e978fc"},
                      GoldenCase{"fleet_managed", 2, "a8769871e343ef5f"},
                      GoldenCase{"fleet_managed", 3, "d8b20673ef98bbf5"},
                      GoldenCase{"fleet_chaos", 1, "66593ca3c8f26d13"},
                      GoldenCase{"fleet_chaos", 2, "1b812a7ba2d8f9b6"},
                      GoldenCase{"fleet_chaos", 3, "348d8c3a0abb546d"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

// perfbench's FleetScenarioFor(workload, seed) with its engine settings: 16
// cells, 2-minute windows, 1 lane; fleet_chaos at 10x (480 jobs, 600 nodes),
// fleet_managed at 20x (960 jobs, 1200 nodes).
std::string PerfbenchFingerprint(const std::string& workload, int scale,
                                 uint64_t seed) {
  FleetScenario scenario = ReducedScenario(workload, seed);
  scenario.workload.num_jobs = 48 * scale;
  scenario.cluster.num_nodes = 60 * scale;
  ShardedFleetOptions options;
  options.cells = 16;
  options.shards = 1;
  options.window = Minutes(2);
  const ShardedFleetResult result = RunFleetSharded(scenario, options);
  EXPECT_EQ(result.fleet.jobs.size(),
            static_cast<size_t>(scenario.workload.num_jobs));
  return FleetFingerprint(result);
}

TEST(FleetPerfbenchGoldenTest, FleetChaosSeed1) {
  EXPECT_EQ(PerfbenchFingerprint("fleet_chaos", 10, 1), "dfa8f2bc7c8671cb");
}

TEST(FleetPerfbenchGoldenTest, FleetManagedSeed1) {
  EXPECT_EQ(PerfbenchFingerprint("fleet_managed", 20, 1), "2d87f9fc8b555d0f");
}

TEST(FleetPerfbenchGoldenTest, FleetManualSeed1) {
  EXPECT_EQ(PerfbenchFingerprint("fleet_manual", 100, 1), "e0c9605130ae0901");
}

// The held-out seeds of perfbench/workloads.json.
TEST(FleetPerfbenchGoldenTest, FleetChaosSeed9003) {
  EXPECT_EQ(PerfbenchFingerprint("fleet_chaos", 10, 9003), "73e5262e1e5fe9d2");
}

TEST(FleetPerfbenchGoldenTest, FleetManagedSeed9002) {
  EXPECT_EQ(PerfbenchFingerprint("fleet_managed", 20, 9002),
            "f56de5fa28aefa13");
}

struct BenchCase {
  const char* bench;
  const char* fingerprint;
};

FleetScenario BenchScenario(const std::string& bench) {
  FleetScenario s;
  if (bench == "fig3") {  // the all-manual trace
    s.dlrover_fraction = 0.0;
    s.workload.num_jobs = 48;
    s.workload.arrival_span = Hours(8);
    s.horizon = Hours(30);
    s.seed = 11;
  } else if (bench == "table4") {  // the manual arm
    s.dlrover_fraction = 0.0;
    s.workload.num_jobs = 56;
    s.workload.arrival_span = Hours(10);
    s.horizon = Hours(32);
    s.failures.daily_straggler_rate = 0.35;
    s.seed = 31;
  } else if (bench == "fig14") {  // month 4, 45% migrated
    s.dlrover_fraction = 0.45;
    s.workload.num_jobs = 56;
    s.workload.arrival_span = Hours(9);
    s.horizon = Hours(36);
    s.failures.daily_pod_failure_rate = 0.8;
    s.failures.daily_straggler_rate = 0.4;
    s.seed = 403;
  } else {  // fig15: the DLRover arm
    s.workload.num_jobs = 72;
    s.workload.arrival_span = Hours(10);
    s.horizon = Hours(40);
    s.failures.daily_straggler_rate = 0.25;
    s.seed = 77;
  }
  return s;
}

void PrintTo(const BenchCase& c, std::ostream* os) { *os << c.bench; }

class FleetBenchGoldenTest : public ::testing::TestWithParam<BenchCase> {};

TEST_P(FleetBenchGoldenTest, FingerprintMatchesRecorded) {
  const BenchCase& c = GetParam();
  const FleetScenario scenario = BenchScenario(c.bench);
  const FleetResult result = RunFleet(scenario);
  ASSERT_EQ(result.jobs.size(),
            static_cast<size_t>(scenario.workload.num_jobs));
  EXPECT_EQ(FleetFingerprint(result), c.fingerprint) << c.bench;
}

INSTANTIATE_TEST_SUITE_P(
    Benches, FleetBenchGoldenTest,
    ::testing::Values(BenchCase{"fig3", "58d15d6bc785413d"},
                      BenchCase{"table4", "f003efc312896619"},
                      BenchCase{"fig14", "d6fdd9ef79af52a2"},
                      BenchCase{"fig15", "7b7a582524cc8ed7"}),
    [](const ::testing::TestParamInfo<BenchCase>& info) {
      return std::string(info.param.bench);
    });

}  // namespace
}  // namespace dlrover
