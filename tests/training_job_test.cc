#include "ps/training_job.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions options;
  options.num_nodes = 20;
  options.node_capacity = {32.0, GiB(192)};
  return options;
}

JobSpec QuickSpec(uint64_t steps = 2000) {
  JobSpec spec;
  spec.name = "test-job";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = steps;
  return spec;
}

JobConfig TunedConfig() {
  JobConfig config;
  config.num_workers = 8;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);
  return config;
}

// Running pods whose name contains `role` ("-worker-", "-ps-").
std::vector<PodId> RunningPods(const Cluster& cluster,
                               const std::string& role = "-worker-") {
  std::vector<PodId> ids;
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kRunning &&
        pod.spec.name.find(role) != std::string::npos) {
      ids.push_back(pod.id);
    }
  });
  return ids;
}

int LivePods(const Cluster& cluster) {
  int count = 0;
  cluster.VisitPods([&](const Pod& pod) {
    if (!pod.terminal()) ++count;
  });
  return count;
}

TEST(TrainingJobTest, RunsToCompletion) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(), TunedConfig());
  job.Start();
  sim.RunUntil(Hours(4));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 2000u);
  EXPECT_GT(job.stats().Jct(), 0.0);
  EXPECT_GE(job.stats().first_training_time, 0.0);
}

TEST(TrainingJobTest, ThroughputMatchesIterationModel) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(120000);
  JobConfig config = TunedConfig();
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Minutes(10));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const IterationBreakdown iter = ComputeHealthyIteration(
      job.model_profile(), job.environment(), spec.batch_size, config);
  const double expected =
      ThroughputSamplesPerSec(iter, spec.batch_size, config.num_workers);
  // Average over the whole run: per-window samples are quantized by shard
  // completions, the long-run average is not.
  const double elapsed = Minutes(10) - job.stats().first_training_time;
  const double measured = static_cast<double>(job.batches_done()) *
                          static_cast<double>(spec.batch_size) / elapsed;
  ASSERT_GT(measured, 0.0);
  EXPECT_NEAR(measured, expected, expected * 0.12);
}

TEST(TrainingJobTest, SurvivesWorkerCrashWithDynamicSharding) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(60000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  // Crash two workers: shards must be re-queued, replacements created.
  int crashed = 0;
  for (PodId id : RunningPods(cluster)) {
    if (crashed >= 2) break;
    cluster.FailPod(id, PodStopReason::kCrash);
    ++crashed;
  }
  ASSERT_EQ(crashed, 2);
  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 60000u);
  EXPECT_EQ(job.stats().worker_failures, 2);
  EXPECT_EQ(job.stats().full_restarts, 0);
}

TEST(TrainingJobTest, StaticPartitionRestartsOnWorkerCrash) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.data_mode = DataMode::kStaticPartition;
  spec.use_flash_checkpoint = false;
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const std::vector<PodId> crash_targets = RunningPods(cluster);
  ASSERT_FALSE(crash_targets.empty());
  cluster.FailPod(crash_targets.front(), PodStopReason::kCrash);
  sim.RunUntil(Hours(8));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().full_restarts, 1);
  EXPECT_GT(job.stats().downtime_checkpoint, 0.0);
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);
}

TEST(TrainingJobTest, SeamlessScaleWorkersHasNoDowntime) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(120000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig bigger = job.config();
  bigger.num_workers += 8;
  ASSERT_TRUE(job.ApplyPlan(bigger, MigrationMode::kSeamless).ok());
  EXPECT_EQ(job.state(), JobState::kRunning);  // never paused
  sim.RunUntil(Minutes(15));
  EXPECT_EQ(job.ActiveWorkerCount(), 16);
  EXPECT_EQ(job.stats().scale_operations, 1);
  EXPECT_EQ(job.stats().downtime_checkpoint, 0.0);
  sim.RunUntil(Hours(6));
  EXPECT_EQ(job.state(), JobState::kCompleted);
}

TEST(TrainingJobTest, SeamlessMigrationMuchCheaperThanStopRestart) {
  auto run = [](bool flash, MigrationMode mode) {
    Simulator sim;
    Cluster cluster(&sim, SmallCluster());
    JobSpec spec = QuickSpec(120000);
    spec.use_flash_checkpoint = flash;
    TrainingJob job(&sim, &cluster, spec, TunedConfig());
    job.Start();
    sim.RunUntil(Minutes(5));
    JobConfig plan = job.config();
    plan.num_ps += 2;
    EXPECT_TRUE(job.ApplyPlan(plan, mode).ok());
    sim.RunUntil(Hours(8));
    EXPECT_EQ(job.state(), JobState::kCompleted);
    return job.stats();
  };
  const JobStats seamless = run(true, MigrationMode::kSeamless);
  const JobStats restart = run(false, MigrationMode::kStopAndRestart);
  EXPECT_EQ(seamless.migrations, 1);
  EXPECT_EQ(restart.migrations, 1);
  // Seamless + flash downtime is seconds; stop-and-restart is minutes.
  EXPECT_LT(seamless.downtime_checkpoint, Seconds(30));
  EXPECT_GT(restart.downtime_checkpoint, Minutes(2));
  EXPECT_GT(restart.downtime_waiting_pods, Seconds(20));
  EXPECT_EQ(seamless.downtime_waiting_pods, 0.0);
}

TEST(TrainingJobTest, UnplaceableSeamlessPlanIsRevertedByWatchdog) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(120000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const uint64_t before = job.batches_done();

  // Every staged worker asks for more CPU than any node has, so the staged
  // deployment never comes up and the migration can only be aborted.
  JobConfig oversized = TunedConfig();
  oversized.worker_cpu = 64.0;
  ASSERT_TRUE(job.ApplyPlan(oversized, MigrationMode::kSeamless).ok());
  EXPECT_EQ(job.state(), JobState::kMigrating);
  sim.RunUntil(sim.Now() + Minutes(11));
  EXPECT_EQ(job.state(), JobState::kMigrating);
  EXPECT_EQ(job.stats().seamless_aborts, 0);
  EXPECT_GT(job.batches_done(), before) << "old pods train while staged";

  sim.RunUntil(sim.Now() + Minutes(2));
  EXPECT_EQ(job.stats().seamless_aborts, 1);
  EXPECT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.config(), TunedConfig());
  EXPECT_EQ(job.stats().migrations, 0);
  // The old deployment is intact and the staged pods are gone.
  EXPECT_EQ(RunningPods(cluster).size(), 8u);
  EXPECT_EQ(RunningPods(cluster, "-ps-").size(), 2u);
  EXPECT_EQ(LivePods(cluster), 10);
  EXPECT_EQ(job.ActiveWorkerCount(), 8);

  sim.RunUntil(Hours(8));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 120000u);
  EXPECT_EQ(job.stats().worker_failures, 0);
}

TEST(TrainingJobTest, PodSetsMatchConfigAcrossEveryTransition) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(200000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  auto expect_pods_match_config = [&](const char* after) {
    EXPECT_EQ(job.state(), JobState::kRunning) << after;
    EXPECT_EQ(RunningPods(cluster).size(),
              static_cast<size_t>(job.config().num_workers))
        << after;
    EXPECT_EQ(RunningPods(cluster, "-ps-").size(),
              static_cast<size_t>(job.config().num_ps))
        << after;
    EXPECT_EQ(LivePods(cluster),
              job.config().num_workers + job.config().num_ps)
        << after;
    EXPECT_EQ(job.ActiveWorkerCount(), job.config().num_workers) << after;
  };

  JobConfig seamless = TunedConfig();
  seamless.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(seamless, MigrationMode::kSeamless).ok());
  sim.RunUntil(sim.Now() + Minutes(10));
  EXPECT_EQ(job.stats().migrations, 1);
  EXPECT_EQ(job.config(), seamless);
  expect_pods_match_config("seamless migration");

  JobConfig restart = seamless;
  restart.num_workers = 6;
  restart.worker_cpu = 6.0;
  ASSERT_TRUE(job.ApplyPlan(restart, MigrationMode::kStopAndRestart).ok());
  sim.RunUntil(sim.Now() + Minutes(15));
  EXPECT_EQ(job.stats().migrations, 2);
  EXPECT_EQ(job.config(), restart);
  expect_pods_match_config("stop-and-restart");

  const std::vector<PodId> ps_pods = RunningPods(cluster, "-ps-");
  ASSERT_FALSE(ps_pods.empty());
  cluster.FailPod(ps_pods.front(), PodStopReason::kCrash);
  EXPECT_EQ(job.state(), JobState::kRestoring);
  sim.RunUntil(sim.Now() + Minutes(10));
  EXPECT_EQ(job.stats().ps_failures, 1);
  EXPECT_EQ(job.stats().full_restarts, 0);
  expect_pods_match_config("PS recovery");

  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
  EXPECT_EQ(job.stats().seamless_aborts, 0);
}

TEST(TrainingJobTest, PsOomTriggersRecoveryAndVerticalScale) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.checkpoint_interval = Minutes(2);
  JobConfig config = TunedConfig();
  config.ps_memory = GiB(4.5);  // too small: embedding growth will blow it
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Hours(12));
  // The job OOMs at least once, recovers with more memory, and finishes.
  EXPECT_GE(job.stats().oom_events, 1);
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_GT(job.config().ps_memory, GiB(4.5));
}

TEST(TrainingJobTest, OomPreventionAvoidsOomEntirely) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  JobConfig config = TunedConfig();
  config.ps_memory = GiB(4.5);
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  // A master loop that runs the OOM predictor periodically.
  PeriodicTask guard(&sim, Minutes(1), [&job] { job.MaybePreventOom(); });
  guard.Start();
  sim.RunUntil(Hours(12));
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().oom_events, 0);
  EXPECT_GT(job.config().ps_memory, GiB(4.5));
}

TEST(TrainingJobTest, StopAndRestartMigrationFlushesFlashCache) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  // Disarm the periodic checkpoint so any flush observed here comes from
  // the migration path itself.
  spec.checkpoint_interval = Hours(100);
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  ASSERT_DOUBLE_EQ(job.flash_cache().flushed_bytes(), 0.0);

  JobConfig bigger = TunedConfig();
  bigger.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(bigger, MigrationMode::kStopAndRestart).ok());
  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().migrations, 1);
  // The migration checkpoint went to the flash tier and must have been
  // asynchronously persisted to RDS, not left in volatile memory only.
  EXPECT_GT(job.flash_cache().flushed_bytes(), 0.0);
}

TEST(TrainingJobTest, StragglerMitigationShrinksShards) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(60000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  // Degrade one worker pod to 3% speed (paper's straggler experiment).
  const std::vector<PodId> degrade_targets = RunningPods(cluster);
  ASSERT_FALSE(degrade_targets.empty());
  cluster.DegradePod(degrade_targets.front(), 0.03);
  PeriodicTask mitigate(&sim, Seconds(30), [&job] { job.MitigateStragglers(); });
  mitigate.Start();
  sim.RunUntil(Minutes(30));
  EXPECT_GE(job.stats().stragglers_mitigated, 1);
}

}  // namespace
}  // namespace dlrover
