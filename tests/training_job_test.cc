#include "ps/training_job.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "common/rng.h"
#include "master/job_master.h"
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

// Running pods whose name contains `role` ("-worker-", "-ps-"), in
// creation order.
std::vector<PodId> RunningPods(const Cluster& cluster,
                               const std::string& role = "-worker-") {
  std::vector<PodId> ids;
  cluster.VisitRunningPods(PriorityClass::kTraining, [&](const Pod& pod) {
    if (pod.spec.name.find(role) != std::string::npos) ids.push_back(pod.id);
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

// The live pod named `name` (a recovered PS reuses its name), or 0.
PodId LivePod(const Cluster& cluster, const std::string& name) {
  PodId id = 0;
  cluster.VisitPods([&](const Pod& pod) {
    if (!pod.terminal() && pod.spec.name == name) id = pod.id;
  });
  return id;
}

// A steady job runs exactly the pods its config asks for.
void ExpectPodsMatchConfig(const TrainingJob& job, const Cluster& cluster,
                           const char* after) {
  EXPECT_EQ(job.state(), JobState::kRunning) << after;
  EXPECT_EQ(RunningPods(cluster).size(),
            static_cast<size_t>(job.config().num_workers))
      << after;
  EXPECT_EQ(RunningPods(cluster, "-ps-").size(),
            static_cast<size_t>(job.config().num_ps))
      << after;
  EXPECT_EQ(LivePods(cluster), job.config().num_workers + job.config().num_ps)
      << after;
  EXPECT_EQ(job.ActiveWorkerCount(), job.config().num_workers) << after;
}

// Runs events one at a time until `done()` holds. A transition charges its
// checkpoint or pod-wait downtime when it schedules its deferred step, so
// stepping until a downtime counter moves stops at the start of that step's
// window. Returns false if `horizon` passes first.
template <typename Pred>
bool StepUntil(Simulator& sim, SimTime horizon, Pred done) {
  while (!done()) {
    if (sim.Now() > horizon || !sim.Step()) return false;
  }
  return true;
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

  JobConfig seamless = TunedConfig();
  seamless.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(seamless, MigrationMode::kSeamless).ok());
  sim.RunUntil(sim.Now() + Minutes(10));
  EXPECT_EQ(job.stats().migrations, 1);
  EXPECT_EQ(job.config(), seamless);
  ExpectPodsMatchConfig(job, cluster, "seamless migration");

  JobConfig restart = seamless;
  restart.num_workers = 6;
  restart.worker_cpu = 6.0;
  ASSERT_TRUE(job.ApplyPlan(restart, MigrationMode::kStopAndRestart).ok());
  sim.RunUntil(sim.Now() + Minutes(15));
  EXPECT_EQ(job.stats().migrations, 2);
  EXPECT_EQ(job.config(), restart);
  ExpectPodsMatchConfig(job, cluster, "stop-and-restart");

  const std::vector<PodId> ps_pods = RunningPods(cluster, "-ps-");
  ASSERT_FALSE(ps_pods.empty());
  cluster.FailPod(ps_pods.front(), PodStopReason::kCrash);
  EXPECT_EQ(job.state(), JobState::kRestoring);
  sim.RunUntil(sim.Now() + Minutes(10));
  EXPECT_EQ(job.stats().ps_failures, 1);
  EXPECT_EQ(job.stats().full_restarts, 0);
  ExpectPodsMatchConfig(job, cluster, "PS recovery");

  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
  EXPECT_EQ(job.stats().seamless_aborts, 0);
}

// The four tests below each end a transition inside the window of one of its
// deferred steps. The restart that ends it wins: the stale step is dropped,
// the pods match the config, and the job completes.

TEST(TrainingJobTest, RestartInsideSeamlessHandOffDropsTheHandOff) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(200000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig plan = TunedConfig();
  plan.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  // Every staged pod runs: the hand-off pauses and charges save + load.
  ASSERT_TRUE(StepUntil(sim, Hours(1), [&] {
    return job.stats().downtime_checkpoint > 0.0;
  }));
  const Duration handoff = job.stats().downtime_checkpoint;
  // An old PS dies inside the hand-off window; a PS loss during a
  // transition is a full restart, which ends the migration.
  cluster.FailPod(LivePod(cluster, "test-job-ps-0"), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);
  sim.RunUntil(sim.Now() + Minutes(15));
  EXPECT_EQ(job.config(), TunedConfig());
  EXPECT_EQ(job.stats().migrations, 0);
  ExpectPodsMatchConfig(job, cluster, "restart in the hand-off");
  EXPECT_GT(job.stats().downtime_checkpoint, handoff);
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
}

TEST(TrainingJobTest, RestartInsidePsRecoveryLoadDropsTheLoad) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(200000);
  spec.use_flash_checkpoint = false;  // an RDS read: a minutes-long window
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  cluster.FailPod(LivePod(cluster, "test-job-ps-0"), PodStopReason::kCrash);
  ASSERT_EQ(job.state(), JobState::kRestoring);
  // The replacement PS runs: the recovery charges its checkpoint load.
  ASSERT_TRUE(StepUntil(sim, Hours(1), [&] {
    return job.stats().downtime_checkpoint > 0.0;
  }));
  const Duration load = job.stats().downtime_checkpoint;
  cluster.FailPod(LivePod(cluster, "test-job-ps-1"), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);
  sim.RunUntil(sim.Now() + Minutes(20));
  ExpectPodsMatchConfig(job, cluster, "restart in the PS-recovery load");
  // The restart waited for its pods and read the checkpoint again.
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);
  EXPECT_GT(job.stats().downtime_checkpoint, load);
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
}

TEST(TrainingJobTest, RestartInsideRestartResumeDropsTheResume) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(100000);
  spec.data_mode = DataMode::kStaticPartition;  // a worker loss restarts
  spec.use_flash_checkpoint = false;
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  cluster.FailPod(RunningPods(cluster).front(), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);
  // Every pod runs again: the restart charges its pod wait and schedules
  // the resume behind the checkpoint read and the re-partition.
  ASSERT_TRUE(StepUntil(sim, Hours(1), [&] {
    return job.stats().downtime_waiting_pods > 0.0;
  }));
  const Duration first_wait = job.stats().downtime_waiting_pods;
  cluster.FailPod(RunningPods(cluster).front(), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 2);
  const JobStats before = job.stats();
  ASSERT_TRUE(StepUntil(sim, Hours(2), [&] {
    return job.stats().downtime_waiting_pods > first_wait;
  }));
  // The second restart's resume is due after its own read and re-partition;
  // until then the job stays paused at its checkpoint.
  const Duration resume =
      (job.stats().downtime_checkpoint - before.downtime_checkpoint) +
      (job.stats().downtime_repartition - before.downtime_repartition);
  const uint64_t restored = job.batches_done();
  sim.RunUntil(sim.Now() + resume - Seconds(1));
  EXPECT_EQ(job.state(), JobState::kRestoring);
  EXPECT_EQ(job.batches_done(), restored);
  sim.RunUntil(sim.Now() + Minutes(20));
  ExpectPodsMatchConfig(job, cluster, "restart in the restart resume");
  EXPECT_GT(job.stats().downtime_waiting_pods, first_wait);
  EXPECT_EQ(job.stats().downtime_repartition, 2 * Seconds(75));
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 100000u);
}

TEST(TrainingJobTest, PsLossInsideStopAndRestartSaveDropsTheSave) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(200000);
  spec.use_flash_checkpoint = false;  // an RDS save: a minutes-long window
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig plan = TunedConfig();
  plan.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kStopAndRestart).ok());
  const Duration save = job.stats().downtime_checkpoint;
  ASSERT_GT(save, 0.0);
  sim.RunUntil(sim.Now() + save / 2);
  // A PS dies while the migration checkpoint is still being written: the
  // full restart rebuilds the current config, and the plan it interrupted
  // does not apply afterwards.
  cluster.FailPod(LivePod(cluster, "test-job-ps-0"), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);
  sim.RunUntil(sim.Now() + Minutes(20));
  EXPECT_EQ(job.config(), TunedConfig());
  ExpectPodsMatchConfig(job, cluster, "PS loss in the stop-and-restart save");
  EXPECT_GT(job.stats().downtime_checkpoint, save);
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
}

TEST(TrainingJobTest, PsLossInsideRestartResumeRecoversThenResumes) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(200000);
  spec.use_flash_checkpoint = false;
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  // A second PS loss during a PS recovery is a full restart.
  cluster.FailPod(LivePod(cluster, "test-job-ps-0"), PodStopReason::kCrash);
  cluster.FailPod(LivePod(cluster, "test-job-ps-1"), PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);
  ASSERT_TRUE(StepUntil(sim, Hours(1), [&] {
    return job.stats().downtime_waiting_pods > 0.0;
  }));
  // The restart's resume is pending when a PS dies again: the PS recovery
  // that starts now owns the pause, and the restart's resume is dropped.
  cluster.FailPod(RunningPods(cluster, "-ps-").front(), PodStopReason::kCrash);
  EXPECT_EQ(job.state(), JobState::kRestoring);
  EXPECT_EQ(job.stats().ps_failures, 3);
  EXPECT_EQ(job.stats().full_restarts, 1);
  const Duration before = job.stats().downtime_checkpoint;
  ASSERT_TRUE(StepUntil(sim, Hours(2), [&] {
    return job.stats().downtime_checkpoint > before;
  }));
  // No training until the recovery's checkpoint load is done.
  const Duration load = job.stats().downtime_checkpoint - before;
  const uint64_t restored = job.batches_done();
  sim.RunUntil(sim.Now() + load - Seconds(1));
  EXPECT_EQ(job.state(), JobState::kRestoring);
  EXPECT_EQ(job.batches_done(), restored);
  sim.RunUntil(sim.Now() + Minutes(20));
  ExpectPodsMatchConfig(job, cluster, "PS loss in the restart resume");
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
}

TEST(TrainingJobTest, WorkerLostInsideHandOffIsReplaced) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(200000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig plan = TunedConfig();
  plan.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  ASSERT_TRUE(StepUntil(sim, Hours(1), [&] {
    return job.stats().downtime_checkpoint > 0.0;
  }));
  // Workers 0-7 are the old deployment; 8-15 are staged. A staged worker
  // dies inside the hand-off window, so the swap brings in seven.
  cluster.FailPod(LivePod(cluster, "test-job-worker-8"), PodStopReason::kCrash);
  sim.RunUntil(sim.Now() + Minutes(15));
  EXPECT_EQ(job.stats().migrations, 1);
  EXPECT_EQ(job.config(), plan);
  ExpectPodsMatchConfig(job, cluster, "worker lost in the hand-off");
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
}

// The job holds a member for each of its live pods and for nothing else:
// a crashed worker, a scaled-down one and a migrated-away deployment are
// all let go, however many cycles the job runs.
TEST(TrainingJobTest, HoldsExactlyItsLiveMembers) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(2000000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  auto expect_live = [&](int cycle) {
    EXPECT_EQ(job.member_count(), static_cast<size_t>(LivePods(cluster)))
        << "cycle " << cycle;
  };
  Rng rng(7);
  for (int cycle = 0; cycle < 24; ++cycle) {
    const std::vector<PodId> workers = RunningPods(cluster);
    ASSERT_FALSE(workers.empty());
    cluster.FailPod(workers[rng.UniformInt(workers.size())],
                    PodStopReason::kCrash);
    expect_live(cycle);
    sim.RunUntil(sim.Now() + Minutes(2));
    expect_live(cycle);
    JobConfig plan = job.config();
    if (cycle % 3 == 0) {  // a seamless migration of the whole deployment
      plan.num_ps = plan.num_ps == 2 ? 3 : 2;
    } else {  // a worker-count-only change: scale up, then back down
      plan.num_workers = cycle % 3 == 1 ? 12 : 8;
    }
    ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
    expect_live(cycle);
    sim.RunUntil(sim.Now() + Minutes(10));
    ExpectPodsMatchConfig(job, cluster, "a crash and a plan");
    expect_live(cycle);
  }
  EXPECT_EQ(job.stats().worker_failures, 24);
  EXPECT_EQ(job.stats().migrations, 8);
  EXPECT_EQ(job.stats().scale_operations, 16);
  EXPECT_EQ(job.member_count(), 10u);
}

// A staged worker that dies before every staged pod runs leaves the staged
// set short. The hand-off must not go ahead with it: the migration waits
// until the watchdog reverts it onto the old deployment.
TEST(TrainingJobTest, StagedWorkerLostBeforeHandOffBlocksIt) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(200000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig plan = TunedConfig();
  plan.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  // Workers 0-7 are the old deployment; 8-15 are staged and still starting.
  const PodId staged = LivePod(cluster, "test-job-worker-8");
  ASSERT_NE(staged, 0u);
  ASSERT_EQ(cluster.GetPod(staged)->phase, PodPhase::kStarting);
  cluster.FailPod(staged, PodStopReason::kCrash);
  EXPECT_EQ(job.stats().worker_failures, 1);
  EXPECT_EQ(job.member_count(), 8u + 2u + 7u + 3u);
  EXPECT_EQ(job.member_count(), static_cast<size_t>(LivePods(cluster)));

  sim.RunUntil(sim.Now() + Minutes(11));
  EXPECT_EQ(job.state(), JobState::kMigrating);
  EXPECT_EQ(job.stats().migrations, 0);
  EXPECT_EQ(job.stats().downtime_checkpoint, 0.0) << "no hand-off began";
  sim.RunUntil(sim.Now() + Minutes(2));
  EXPECT_EQ(job.stats().seamless_aborts, 1);
  EXPECT_EQ(job.stats().migrations, 0);
  EXPECT_EQ(job.config(), TunedConfig());
  ExpectPodsMatchConfig(job, cluster, "the watchdog abort");
  EXPECT_EQ(job.member_count(), 10u);
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 200000u);
  EXPECT_EQ(job.member_count(), 0u);
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

// ---------------------------------------------------------------------------
// Single-job property test: seeded interleavings of everything that moves a
// TrainingJob between deployments, checked after every simulator event.
//
// Each seed runs one dynamically sharded job under its JobMaster and, for a
// few simulated hours, mixes plan applies (seamless and stop-and-restart,
// numbered like the brain's), node drains, node faults, PS and worker losses
// and master crashes. Most faults land at random times. The rest land at the
// start of a transition's deferred step (a checkpoint hand-off, a PS-recovery
// load, a restart resume, a stop-and-restart save), which is where
// overlapping transitions race. The properties:
//
//   - the job is never kRunning with no live member, and it holds exactly
//     one member per live pod;
//   - committed batches never exceed the step budget, and the job completes
//     with exactly its budget (no shard is trained twice);
//   - the config changes only to the last accepted plan, and never after a
//     restart or a watchdog abort ended that plan's transition (no stale
//     plan is applied);
//   - once the faults stop and the job settles, its pod sets match its
//     config.

constexpr uint64_t kSteps = 400000;
constexpr SimTime kFaultsEnd = Hours(3);
constexpr Duration kSettle = Minutes(40);

JobConfig RandomConfig(Rng& rng) {
  JobConfig config;
  config.num_workers = static_cast<int>(rng.UniformInt(int64_t{3}, 10));
  config.num_ps = static_cast<int>(rng.UniformInt(int64_t{1}, 4));
  config.worker_cpu = 4.0 + 2.0 * static_cast<double>(rng.UniformInt(3));
  config.ps_cpu = 2.0 + 2.0 * static_cast<double>(rng.UniformInt(3));
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(64);
  return config;
}

class PropertyScenario {
 public:
  explicit PropertyScenario(uint64_t seed)
      : rng_(seed), cluster_(&sim_, Nodes()) {
    JobSpec spec;
    spec.name = "prop";
    spec.total_steps = kSteps;
    spec.seed = seed;
    spec.max_restarts = 1000;  // faults here restart far more than the budget
    spec.use_flash_checkpoint = rng_.UniformInt(2) == 0;
    JobConfig initial = RandomConfig(rng_);
    job_.emplace(&sim_, &cluster_, spec, initial);
    config_ = initial;
    JobMasterOptions options;
    options.oom_prevention = false;  // only the test's plans move the config
    master_.emplace(&sim_, &*job_, options);
  }

  // Runs the fault phase, the settling period and the tail to completion,
  // checking the properties after every event.
  void Run() {
    job_->Start();
    master_->Start();
    SimTime next_action = Minutes(5);
    while (sim_.Now() < kFaultsEnd && !job_->finished()) {
      if (sim_.Now() >= next_action) {
        RandomAction();
        next_action = sim_.Now() + Minutes(rng_.Uniform(1.0, 8.0));
      }
      const JobStats before = job_->stats();
      if (!Step()) return;
      const bool step_began =
          job_->stats().downtime_checkpoint > before.downtime_checkpoint ||
          job_->stats().downtime_waiting_pods > before.downtime_waiting_pods;
      if (step_began && rng_.UniformInt(2) == 0) Fault();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Settle: no more faults, the master is back and no node is cordoned.
    if (!master_->up()) master_->OnMasterRestart();
    for (NodeId node : drained_) cluster_.UncordonNode(node);
    const SimTime settled = sim_.Now() + kSettle;
    while (sim_.Now() < settled && !job_->finished()) {
      if (!Step()) return;
    }
    ASSERT_FALSE(job_->finished())
        << "the job must still run when it settles: "
        << JobStateName(job_->state()) << " " << job_->stats().fail_reason;
    ExpectPodsMatchConfig(*job_, cluster_, "settled after the faults");
    while (!job_->finished() && sim_.Now() < Hours(48)) {
      if (!Step()) return;
    }
    ASSERT_EQ(job_->state(), JobState::kCompleted)
        << job_->stats().fail_reason;
    EXPECT_EQ(job_->batches_done(), kSteps);
  }

  const TrainingJob& job() const { return *job_; }

 private:
  static ClusterOptions Nodes() {
    ClusterOptions options;
    options.num_nodes = 24;
    options.node_capacity = {32.0, GiB(192)};
    return options;
  }

  // One event, then the per-event properties.
  bool Step() {
    if (!sim_.Step()) {
      ADD_FAILURE() << "the event queue ran dry at t=" << sim_.Now();
      return false;
    }
    CheckEvent();
    return !::testing::Test::HasFatalFailure();
  }

  void CheckEvent() {
    ASSERT_LE(job_->batches_done(), kSteps) << "a shard committed twice";
    ASSERT_EQ(job_->stats().oom_events, 0) << "OOM recovery moved the config";
    if (job_->config() != config_) {
      ASSERT_TRUE(plan_.has_value() && job_->config() == *plan_)
          << "config moved to " << job_->config().ToString()
          << " with no live plan for it at t=" << sim_.Now();
      config_ = job_->config();
    }
    NoteTransitionEnds();
    ASSERT_EQ(job_->member_count(), static_cast<size_t>(LivePods(cluster_)))
        << "a member outlived its pod at t=" << sim_.Now();
    if (job_->state() == JobState::kRunning && job_->ActiveWorkerCount() == 0) {
      ASSERT_GT(LivePods(cluster_), 0)
          << "kRunning with no live member at t=" << sim_.Now();
    }
  }

  // A restart or a watchdog abort ends the transition in flight: the plan it
  // was applying must never land afterwards.
  void NoteTransitionEnds() {
    const JobStats& stats = job_->stats();
    if (stats.full_restarts != restarts_ ||
        stats.seamless_aborts != aborts_) {
      plan_.reset();
      restarts_ = stats.full_restarts;
      aborts_ = stats.seamless_aborts;
    }
  }

  void RandomAction() {
    switch (rng_.UniformInt(6)) {
      case 0:
      case 1: {
        const JobConfig plan = RandomConfig(rng_);
        const MigrationMode mode = rng_.UniformInt(2) == 0
                                       ? MigrationMode::kSeamless
                                       : MigrationMode::kStopAndRestart;
        if (job_->DeliverPlanFromBrain(plan, mode, ++plan_seq_).ok()) {
          plan_ = plan;
        }
        break;
      }
      case 2:
        Drain();
        break;
      default:
        Fault();
        break;
    }
    CheckEvent();
  }

  void Fault() {
    switch (rng_.UniformInt(4)) {
      case 0:
        FailOne("-worker-");
        break;
      case 1:
        FailOne("-ps-");
        break;
      case 2: {  // a node fault: every running pod on one node crashes
        const std::vector<PodId> pods = RunningPods(cluster_, "-");
        if (pods.empty()) break;
        const NodeId node = NodeOf(pods[rng_.UniformInt(pods.size())]);
        // A failure can take the job's other pods down with it (a restart),
        // so each one is looked up again before it fails.
        for (PodId id : pods) {
          const Pod* pod = cluster_.GetPod(id);
          if (pod != nullptr && pod->phase == PodPhase::kRunning &&
              pod->node == node) {
            cluster_.FailPod(id, PodStopReason::kCrash);
          }
        }
        break;
      }
      default:
        if (!master_->up()) break;
        master_->OnMasterCrash();
        sim_.ScheduleAfter(Minutes(rng_.Uniform(1.0, 6.0)), [this] {
          if (!master_->up()) master_->OnMasterRestart();
        });
        break;
    }
    NoteTransitionEnds();
  }

  void FailOne(const char* role) {
    const std::vector<PodId> pods = RunningPods(cluster_, role);
    if (pods.empty()) return;
    cluster_.FailPod(pods[rng_.UniformInt(pods.size())],
                     PodStopReason::kCrash);
  }

  // Drains the node of a random running pod (at most two at a time); the
  // master's next tick evacuates it.
  void Drain() {
    if (drained_.size() >= 2) {
      cluster_.UncordonNode(drained_.front());
      drained_.erase(drained_.begin());
    }
    const std::vector<PodId> pods = RunningPods(cluster_, "-");
    if (pods.empty()) return;
    const NodeId node = NodeOf(pods[rng_.UniformInt(pods.size())]);
    for (NodeId d : drained_) {
      if (d == node) return;
    }
    cluster_.DrainNode(node);
    drained_.push_back(node);
  }

  NodeId NodeOf(PodId running_pod) const {
    return cluster_.GetPod(running_pod)->node;
  }

  Rng rng_;
  Simulator sim_;
  Cluster cluster_;
  std::optional<TrainingJob> job_;
  std::optional<JobMaster> master_;
  JobConfig config_;               // last config seen
  std::optional<JobConfig> plan_;  // last accepted plan still in force
  uint64_t plan_seq_ = 0;
  int restarts_ = 0;
  int aborts_ = 0;
  std::vector<NodeId> drained_;
};

class TrainingJobPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrainingJobPropertyTest, TransitionsInterleaveSafely) {
  PropertyScenario scenario(GetParam());
  scenario.Run();
  // The interleaving must have exercised the transitions it is about.
  const JobStats& stats = scenario.job().stats();
  EXPECT_GT(stats.migrations + stats.full_restarts, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainingJobPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace dlrover
