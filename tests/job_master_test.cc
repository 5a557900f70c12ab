#include "master/job_master.h"

#include <gtest/gtest.h>

#include "baselines/manual.h"
#include "cluster/cluster.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

struct TestSetup {
  Simulator sim;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TrainingJob> job;

  explicit TestSetup(uint64_t steps = 80000, Bytes ps_memory = GiB(12)) {
    ClusterOptions options;
    options.num_nodes = 20;
    cluster = std::make_unique<Cluster>(&sim, options);
    JobSpec spec;
    spec.total_steps = steps;
    JobConfig config;
    config.num_workers = 12;
    config.num_ps = 3;
    config.worker_cpu = 8.0;
    config.ps_cpu = 6.0;
    config.worker_memory = GiB(6);
    config.ps_memory = ps_memory;
    job = std::make_unique<TrainingJob>(&sim, cluster.get(), spec, config);
    job->Start();
  }
};

TEST(JobMasterTest, MitigatesInjectedStraggler) {
  TestSetup setup;
  JobMaster master(&setup.sim, setup.job.get());
  master.Start();
  setup.sim.RunUntil(Minutes(5));
  ASSERT_EQ(setup.job->state(), JobState::kRunning);
  // Degrade one worker pod.
  PodId victim = 0;
  setup.cluster->VisitRunningPods(PriorityClass::kTraining,
                                  [&](const Pod& pod) {
    if (victim == 0 && pod.spec.name.find("-worker-") != std::string::npos) {
      victim = pod.id;
    }
  });
  ASSERT_NE(victim, 0u);
  setup.cluster->DegradePod(victim, 0.05);
  setup.sim.RunUntil(Minutes(25));
  EXPECT_GE(setup.job->stats().stragglers_mitigated, 1);
}

TEST(JobMasterTest, OomGuardPreScalesMemory) {
  TestSetup setup(/*steps=*/100000, /*ps_memory=*/GiB(5));
  JobMaster master(&setup.sim, setup.job.get());
  master.Start();
  setup.sim.RunUntil(Hours(6));
  EXPECT_EQ(setup.job->stats().oom_events, 0);
  EXPECT_GT(setup.job->config().ps_memory, GiB(5));
}

TEST(JobMasterTest, GuardsCanBeDisabled) {
  TestSetup setup(/*steps=*/100000, /*ps_memory=*/GiB(5));
  JobMasterOptions options;
  options.oom_prevention = false;
  JobMaster master(&setup.sim, setup.job.get(), options);
  master.Start();
  setup.sim.RunUntil(Hours(6));
  // Without the guard the growth must hit the limit at least once
  // (recovery then bumps memory reactively).
  EXPECT_GE(setup.job->stats().oom_events, 1);
}

TEST(PolicyDriverTest, AppliesPolicyPlansOnSchedule) {
  TestSetup setup(/*steps=*/150000);
  // A policy that always proposes +1 worker, seamlessly.
  class GrowPolicy : public ScalingPolicy {
   public:
    std::string name() const override { return "grow"; }
    std::optional<ResourcePlan> Propose(TrainingJob& job) override {
      if (job.state() != JobState::kRunning) return std::nullopt;
      ResourcePlan plan;
      plan.config = job.config();
      ++plan.config.num_workers;
      plan.mode = MigrationMode::kSeamless;
      return plan;
    }
  };
  GrowPolicy policy;
  PolicyDriver driver(&setup.sim, &policy, Minutes(3));
  driver.AddJob(setup.job.get());
  driver.Start();
  setup.sim.RunUntil(Minutes(20));
  EXPECT_GE(driver.plans_applied(), 3);
  EXPECT_GT(setup.job->config().num_workers, 12);
}

TEST(PolicyDriverTest, SkipsFinishedJobs) {
  TestSetup setup(/*steps=*/4000);  // finishes quickly
  ManualPolicy noop;
  PolicyDriver driver(&setup.sim, &noop, Minutes(3));
  driver.AddJob(setup.job.get());
  driver.Start();
  setup.sim.RunUntil(Hours(2));
  EXPECT_EQ(setup.job->state(), JobState::kCompleted);
  EXPECT_EQ(driver.plans_applied(), 0);
}

// ---------------------------------------------------------------------------
// Master failover + plan fencing (control channel attached)
// ---------------------------------------------------------------------------

/// TestSetup plus an attached control channel with a healthy network: the
/// failover/fencing machinery is live but no chaos perturbs deliveries.
struct ChannelSetup : TestSetup {
  ControlChannel channel;

  ChannelSetup()
      : channel(&sim, [] {
          ControlChannelOptions options;
          options.enabled = true;
          options.seed = 5;
          return options;
        }()) {
    cluster->set_control_channel(&channel);
  }
};

JobConfig GrownConfig(const TrainingJob& job) {
  JobConfig config = job.config();
  ++config.num_workers;
  return config;
}

TEST(JobMasterFailoverTest, CrashStopsPoliciesWorkersContinueRestartResumes) {
  ChannelSetup setup;
  JobMaster master(&setup.sim, setup.job.get());
  master.AttachChannel(&setup.channel);
  master.Start();
  setup.sim.RunUntil(Minutes(5));
  ASSERT_EQ(setup.job->state(), JobState::kRunning);
  const uint64_t batches_at_crash = setup.job->batches_done();

  ASSERT_EQ(setup.channel.CrashMasterByOrdinal(0), master.channel_handle());
  EXPECT_FALSE(master.up());
  EXPECT_EQ(master.crashes(), 1u);

  // Workers keep training their current shards under the last-known plan
  // while the master is down.
  setup.sim.RunUntil(Minutes(5) + Seconds(30));
  EXPECT_EQ(setup.job->state(), JobState::kRunning);
  EXPECT_GT(setup.job->batches_done(), batches_at_crash);

  // Deterministic failover: the replacement comes up after the restart
  // delay with a bumped epoch, and the job still trains to completion.
  setup.sim.RunUntil(Minutes(7));
  EXPECT_TRUE(master.up());
  EXPECT_EQ(master.restarts(), 1u);
  EXPECT_EQ(setup.channel.MasterEpoch(master.channel_handle()), 1u);
  setup.sim.RunUntil(Hours(8));
  EXPECT_EQ(setup.job->state(), JobState::kCompleted);
}

TEST(JobMasterFailoverTest, MasterGateRejectsDuplicatePlanSequence) {
  ChannelSetup setup;
  JobMaster master(&setup.sim, setup.job.get());
  master.AttachChannel(&setup.channel);
  master.Start();
  setup.sim.RunUntil(Minutes(5));
  ASSERT_EQ(setup.job->state(), JobState::kRunning);

  const JobConfig grown = GrownConfig(*setup.job);
  ASSERT_TRUE(setup.job
                  ->DeliverPlanFromBrain(grown, MigrationMode::kSeamless, 1)
                  .ok());
  const int workers_after_first = setup.job->config().num_workers;

  // A duplicate/reordered copy of the same plan arrives again: the
  // master-side sequence gate rejects it before the job ever sees it.
  const Status replay =
      setup.job->DeliverPlanFromBrain(grown, MigrationMode::kSeamless, 1);
  EXPECT_EQ(replay.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(master.plans_gated_stale(), 1u);
  EXPECT_EQ(setup.channel.stats().plans_fenced_stale, 1u);
  EXPECT_EQ(setup.job->config().num_workers, workers_after_first);

  // The next fresh sequence still applies.
  EXPECT_TRUE(setup.job
                  ->DeliverPlanFromBrain(GrownConfig(*setup.job),
                                         MigrationMode::kSeamless, 2)
                  .ok());
}

TEST(JobMasterFailoverTest, SnapshotRollbackReplayAbsorbedByJobFence) {
  ChannelSetup setup;
  JobMaster master(&setup.sim, setup.job.get());
  master.AttachChannel(&setup.channel);
  master.Start();
  setup.sim.RunUntil(Minutes(5));
  ASSERT_EQ(setup.job->state(), JobState::kRunning);

  // Plan seq 1 applies after the last tick snapshot, so the crash below
  // rolls the master's watermark back past it — the deliberately lossy
  // part of failover.
  ASSERT_TRUE(setup.job
                  ->DeliverPlanFromBrain(GrownConfig(*setup.job),
                                         MigrationMode::kSeamless, 1)
                  .ok());
  const int workers_after_first = setup.job->config().num_workers;
  ASSERT_EQ(setup.channel.CrashMasterByOrdinal(0), master.channel_handle());
  EXPECT_EQ(master.snapshot_last_plan_seq(), 0u);

  setup.sim.RunUntil(Minutes(7));
  ASSERT_TRUE(master.up());

  // A replayed copy of seq 1 now passes the master gate (its watermark was
  // rolled back), but the job-level fence — which does not crash with the
  // master — absorbs it.
  const Status replay = setup.job->DeliverPlanFromBrain(
      GrownConfig(*setup.job), MigrationMode::kSeamless, 1);
  EXPECT_EQ(replay.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(master.plans_gated_stale(), 0u)
      << "the rolled-back master cannot see the replay as stale";
  EXPECT_GE(setup.job->stats().plans_fenced, 1);
  EXPECT_EQ(setup.job->config().num_workers, workers_after_first)
      << "the replay must not double-apply";
}

TEST(JobMasterFailoverTest, DownMasterGateIsUnavailable) {
  ChannelSetup setup;
  JobMaster master(&setup.sim, setup.job.get());
  master.AttachChannel(&setup.channel);
  master.Start();
  setup.sim.RunUntil(Minutes(5));

  ASSERT_GE(setup.channel.CrashMasterByOrdinal(0), 0);
  const Status status = setup.job->DeliverPlanFromBrain(
      GrownConfig(*setup.job), MigrationMode::kSeamless, 1);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dlrover
