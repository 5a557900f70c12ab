#include "elastic/chaos.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dlrm/async_trainer.h"

namespace dlrover {
namespace {

MiniDlrmConfig SmallModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 6;
  config.hash_buckets = 1024;
  config.mlp_hidden = {16, 8};
  config.seed = 5;
  return config;
}

AsyncTrainerOptions ThreadedRun(uint64_t seed) {
  AsyncTrainerOptions options;
  options.num_workers = 6;
  options.batch_size = 64;
  options.total_batches = 600;
  options.learning_rate = 0.12;
  options.shard_batches = 12;
  options.eval_every_batches = 200;
  options.seed = seed;
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  return options;
}

FaultToleranceOptions TestFt() {
  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.checkpoint_every_batches = 96;
  ft.heartbeat_timeout_ms = 250.0;
  ft.supervisor_poll_ms = 1.0;
  return ft;
}

ChaosScheduleOptions FullSchedule(uint64_t seed) {
  ChaosScheduleOptions options;
  options.seed = seed;
  options.total_batches = 600;
  return options;  // one fault of every kind, spread over the mid-run
}

TEST(ChaosInjectorTest, SameSeedSameSchedule) {
  const ChaosInjector a = ChaosInjector::FromSeed(FullSchedule(9));
  const ChaosInjector b = ChaosInjector::FromSeed(FullSchedule(9));
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  ASSERT_EQ(a.schedule().size(), 6u);
  for (size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].at_batches, b.schedule()[i].at_batches);
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
  }
  const ChaosInjector c = ChaosInjector::FromSeed(FullSchedule(10));
  bool differs = false;
  for (size_t i = 0; i < c.schedule().size(); ++i) {
    if (c.schedule()[i].at_batches != a.schedule()[i].at_batches) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "different seeds must give different schedules";
}

TEST(ChaosInjectorTest, ScheduleStaysInsideTheWindow) {
  ChaosScheduleOptions options = FullSchedule(3);
  options.torn_checkpoint_writes = 4;
  const ChaosInjector injector = ChaosInjector::FromSeed(options);
  ASSERT_EQ(injector.schedule().size(),
            6u * ChaosInjector::kFaultsPerKind + 4u);
  for (const ChaosFault& fault : injector.schedule()) {
    const double at = static_cast<double>(fault.at_batches);
    EXPECT_GE(at, std::floor(ChaosInjector::kWindowBegin * 600));
    EXPECT_LT(at, ChaosInjector::kWindowEnd * 600);
  }
}

TEST(ChaosInjectorTest, TakeFiresEachFaultOnceInTriggerOrder) {
  std::vector<ChaosFault> schedule = {
      {20, ChaosFaultKind::kCrashBeforePush},
      {10, ChaosFaultKind::kCrashBeforePush},
      {15, ChaosFaultKind::kStallWorker},
  };
  ChaosInjector injector(std::move(schedule));
  EXPECT_FALSE(injector.Take(ChaosFaultKind::kCrashBeforePush, 9));
  EXPECT_FALSE(injector.Due(ChaosFaultKind::kCrashBeforePush, 9));
  EXPECT_TRUE(injector.Due(ChaosFaultKind::kCrashBeforePush, 10));
  EXPECT_TRUE(injector.Take(ChaosFaultKind::kCrashBeforePush, 10));
  EXPECT_FALSE(injector.Take(ChaosFaultKind::kCrashBeforePush, 12))
      << "second crash is not due until 20";
  EXPECT_FALSE(injector.Take(ChaosFaultKind::kStallWorker, 14));
  EXPECT_TRUE(injector.Take(ChaosFaultKind::kStallWorker, 100));
  EXPECT_TRUE(injector.Take(ChaosFaultKind::kCrashBeforePush, 25));
  EXPECT_FALSE(injector.Take(ChaosFaultKind::kCrashBeforePush, 1000))
      << "each fault fires exactly once";
  EXPECT_EQ(injector.remaining(), 0u);
  const std::vector<ChaosFiredRecord> fired = injector.fired();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].fault.at_batches, 10u);
  EXPECT_EQ(fired[1].fault.at_batches, 15u);
  EXPECT_EQ(fired[1].fired_at_batches, 100u);
  EXPECT_EQ(fired[2].fault.at_batches, 20u);
}

TEST(ChaosTrainingTest, SupervisorSurvivesFullChaosSchedule) {
  // One fault of every kind against the fault-tolerant threaded runtime:
  // the run must still train every batch exactly once, and the supervisor
  // stats must show the machinery actually engaged.
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  ChaosInjector chaos = ChaosInjector::FromSeed(FullSchedule(21));
  AsyncTrainerOptions options = ThreadedRun(1);
  options.fault_tolerance = TestFt();
  options.chaos = &chaos;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();

  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (size_t i = 0; i < result.times_trained.size(); ++i) {
    EXPECT_EQ(result.times_trained[i], 1) << "batch " << i;
  }
  EXPECT_EQ(chaos.remaining(), 0u) << "every scheduled fault must fire";
  EXPECT_EQ(chaos.fired().size(), 6u);
  EXPECT_GT(result.ft.checkpoints_taken, 0u);
  EXPECT_EQ(result.ft.checkpoint_writes_failed, 1u);
  EXPECT_EQ(result.ft.restores, 1u);
  EXPECT_EQ(result.ft.stalls_injected, 1u);
  EXPECT_GT(result.ft.workers_fenced, 0u) << "stalled worker must be fenced";
}

TEST(ChaosTrainingTest, UnprotectedRunLosesWorkWithoutTheSupervisor) {
  // The contrast arm: same chaos, fault tolerance off, no end-of-run drain.
  // Crashed workers take their shards to the grave, so data is lost — the
  // Table-4-style behaviour the supervisor exists to prevent.
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  ChaosInjector chaos = ChaosInjector::FromSeed(FullSchedule(21));
  AsyncTrainerOptions options = ThreadedRun(1);
  options.chaos = &chaos;
  options.drain_remainder = false;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();

  EXPECT_LT(result.batches_committed, 600u);
  EXPECT_GT(result.batches_skipped, 0u);
  EXPECT_EQ(result.ft.restores, 0u);
}

TEST(ChaosInjectorTest, TornWritesDefaultOffKeepsLegacySchedules) {
  // torn_checkpoint_writes defaults to 0 and its draws come last in
  // FromSeed, so pre-existing seeds keep their exact schedules — the fault
  // kind is purely additive.
  const ChaosInjector legacy = ChaosInjector::FromSeed(FullSchedule(9));
  ChaosScheduleOptions with_torn = FullSchedule(9);
  with_torn.torn_checkpoint_writes = 2;
  const ChaosInjector extended = ChaosInjector::FromSeed(with_torn);

  ASSERT_EQ(legacy.schedule().size(), 6u);
  ASSERT_EQ(extended.schedule().size(), 8u);
  size_t matched = 0;
  for (const ChaosFault& fault : legacy.schedule()) {
    for (const ChaosFault& other : extended.schedule()) {
      if (other.kind == fault.kind && other.at_batches == fault.at_batches) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, 6u) << "legacy faults must be unchanged by the new kind";
}

TEST(ChaosTrainingTest, TornCheckpointWriteRecoversFromOlderGeneration) {
  // A torn write truncates the checkpoint mid-stream; a later PS failure
  // forces a restore, which must skip the short read and fall back to an
  // older valid generation — ending with the exactly-once audit intact.
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  ChaosScheduleOptions schedule = FullSchedule(21);
  schedule.torn_checkpoint_writes = 1;
  ChaosInjector chaos = ChaosInjector::FromSeed(schedule);
  AsyncTrainerOptions options = ThreadedRun(1);
  options.fault_tolerance = TestFt();
  options.chaos = &chaos;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();

  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (size_t i = 0; i < result.times_trained.size(); ++i) {
    EXPECT_EQ(result.times_trained[i], 1) << "batch " << i;
  }
  EXPECT_EQ(chaos.remaining(), 0u) << "every scheduled fault must fire";
  EXPECT_EQ(result.ft.checkpoint_writes_torn, 1u);
  EXPECT_EQ(result.ft.checkpoint_writes_failed, 1u);
  EXPECT_GE(result.ft.restores, 1u);
}

TEST(ChaosTrainingTest, TornWriteRecoveryEquivalence) {
  // Recovery equivalence for the torn-write fault specifically: a chaos
  // run with torn checkpoint writes ends within tolerance of the clean run.
  CriteoSynth data(99);
  auto run = [&](ChaosInjector* chaos) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = ThreadedRun(17);
    if (chaos != nullptr) {
      options.fault_tolerance = TestFt();
      options.chaos = chaos;
    }
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult baseline = run(nullptr);
  ASSERT_EQ(baseline.batches_committed, 600u);

  ChaosScheduleOptions schedule = FullSchedule(7);
  schedule.torn_checkpoint_writes = 2;
  ChaosInjector chaos = ChaosInjector::FromSeed(schedule);
  const TrainResult result = run(&chaos);
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  EXPECT_EQ(result.ft.checkpoint_writes_torn, 2u);
  EXPECT_LT(std::fabs(result.final_logloss - baseline.final_logloss), 0.05);
  EXPECT_LT(std::fabs(result.final_auc - baseline.final_auc), 0.05);
}

TEST(ChaosTrainingTest, RecoveryEquivalenceAcrossSeeds) {
  // The headline property: for several independently seeded chaos
  // schedules, a fault-tolerant run ends within tolerance of the
  // uninterrupted run, with the exactly-once audit intact.
  CriteoSynth data(99);
  auto run = [&](ChaosInjector* chaos) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = ThreadedRun(17);
    if (chaos != nullptr) {
      options.fault_tolerance = TestFt();
      options.chaos = chaos;
    }
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult baseline = run(nullptr);
  ASSERT_EQ(baseline.batches_committed, 600u);

  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ChaosInjector chaos = ChaosInjector::FromSeed(FullSchedule(seed));
    const TrainResult result = run(&chaos);
    EXPECT_EQ(result.batches_committed, 600u) << "chaos seed " << seed;
    EXPECT_EQ(result.batches_duplicated, 0u) << "chaos seed " << seed;
    EXPECT_EQ(result.batches_skipped, 0u) << "chaos seed " << seed;
    for (size_t i = 0; i < result.times_trained.size(); ++i) {
      ASSERT_EQ(result.times_trained[i], 1)
          << "chaos seed " << seed << " batch " << i;
    }
    // Async-PS staleness makes the final metrics depend on commit
    // interleaving, which shifts with machine load; the tolerance needs
    // headroom over the ~0.02 drift seen across schedulers. The hard
    // exactly-once guarantees above are what recovery must not change.
    EXPECT_LT(std::fabs(result.final_logloss - baseline.final_logloss), 0.05)
        << "chaos seed " << seed;
    EXPECT_LT(std::fabs(result.final_auc - baseline.final_auc), 0.05)
        << "chaos seed " << seed;
    EXPECT_EQ(chaos.remaining(), 0u) << "chaos seed " << seed;
  }
}

}  // namespace
}  // namespace dlrover
