#include "dlrm/async_trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "dlrm/metrics.h"

namespace dlrover {
namespace {

AsyncTrainerOptions SmallRun(uint64_t seed) {
  AsyncTrainerOptions options;
  options.num_workers = 6;
  options.batch_size = 64;
  options.total_batches = 600;
  options.learning_rate = 0.12;
  options.shard_batches = 12;
  options.eval_every_batches = 200;
  options.seed = seed;
  return options;
}

MiniDlrmConfig SmallModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 6;
  config.hash_buckets = 1024;
  config.mlp_hidden = {16, 8};
  config.seed = 5;
  return config;
}

TEST(AsyncTrainerTest, TrainsEveryBatchExactlyOnceWithoutEvents) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncPsTrainer trainer(&model, &data, SmallRun(1));
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (uint8_t times : result.times_trained) EXPECT_EQ(times, 1);
}

class ElasticExactlyOnceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElasticExactlyOnceTest, DynamicShardingExactlyOnceUnderEvents) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(GetParam());
  options.data_mode = DataMode::kDynamicSharding;
  options.events = {
      {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
      {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
      {320, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
      {450, ElasticEvent::Kind::kRemoveWorkers, 2, 0.0},
  };
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (size_t i = 0; i < result.times_trained.size(); ++i) {
    EXPECT_EQ(result.times_trained[i], 1) << "batch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElasticExactlyOnceTest,
                         ::testing::Values(1, 7, 42, 1234));

TEST(AsyncTrainerTest, NaiveStaticElasticityDuplicatesOrSkips) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(3);
  options.data_mode = DataMode::kStaticPartition;
  options.events = {
      {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
      {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
  };
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_GT(result.batches_duplicated + result.batches_skipped, 0u)
      << "naive re-partitioning should disturb the data sequence";
}

TEST(AsyncTrainerTest, ElasticRunMatchesBaselineConvergence) {
  // The Fig 8 property as a test: final held-out logloss under elastic
  // events with dynamic sharding stays close to the undisturbed baseline.
  CriteoSynth data(99);
  auto run = [&](DataMode mode, bool events) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(17);
    options.total_batches = 1200;
    options.data_mode = mode;
    if (events) {
      options.events = {
          {200, ElasticEvent::Kind::kAddWorkers, 4, 0.0},
          {500, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
          {800, ElasticEvent::Kind::kRemoveWorkers, 3, 0.0},
      };
    }
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult baseline = run(DataMode::kStaticPartition, false);
  const TrainResult elastic = run(DataMode::kDynamicSharding, true);
  EXPECT_LT(std::fabs(elastic.final_logloss - baseline.final_logloss), 0.02);
  EXPECT_LT(std::fabs(elastic.final_auc - baseline.final_auc), 0.03);
}

TEST(AsyncTrainerTest, ThreadsModeTrainsEveryBatchExactlyOnce) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(1);
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (uint8_t times : result.times_trained) EXPECT_EQ(times, 1);
}

TEST(AsyncTrainerTest, ThreadsModeWithEventsFallsBackToTicks) {
  // Scripted events drive the tick engine only: a kThreads run that asks
  // for them trains the tick schedule, bit for bit.
  CriteoSynth data(31);
  auto run = [&](ExecMode mode) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(7);
    options.exec_mode = mode;
    options.num_threads = 4;
    options.events = {
        {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
        {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
    };
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult ticks = run(ExecMode::kTicks);
  const TrainResult threads = run(ExecMode::kThreads);
  EXPECT_EQ(threads.batches_committed, 600u);
  EXPECT_EQ(threads.times_trained, ticks.times_trained);
  EXPECT_EQ(threads.final_logloss, ticks.final_logloss);
  EXPECT_EQ(threads.final_auc, ticks.final_auc);
}

TEST(AsyncTrainerTest, ThreadsModeConvergesLikeTickMode) {
  // Tick-vs-threads parity across pool widths: real async interleaving
  // changes the exact floats but must not change what the model learns.
  // Same data, same budget; final held-out metrics within tolerance at
  // every thread count (this drives the per-worker accumulator + batched
  // gather/scatter hot path at 1, 2, 4 and hardware_concurrency threads).
  CriteoSynth data(99);
  auto run = [&](ExecMode mode, int threads) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(17);
    options.total_batches = 1200;
    options.exec_mode = mode;
    options.num_threads = threads;
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult ticks = run(ExecMode::kTicks, 0);
  std::vector<int> widths = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) widths.push_back(hw);
  for (int threads : widths) {
    const TrainResult result = run(ExecMode::kThreads, threads);
    EXPECT_EQ(result.batches_committed, ticks.batches_committed)
        << threads << " threads";
    EXPECT_LT(std::fabs(result.final_logloss - ticks.final_logloss), 0.02)
        << threads << " threads";
    EXPECT_LT(std::fabs(result.final_auc - ticks.final_auc), 0.03)
        << threads << " threads";
    EXPECT_LT(result.curve.back().test_logloss,
              result.curve.front().test_logloss)
        << threads << " threads";
    // Phase accounting covers every committed batch.
    EXPECT_EQ(result.phases.batches, result.batches_committed)
        << threads << " threads";
    EXPECT_GT(result.phases.BusySeconds(), 0.0) << threads << " threads";
  }
}

TEST(AsyncTrainerTest, CurveIsRecordedAndLossImproves) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(55);
  AsyncTrainerOptions options = SmallRun(9);
  options.total_batches = 1500;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  ASSERT_GE(result.curve.size(), 3u);
  EXPECT_LT(result.curve.back().test_logloss,
            result.curve.front().test_logloss);
  EXPECT_GT(result.final_auc, 0.55);
}

}  // namespace
}  // namespace dlrover
