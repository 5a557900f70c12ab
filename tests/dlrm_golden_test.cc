// Golden pins of the mini-DLRM numeric path (ctest label `golden`).
//
// The literals below were recorded from the per-sample path that MiniDlrm
// used to keep next to its batch cycle: a per-sample forward/backward
// against a hash-map parameter snapshot, which Predict and the tick trainer
// also ran. That path was the oracle the batch cycle had to match bit for
// bit; it is gone, and these values carry its outputs forward. Doubles are
// hex floats so every bit is pinned; gradient and state blobs are 64-bit
// FNV-1a digests of their bytes.
//
// A change that moves any value here changes the model's arithmetic. Do not
// re-record the literals to make such a change pass: fix the change, or
// re-record them in a reviewed commit of their own that says why the
// numbers had to move.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dlrm/async_trainer.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/mini_dlrm.h"
#include "fnv1a.h"

namespace dlrover {
namespace {

uint64_t Digest(const std::vector<double>& v) {
  Fnv1a h;
  h.AddBytes(v);
  return h.value();
}

// Every dense gradient, flattened in a fixed order. Comparing gradients per
// batch catches a changed summation order that the update would round away.
std::vector<double> FlatDense(const DenseParams& p) {
  std::vector<double> flat = p.dense_proj.data();
  for (const Matrix& m : p.mlp_w) {
    flat.insert(flat.end(), m.data().begin(), m.data().end());
  }
  for (const auto* group : {&p.mlp_b, &p.cross_w, &p.cross_b, &p.fm_proj}) {
    for (const std::vector<double>& v : *group) {
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  flat.insert(flat.end(), p.cross_out_w.begin(), p.cross_out_w.end());
  flat.insert(flat.end(), p.fm_w.begin(), p.fm_w.end());
  flat.push_back(p.bias);
  return flat;
}

uint64_t StateDigest(const DlrmStateBlob& blob) {
  Fnv1a h;
  h.AddBytes(blob.dense);
  h.AddBytes(blob.sparse.emb_keys);
  h.AddBytes(blob.sparse.emb_values);
  h.AddBytes(blob.sparse.wide_keys);
  h.AddBytes(blob.sparse.wide_values);
  return h.value();
}

MiniDlrmConfig SmallConfig(ModelKind arch) {
  MiniDlrmConfig config;
  config.arch = arch;
  config.emb_dim = 4;
  config.hash_buckets = 64;
  config.mlp_hidden = {8, 4};
  config.cross_layers = 2;
  config.fm_maps = 3;
  config.seed = 33;
  return config;
}

// Six SGD steps of one model through the batch cycle, then a held-out
// evaluation through Predict.
struct PathGolden {
  double losses[6];
  uint64_t dense_grad_digests[6];
  uint64_t state_digest;
  double held_out_loss;
};

void ExpectPathMatchesGolden(const MiniDlrmConfig& config,
                             uint64_t batch_size, const PathGolden& golden) {
  CriteoSynth data(9);
  MiniDlrm model(config);
  DlrmBatchWork work;
  for (int b = 0; b < 6; ++b) {
    data.FillBatch(b * batch_size, batch_size, &work.batch);
    model.PullBatch(&work);
    const double loss = model.ComputeBatch(&work);
    model.PushBatch(&work, /*learning_rate=*/0.05);
    EXPECT_EQ(loss, golden.losses[b]) << "batch " << b;
    EXPECT_EQ(Digest(FlatDense(work.dense_grads)),
              golden.dense_grad_digests[b])
        << "dense gradients differ in batch " << b;
  }
  DlrmStateBlob state;
  model.ExportState(&state);
  EXPECT_EQ(StateDigest(state), golden.state_digest);
  EXPECT_EQ(model.Evaluate(data.Batch(100000, 64)), golden.held_out_loss);
}

// Indexed by ModelKind: Wide&Deep, xDeepFM, DCN.
const PathGolden kRegularShapes[] = {
    {{0x1.62df0b6ad0d84p-1, 0x1.62bf84d8e401dp-1, 0x1.5fa4dd11a08c4p-1,
      0x1.60bf8798a3de3p-1, 0x1.5ab9538ff00ep-1, 0x1.5d9292dcf0581p-1},
     {0x312e6418ebb93a05ull, 0x630cf708e0cd65a4ull, 0x237f630784e9e3aaull,
      0x68873054ef8e2bddull, 0x61510ad26eed0cd3ull, 0xf5f8c8722519de0bull},
     0x632edbbb3d46377dull,
     0x1.53fd0903b1faep-1},
    {{0x1.62df2d3f62f7ap-1, 0x1.62c45ddd3f6ap-1, 0x1.60fbc2a6b01a8p-1,
      0x1.62f59fa3bba8fp-1, 0x1.5f0459f4eac52p-1, 0x1.5f5cede93df88p-1},
     {0xcc01c890ea289c68ull, 0xf38d71484c645bbbull, 0x0ead384401c0ccd1ull,
      0x3e324a1c1038c45dull, 0x0fc074d7037df415ull, 0xc5faf973da28154cull},
     0xed0109df27b322d9ull,
     0x1.5adb46c60c1d3p-1},
    {{0x1.6036c73dbbb04p-1, 0x1.627c561e0c79ap-1, 0x1.5f48e907f72c8p-1,
      0x1.62c3ad0b97cap-1, 0x1.5c9a1561da61fp-1, 0x1.5f247435a69d1p-1},
     {0xd5c05fdff9691f01ull, 0x2bf8e54dcfaea323ull, 0x77e5d6c128488a17ull,
      0x89fab29ebbfc5cf1ull, 0x4a8c95b50f459e3dull, 0x80f918c1b4352ae2ull},
     0x646e644bee56d4e0ull,
     0x1.55a00e9ca3113p-1},
};

const PathGolden kOddShapes[] = {
    {{0x1.62e1249f09513p-1, 0x1.5c44242317eb9p-1, 0x1.652c2fd30a2aep-1,
      0x1.67b0c5077f4b8p-1, 0x1.599d6163a9918p-1, 0x1.55a1b450e973dp-1},
     {0x2e202de62afada05ull, 0xffa73578abb0a673ull, 0xe23b6c5abcd5610aull,
      0x3c9f8ea31fdd545full, 0x52fe92974e014aaeull, 0xe80b1c7eaeafe33eull},
     0x804b7996261d9667ull,
     0x1.51663932a5f3ap-1},
    {{0x1.62c7959e278c8p-1, 0x1.5fb36a20e5bffp-1, 0x1.63bee059b3074p-1,
      0x1.6585839c15724p-1, 0x1.5fd21325eebd4p-1, 0x1.5b8734e7f7edep-1},
     {0x8ddb81ba5a3717f6ull, 0x8bc9063c14673090ull, 0x5397c2951e2b6c90ull,
      0xe268d748af4ce5a2ull, 0xa3a9b8002eb668e2ull, 0x93bbbb0b71f30067ull},
     0x613f2773d04ff181ull,
     0x1.59baa4568680cp-1},
    {{0x1.625c1f5dbf2b6p-1, 0x1.5fa3f865d9c2p-1, 0x1.6269c54e6b154p-1,
      0x1.66ad79f4b2c37p-1, 0x1.5f1e42faf8735p-1, 0x1.5cb041b15011ep-1},
     {0x895b42dc9f6e41bdull, 0xfcbb04c51a943befull, 0xfd387fda98335e82ull,
      0xef6f818d4d0abfd3ull, 0x8d60f85ed3780bdbull, 0x9e7d730faf5c4554ull},
     0x8a3270cc912ac4ebull,
     0x1.57a271704695ep-1},
};

class FastPathTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(FastPathTest, MatchesLegacyBitExact) {
  ExpectPathMatchesGolden(SmallConfig(GetParam()), /*batch_size=*/16,
                          kRegularShapes[static_cast<int>(GetParam())]);
}

// SmallConfig's widths (n0 108, layers 8 and 4, batch 16) are multiples of
// every tile width of the batched layer kernels. Odd widths and an odd
// batch send every sample, output and input remainder path through the
// same bit-exact comparison.
TEST_P(FastPathTest, MatchesLegacyBitExactOnOddShapes) {
  MiniDlrmConfig config = SmallConfig(GetParam());
  config.emb_dim = 3;
  config.mlp_hidden = {7, 5};
  ExpectPathMatchesGolden(config, /*batch_size=*/13,
                          kOddShapes[static_cast<int>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, FastPathTest,
                         ::testing::Values(ModelKind::kWideDeep,
                                           ModelKind::kXDeepFm,
                                           ModelKind::kDcn));

// Deterministic tick-mode training runs, every curve point pinned. The
// held-out set (1000 samples) is not a multiple of Predict's chunk, so the
// curve also covers a partial chunk.
MiniDlrmConfig TickModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 6;
  config.hash_buckets = 1024;
  config.mlp_hidden = {16, 8};
  config.seed = 5;
  return config;
}

AsyncTrainerOptions TickRun(DataMode mode, std::vector<ElasticEvent> events) {
  AsyncTrainerOptions options;
  options.num_workers = 6;
  options.batch_size = 64;
  options.total_batches = 480;
  options.learning_rate = 0.12;
  options.shard_batches = 12;
  options.eval_every_batches = 100;
  options.eval_size = 1000;
  options.seed = 3;
  options.data_mode = mode;
  options.events = std::move(events);
  return options;
}

struct TickGolden {
  std::vector<EvalPoint> curve;
  uint64_t committed;
  uint64_t duplicated;
  uint64_t skipped;
};

void ExpectTicksMatchGolden(const AsyncTrainerOptions& options,
                            const TickGolden& golden) {
  MiniDlrm model(TickModel());
  CriteoSynth data(31);
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  ASSERT_EQ(result.curve.size(), golden.curve.size());
  for (size_t i = 0; i < golden.curve.size(); ++i) {
    EXPECT_EQ(result.curve[i].batches, golden.curve[i].batches) << i;
    EXPECT_EQ(result.curve[i].test_logloss, golden.curve[i].test_logloss)
        << "curve point " << i;
    EXPECT_EQ(result.curve[i].test_auc, golden.curve[i].test_auc)
        << "curve point " << i;
  }
  EXPECT_EQ(result.batches_committed, golden.committed);
  EXPECT_EQ(result.batches_duplicated, golden.duplicated);
  EXPECT_EQ(result.batches_skipped, golden.skipped);
}

TEST(TickTrainerGoldenTest, DynamicShardingUnderElasticEvents) {
  const AsyncTrainerOptions options =
      TickRun(DataMode::kDynamicSharding,
              {{80, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
               {180, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
               {260, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
               {360, ElasticEvent::Kind::kRemoveWorkers, 2, 0.0}});
  const TickGolden golden = {
      {{0, 0x1.62ebf155229d7p-1, 0x1.edb05b05b05bp-2},
       {100, 0x1.27f08655ef3dp-1, 0x1.4d5c7c2e2949p-1},
       {200, 0x1.228b36285693ap-1, 0x1.58c8e627fc196p-1},
       {300, 0x1.1dae3052faff6p-1, 0x1.65afb494e2e7dp-1},
       {400, 0x1.1a785b6decd97p-1, 0x1.69d56a236f03cp-1},
       {480, 0x1.184e6870d9634p-1, 0x1.6c90fc42f762bp-1}},
      480, 0, 0};
  ExpectTicksMatchGolden(options, golden);
}

TEST(TickTrainerGoldenTest, StaticPartitionUnderAddAndCrash) {
  const AsyncTrainerOptions options =
      TickRun(DataMode::kStaticPartition,
              {{100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
               {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0}});
  const TickGolden golden = {
      {{0, 0x1.62ebf155229d7p-1, 0x1.edb05b05b05bp-2},
       {100, 0x1.28677c627f6f1p-1, 0x1.49323989ff065p-1},
       {200, 0x1.228ded5f9b22fp-1, 0x1.5a5d4c3b2a19p-1},
       {300, 0x1.1d2cb156f91aep-1, 0x1.66cfb9c869536p-1},
       {400, 0x1.1a5b85ffb669p-1, 0x1.6a79412dac746p-1},
       {477, 0x1.18776e33b5b69p-1, 0x1.6c73ba6eda20dp-1}},
      477, 0, 3};
  ExpectTicksMatchGolden(options, golden);
}

// The perfbench `train_dlrm` shape (model, data and trainer options of
// perfbench/main.cc at seed 1) for `total_batches` batches with an
// `eval_size`-row test set: real pool threads, but a pool of one, so the eight
// logical workers' batches commit in one deterministic order. Returns the
// trainer's result and the digest of the trained model's state.
struct PerfbenchShapeRun {
  TrainResult result;
  uint64_t state_digest = 0;
};

PerfbenchShapeRun TrainPerfbenchShape(uint64_t total_batches,
                                      uint64_t eval_size) {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {64, 32};
  config.seed = 1 * 7 + 5;
  AsyncTrainerOptions options;
  options.num_workers = 8;
  options.batch_size = 128;
  options.total_batches = total_batches;
  options.learning_rate = 0.1;
  options.shard_batches = 16;
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 1;
  options.eval_every_batches = 1 << 30;  // one evaluation, after the last batch
  options.eval_size = eval_size;
  options.seed = 1;
  MiniDlrm model(config);
  CriteoSynth data(1 * 31 + 1);
  AsyncPsTrainer trainer(&model, &data, options);
  PerfbenchShapeRun run;
  run.result = trainer.Run();
  DlrmStateBlob state;
  model.ExportState(&state);
  run.state_digest = StateDigest(state);
  return run;
}

// The perfbench shape cut to 96 batches. Pins the layer kernels, the key
// dedup and the data generator on the exact shapes the benchmark times. The
// literals were recorded from the SSE2-only layer tiles, the per-draw Zipf
// constants and the std::sort key dedup, which the current code must match
// bit for bit.
TEST(ThreadTrainerGoldenTest, PerfbenchShapeOnOneThread) {
  const PerfbenchShapeRun run = TrainPerfbenchShape(96, 1024);
  EXPECT_EQ(run.result.batches_committed, 96u);
  EXPECT_EQ(run.state_digest, 0x6adaecb9c1842488ull);
  EXPECT_EQ(run.result.final_auc, 0x1.4f798e60d8f11p-1);
}

// The whole perfbench `train_dlrm` run at seed 1: 1,200 batches and a
// 4,096-row test set. Its final AUC is the one perfbench prints
// (0.73669371350377844); ~2 s.
TEST(ThreadTrainerGoldenTest, PerfbenchScaleOnOneThread) {
  const PerfbenchShapeRun run = TrainPerfbenchShape(1200, 4096);
  EXPECT_EQ(run.result.batches_committed, 1200u);
  EXPECT_EQ(run.state_digest, 0x871b2a778ac9701full);
  EXPECT_EQ(run.result.final_auc, 0x1.792feb1d55c57p-1);
}

}  // namespace
}  // namespace dlrover
