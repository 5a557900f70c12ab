#include "dlrm/mini_dlrm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/metrics.h"

namespace dlrover {
namespace {

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

// One SGD step through the batch cycle on samples [start, start + n).
void TrainStep(MiniDlrm* model, const CriteoSynth& data, uint64_t start,
               uint64_t n, double learning_rate, DlrmBatchWork* work) {
  data.FillBatch(start, n, &work->batch);
  model->PullBatch(work);
  model->ComputeBatch(work);
  model->PushBatch(work, learning_rate);
}

// Numerical gradient checks against ComputeBatch: perturb one pulled value
// in the workspace, recompute the loss, compare the loss delta against the
// analytic gradient. Only the pulled copies in `work` change, so every
// ComputeBatch call sees the same batch against the same parameters.
// Analytic gradients are read after the first ComputeBatch: the dense
// accumulators are re-zeroed by every call, but row_grads only by
// PullBatch, so later calls keep adding to them.
class GradCheckTest : public ::testing::TestWithParam<ModelKind> {};

void ExpectMatchesNumerical(const char* name, double* param,
                            double analytic, MiniDlrm& model,
                            DlrmBatchWork* work) {
  const double eps = 1e-5;
  const double original = *param;
  *param = original + eps;
  const double up = model.ComputeBatch(work);
  *param = original - eps;
  const double down = model.ComputeBatch(work);
  *param = original;
  const double numerical = (up - down) / (2.0 * eps);
  EXPECT_NEAR(analytic, numerical, 1e-4 * std::max(1.0, std::fabs(numerical)))
      << "parameter " << name;
}

TEST_P(GradCheckTest, DenseGradientsMatchNumerical) {
  const MiniDlrmConfig config = SmallConfig(GetParam());
  MiniDlrm model(config);
  CriteoSynth data(5);
  DlrmBatchWork work;
  data.FillBatch(0, 4, &work.batch);
  model.PullBatch(&work);
  model.ComputeBatch(&work);
  const DenseParams grads = work.dense_grads;

  // Check a sample of parameters across every dense component.
  struct Probe {
    const char* name;
    double* param;
    double analytic;
  };
  DenseParams& dense = work.dense;
  std::vector<Probe> probes = {
      {"dense_proj", &dense.dense_proj.data()[3], grads.dense_proj.data()[3]},
      {"mlp_w0", &dense.mlp_w[0].data()[7], grads.mlp_w[0].data()[7]},
      {"mlp_b0", &dense.mlp_b[0][2], grads.mlp_b[0][2]},
      {"mlp_w_last", &dense.mlp_w.back().data()[1],
       grads.mlp_w.back().data()[1]},
      {"bias", &dense.bias, grads.bias},
  };
  if (GetParam() == ModelKind::kDcn) {
    probes.push_back({"cross_w", &dense.cross_w[0][5], grads.cross_w[0][5]});
    probes.push_back({"cross_b", &dense.cross_b[1][9], grads.cross_b[1][9]});
    probes.push_back(
        {"cross_out_w", &dense.cross_out_w[11], grads.cross_out_w[11]});
  }
  if (GetParam() == ModelKind::kXDeepFm) {
    probes.push_back({"fm_proj", &dense.fm_proj[1][2], grads.fm_proj[1][2]});
    probes.push_back({"fm_w", &dense.fm_w[2], grads.fm_w[2]});
  }
  for (const Probe& probe : probes) {
    ExpectMatchesNumerical(probe.name, probe.param, probe.analytic, model,
                           &work);
  }
}

TEST_P(GradCheckTest, EmbeddingGradientsMatchNumerical) {
  const MiniDlrmConfig config = SmallConfig(GetParam());
  MiniDlrm model(config);
  CriteoSynth data(6);
  DlrmBatchWork work;
  data.FillBatch(0, 3, &work.batch);
  model.PullBatch(&work);
  model.ComputeBatch(&work);

  // Element 1 of the first gathered row (the smallest key: feature 0), and
  // for Wide&Deep that key's wide weight.
  ASSERT_FALSE(work.keys.empty());
  const double row_analytic = work.row_grads[1];
  const bool wide = GetParam() == ModelKind::kWideDeep;
  const double wide_analytic = wide ? work.wide_grads[0] : 0.0;
  ExpectMatchesNumerical("emb row 0 [1]", &work.rows[1], row_analytic, model,
                         &work);
  if (wide) {
    ExpectMatchesNumerical("wide 0", &work.wide[0], wide_analytic, model,
                           &work);
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, GradCheckTest,
                         ::testing::Values(ModelKind::kWideDeep,
                                           ModelKind::kXDeepFm,
                                           ModelKind::kDcn));

class LearningTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(LearningTest, SgdReducesHeldOutLogLoss) {
  MiniDlrmConfig config = SmallConfig(GetParam());
  config.emb_dim = 8;
  config.hash_buckets = 2048;
  config.mlp_hidden = {32, 16};
  MiniDlrm model(config);
  CriteoSynth data(17);

  const CriteoBatch test = data.Batch(1'000'000, 1024);
  const double before = model.Evaluate(test);

  DlrmBatchWork work;
  for (uint64_t step = 0; step < 800; ++step) {
    TrainStep(&model, data, step * 64, 64, 0.15, &work);
  }
  const double after = model.Evaluate(test);
  EXPECT_LT(after, before - 0.02)
      << "training did not reduce held-out logloss";

  std::vector<double> probs = model.Predict(test);
  std::vector<float> labels;
  for (const auto& s : test.samples) labels.push_back(s.label);
  EXPECT_GT(Auc(probs, labels), 0.58);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, LearningTest,
                         ::testing::Values(ModelKind::kWideDeep,
                                           ModelKind::kXDeepFm,
                                           ModelKind::kDcn));

TEST(MiniDlrmTest, MaterializedRowsGrowWithData) {
  MiniDlrmConfig config = SmallConfig(ModelKind::kWideDeep);
  config.hash_buckets = 1 << 16;
  MiniDlrm model(config);
  CriteoSynth data(9);
  DlrmBatchWork work;
  size_t prev = 0;
  for (uint64_t step = 0; step < 8; ++step) {
    TrainStep(&model, data, step * 256, 256, 0.05, &work);
    EXPECT_GE(model.MaterializedRows(), prev);
    prev = model.MaterializedRows();
  }
  EXPECT_GT(prev, 1000u);  // new categories keep arriving
}

TEST(MiniDlrmTest, DeterministicAcrossMaterializationOrder) {
  // Embedding row init must not depend on the order rows are touched.
  MiniDlrmConfig config = SmallConfig(ModelKind::kDcn);
  CriteoSynth data(21);
  const CriteoBatch b1 = data.Batch(0, 32);
  const CriteoBatch b2 = data.Batch(5000, 32);

  MiniDlrm forward_order(config);
  (void)forward_order.Predict(b1);
  const std::vector<double> p_fwd = forward_order.Predict(b2);

  MiniDlrm reverse_order(config);
  const std::vector<double> p_rev = reverse_order.Predict(b2);
  ASSERT_EQ(p_fwd.size(), p_rev.size());
  for (size_t i = 0; i < p_fwd.size(); ++i) {
    EXPECT_DOUBLE_EQ(p_fwd[i], p_rev[i]);
  }
}

// Predict evaluates in chunks of kPredictChunk samples; a sample's
// probability must not depend on which chunk it lands in or on its
// neighbours. 300 samples give two full chunks and a partial one; an empty
// batch gives no chunk at all.
// DedupBatchKeys against the std::sort dedup it replaced, on `keys` given
// in position order. One workspace runs every case, so scratch left by a
// longer or wider earlier call cannot leak into a later one.
void ExpectDedupMatchesSort(uint64_t key_bound,
                            const std::vector<uint64_t>& keys,
                            DlrmBatchWork* work) {
  SCOPED_TRACE(::testing::Message()
               << "bound=" << key_bound << " n=" << keys.size());
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  for (size_t p = 0; p < keys.size(); ++p) {
    ASSERT_LT(keys[p], key_bound);
    pairs.push_back({keys[p], static_cast<uint32_t>(p)});
  }
  work->key_scratch = pairs;
  DedupBatchKeys(key_bound, work);

  std::sort(pairs.begin(), pairs.end());
  std::vector<uint64_t> expect_keys;
  std::vector<uint32_t> expect_slot(pairs.size());
  for (const auto& [key, p] : pairs) {
    if (expect_keys.empty() || expect_keys.back() != key) {
      expect_keys.push_back(key);
    }
    expect_slot[p] = static_cast<uint32_t>(expect_keys.size() - 1);
  }
  EXPECT_EQ(work->keys, expect_keys);
  EXPECT_EQ(work->slot, expect_slot);
}

TEST(DedupBatchKeysTest, MatchesSortedDedup) {
  DlrmBatchWork work;
  Rng rng(17);
  auto draw = [&rng](size_t n, uint64_t bound) {
    std::vector<uint64_t> keys(n);
    for (uint64_t& k : keys) k = rng.UniformInt(bound);
    return keys;
  };
  // The perfbench model's bound (26 features x 4096 buckets, two passes),
  // at batch size 128.
  const uint64_t bench_bound = 26 * 4096;
  ExpectDedupMatchesSort(bench_bound, draw(128 * 26, bench_bound), &work);
  // No keys, one key, and the largest key.
  ExpectDedupMatchesSort(bench_bound, {}, &work);
  ExpectDedupMatchesSort(bench_bound, {bench_bound - 1}, &work);
  ExpectDedupMatchesSort(bench_bound, {bench_bound - 1, 0, bench_bound - 1, 5},
                         &work);
  // Heavy duplicates: 2000 keys drawn from 3 values.
  std::vector<uint64_t> dups = draw(2000, 3);
  for (uint64_t& k : dups) k *= 4095;
  ExpectDedupMatchesSort(bench_bound, dups, &work);
  // Bucket counts that are not powers of two; the last needs three
  // passes, so the sorted pairs end in the other buffer.
  for (uint64_t buckets : {1ull, 3ull, 1000ull, 1000003ull}) {
    const uint64_t bound = 26 * buckets;
    std::vector<uint64_t> keys = draw(777, bound);
    keys.push_back(bound - 1);
    ExpectDedupMatchesSort(bound, keys, &work);
  }
  // A bound of 1: every key is 0 and no pass runs.
  ExpectDedupMatchesSort(1, std::vector<uint64_t>(5, 0), &work);
}

TEST(MiniDlrmTest, PredictIsPerSampleAcrossChunkBoundaries) {
  constexpr uint64_t kSamples = 300;
  ASSERT_NE(kSamples % MiniDlrm::kPredictChunk, 0u);
  for (ModelKind arch :
       {ModelKind::kWideDeep, ModelKind::kXDeepFm, ModelKind::kDcn}) {
    SCOPED_TRACE(ModelKindName(arch));
    MiniDlrm model(SmallConfig(arch));
    CriteoSynth data(41);
    DlrmBatchWork work;
    for (uint64_t step = 0; step < 4; ++step) {
      TrainStep(&model, data, step * 32, 32, 0.1, &work);
    }
    const CriteoBatch batch = data.Batch(50000, kSamples);
    const std::vector<double> probs = model.Predict(batch);
    ASSERT_EQ(probs.size(), kSamples);
    CriteoBatch one;
    for (size_t i = 0; i < kSamples; ++i) {
      one.samples = {batch.samples[i]};
      const std::vector<double> alone = model.Predict(one);
      ASSERT_EQ(alone.size(), 1u);
      EXPECT_EQ(std::memcmp(&alone[0], &probs[i], sizeof(double)), 0)
          << "sample " << i;
    }
    EXPECT_TRUE(model.Predict(CriteoBatch{}).empty());
  }
}

}  // namespace
}  // namespace dlrover
