#include "dlrm/mini_dlrm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

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

// Numerical gradient check of the dense parameters: perturb each parameter,
// compare the loss delta against the analytic gradient.
class GradCheckTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(GradCheckTest, DenseGradientsMatchNumerical) {
  const MiniDlrmConfig config = SmallConfig(GetParam());
  MiniDlrm model(config);
  CriteoSynth data(5);
  const CriteoBatch batch = data.Batch(0, 4);
  const ParamSnapshot snap = model.TakeSnapshot(batch);

  DlrmGradients grads;
  model.ForwardBackward(batch, snap, &grads);

  const double eps = 1e-5;
  auto loss_with = [&](const ParamSnapshot& s) {
    DlrmGradients scratch;
    return model.ForwardBackward(batch, s, &scratch);
  };

  // Check a sample of parameters across every dense component.
  struct Probe {
    const char* name;
    double* param;
    double analytic;
  };
  std::vector<Probe> probes;
  ParamSnapshot mutated = snap;
  probes.push_back({"dense_proj", &mutated.dense.dense_proj.data()[3],
                    grads.dense.dense_proj.data()[3]});
  probes.push_back({"mlp_w0", &mutated.dense.mlp_w[0].data()[7],
                    grads.dense.mlp_w[0].data()[7]});
  probes.push_back({"mlp_b0", &mutated.dense.mlp_b[0][2],
                    grads.dense.mlp_b[0][2]});
  probes.push_back({"mlp_w_last", &mutated.dense.mlp_w.back().data()[1],
                    grads.dense.mlp_w.back().data()[1]});
  probes.push_back({"bias", &mutated.dense.bias, grads.dense.bias});
  if (GetParam() == ModelKind::kDcn) {
    probes.push_back({"cross_w", &mutated.dense.cross_w[0][5],
                      grads.dense.cross_w[0][5]});
    probes.push_back({"cross_b", &mutated.dense.cross_b[1][9],
                      grads.dense.cross_b[1][9]});
    probes.push_back({"cross_out_w", &mutated.dense.cross_out_w[11],
                      grads.dense.cross_out_w[11]});
  }
  if (GetParam() == ModelKind::kXDeepFm) {
    probes.push_back({"fm_proj", &mutated.dense.fm_proj[1][2],
                      grads.dense.fm_proj[1][2]});
    probes.push_back({"fm_w", &mutated.dense.fm_w[2],
                      grads.dense.fm_w[2]});
  }

  for (const Probe& probe : probes) {
    const double original = *probe.param;
    *probe.param = original + eps;
    const double up = loss_with(mutated);
    *probe.param = original - eps;
    const double down = loss_with(mutated);
    *probe.param = original;
    const double numerical = (up - down) / (2.0 * eps);
    EXPECT_NEAR(probe.analytic, numerical,
                1e-4 * std::max(1.0, std::fabs(numerical)))
        << "parameter " << probe.name;
  }
}

TEST_P(GradCheckTest, EmbeddingGradientsMatchNumerical) {
  const MiniDlrmConfig config = SmallConfig(GetParam());
  MiniDlrm model(config);
  CriteoSynth data(6);
  const CriteoBatch batch = data.Batch(0, 3);
  const ParamSnapshot snap = model.TakeSnapshot(batch);

  DlrmGradients grads;
  model.ForwardBackward(batch, snap, &grads);

  // Pick the first touched embedding entry of feature 0.
  ASSERT_FALSE(snap.rows.emb[0].empty());
  const uint64_t bucket = snap.rows.emb[0].begin()->first;
  ASSERT_TRUE(grads.rows.emb[0].count(bucket) > 0);
  const double analytic = grads.rows.emb[0].at(bucket)[1];

  ParamSnapshot mutated = snap;
  const double eps = 1e-5;
  auto loss_with = [&](const ParamSnapshot& s) {
    DlrmGradients scratch;
    return model.ForwardBackward(batch, s, &scratch);
  };
  const double original = mutated.rows.emb[0][bucket][1];
  mutated.rows.emb[0][bucket][1] = original + eps;
  const double up = loss_with(mutated);
  mutated.rows.emb[0][bucket][1] = original - eps;
  const double down = loss_with(mutated);
  const double numerical = (up - down) / (2.0 * eps);
  EXPECT_NEAR(analytic, numerical, 1e-4 * std::max(1.0, std::fabs(numerical)));
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

  for (int step = 0; step < 800; ++step) {
    const CriteoBatch batch = data.Batch(static_cast<uint64_t>(step) * 64, 64);
    const ParamSnapshot snap = model.TakeSnapshot(batch);
    DlrmGradients grads;
    model.ForwardBackward(batch, snap, &grads);
    model.ApplyGradients(grads, 0.15);
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
  size_t prev = 0;
  for (int step = 0; step < 8; ++step) {
    const CriteoBatch batch =
        data.Batch(static_cast<uint64_t>(step) * 256, 256);
    const ParamSnapshot snap = model.TakeSnapshot(batch);
    DlrmGradients grads;
    model.ForwardBackward(batch, snap, &grads);
    model.ApplyGradients(grads, 0.05);
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

// Every dense gradient, flattened. Comparing gradients per batch catches a
// changed summation order that the parameter update would round away.
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

// The allocation-free batch hot path (PullBatch / ComputeBatch / PushBatch)
// must be arithmetically indistinguishable from the legacy snapshot path:
// train two identically-initialized models, one per path, and demand
// bit-identical losses and dense gradients every step and a bit-identical
// final state.
void ExpectFastPathMatchesLegacy(const MiniDlrmConfig& config,
                                 uint64_t batch_size) {
  CriteoSynth data(9);
  MiniDlrm legacy(config);
  MiniDlrm fast(config);
  DlrmBatchWork work;
  const double lr = 0.05;

  for (int b = 0; b < 6; ++b) {
    const CriteoBatch batch = data.Batch(b * batch_size, batch_size);
    const ParamSnapshot snap = legacy.TakeSnapshot(batch);
    DlrmGradients grads;
    const double legacy_loss = legacy.ForwardBackward(batch, snap, &grads);
    legacy.ApplyGradients(grads, lr);

    data.FillBatch(b * batch_size, batch_size, &work.batch);
    fast.PullBatch(&work);
    const double fast_loss = fast.ComputeBatch(&work);
    fast.PushBatch(&work, lr);

    EXPECT_EQ(legacy_loss, fast_loss) << "batch " << b;
    const std::vector<double> legacy_grads = FlatDense(grads.dense);
    const std::vector<double> fast_grads = FlatDense(work.dense_grads);
    ASSERT_EQ(legacy_grads.size(), fast_grads.size());
    EXPECT_EQ(0, std::memcmp(legacy_grads.data(), fast_grads.data(),
                             legacy_grads.size() * sizeof(double)))
        << "dense gradients differ in batch " << b;
  }

  DlrmStateBlob legacy_state;
  DlrmStateBlob fast_state;
  legacy.ExportState(&legacy_state);
  fast.ExportState(&fast_state);
  ASSERT_EQ(legacy_state.dense.size(), fast_state.dense.size());
  for (size_t i = 0; i < legacy_state.dense.size(); ++i) {
    ASSERT_EQ(legacy_state.dense[i], fast_state.dense[i]) << "dense[" << i
                                                          << "]";
  }
  EXPECT_EQ(legacy_state.sparse.emb_keys, fast_state.sparse.emb_keys);
  EXPECT_EQ(legacy_state.sparse.emb_values, fast_state.sparse.emb_values);
  EXPECT_EQ(legacy_state.sparse.wide_keys, fast_state.sparse.wide_keys);
  EXPECT_EQ(legacy_state.sparse.wide_values, fast_state.sparse.wide_values);

  // And the models keep agreeing on fresh data.
  const CriteoBatch held_out = data.Batch(100000, 64);
  EXPECT_EQ(legacy.Evaluate(held_out), fast.Evaluate(held_out));
}

class FastPathTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(FastPathTest, MatchesLegacyBitExact) {
  ExpectFastPathMatchesLegacy(SmallConfig(GetParam()), /*batch_size=*/16);
}

// SmallConfig's widths (n0 108, layers 8 and 4, batch 16) are multiples of
// every tile width of the batched layer kernels. Odd widths and an odd
// batch send every sample, output and input remainder path through the
// same bit-exact comparison.
TEST_P(FastPathTest, MatchesLegacyBitExactOnOddShapes) {
  MiniDlrmConfig config = SmallConfig(GetParam());
  config.emb_dim = 3;
  config.mlp_hidden = {7, 5};
  ExpectFastPathMatchesLegacy(config, /*batch_size=*/13);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, FastPathTest,
                         ::testing::Values(ModelKind::kWideDeep,
                                           ModelKind::kXDeepFm,
                                           ModelKind::kDcn));

}  // namespace
}  // namespace dlrover
