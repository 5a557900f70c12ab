#include "dlrm/model_checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/mini_dlrm.h"

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

// One SGD step through the batch cycle on 64 samples from `start`.
void TrainOn(MiniDlrm* model, const CriteoSynth& data, uint64_t start,
             DlrmBatchWork* work) {
  data.FillBatch(start, 64, &work->batch);
  model->PullBatch(work);
  model->ComputeBatch(work);
  model->PushBatch(work, /*learning_rate=*/0.1);
}

ModelCheckpoint TinyCheckpoint(uint64_t committed) {
  ModelCheckpoint ckpt;
  ckpt.committed_batches = committed;
  ckpt.model.dense = {0.5, -1.25, 3.0};
  ckpt.model.sparse.emb_keys = {7, 11};
  ckpt.model.sparse.emb_values = {1.0f, 2.0f};
  ckpt.queue.cursor = committed;
  ckpt.queue.completed_batches = committed;
  ckpt.times_trained.assign(16, 0);
  return ckpt;
}

TEST(CheckpointVaultTest, ChecksumDetectsPayloadMutation) {
  ModelCheckpoint ckpt = TinyCheckpoint(10);
  ckpt.checksum = CheckpointVault::Checksum(ckpt);
  EXPECT_TRUE(CheckpointVault::Verify(ckpt));

  ModelCheckpoint dense_flip = ckpt;
  dense_flip.model.dense[1] += 1e-9;
  EXPECT_FALSE(CheckpointVault::Verify(dense_flip));

  ModelCheckpoint count_flip = ckpt;
  count_flip.committed_batches ^= 1;
  EXPECT_FALSE(CheckpointVault::Verify(count_flip));

  ModelCheckpoint audit_flip = ckpt;
  audit_flip.times_trained[3] = 1;
  EXPECT_FALSE(CheckpointVault::Verify(audit_flip));

  ModelCheckpoint queue_flip = ckpt;
  DataShard extra;
  extra.start_batch = 4;
  extra.end_batch = 8;
  queue_flip.queue.pending.push_back(extra);
  EXPECT_FALSE(CheckpointVault::Verify(queue_flip));
}

TEST(CheckpointVaultTest, VerifyRejectsUnknownFormatVersion) {
  ModelCheckpoint ckpt = TinyCheckpoint(10);
  ckpt.format_version = 2;
  ckpt.checksum = CheckpointVault::Checksum(ckpt);
  EXPECT_FALSE(CheckpointVault::Verify(ckpt));
}

TEST(CheckpointVaultTest, KeepsNewestGenerationsAndEvictsOldest) {
  CheckpointVault vault(2);
  vault.Commit(TinyCheckpoint(10));
  vault.Commit(TinyCheckpoint(20));
  const uint64_t gen = vault.Commit(TinyCheckpoint(30));
  EXPECT_EQ(vault.size(), 2u);
  EXPECT_EQ(vault.generations_committed(), 3u);
  const ModelCheckpoint* latest = vault.LatestValid();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->generation, gen);
  EXPECT_EQ(latest->committed_batches, 30u);
}

TEST(CheckpointVaultTest, CorruptedWriteFallsBackToOlderGeneration) {
  CheckpointVault vault(3);
  vault.Commit(TinyCheckpoint(10));
  vault.CommitCorrupted(TinyCheckpoint(20));
  const ModelCheckpoint* latest = vault.LatestValid();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->committed_batches, 10u)
      << "the torn generation-2 write must be skipped";
  EXPECT_EQ(vault.size(), 2u) << "the corrupted generation is still stored";
}

TEST(CheckpointVaultTest, AllGenerationsCorruptedMeansNoRestoreTarget) {
  CheckpointVault vault(2);
  vault.CommitCorrupted(TinyCheckpoint(10));
  vault.CommitCorrupted(TinyCheckpoint(20));
  EXPECT_EQ(vault.LatestValid(), nullptr);
}

TEST(CheckpointVaultTest, TornWriteFallsBackToOlderGeneration) {
  // A write cut short mid-stream leaves a truncated payload whose lengths
  // no longer match the checksum; restore must skip it, not trust it.
  CheckpointVault vault(3);
  vault.Commit(TinyCheckpoint(10));
  const uint64_t torn_gen = vault.CommitTruncated(TinyCheckpoint(20));
  EXPECT_EQ(torn_gen, 1u);  // generations are 0-indexed
  const ModelCheckpoint* latest = vault.LatestValid();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->committed_batches, 10u)
      << "the truncated generation-2 write must be skipped";
  EXPECT_EQ(vault.size(), 2u) << "the torn generation is still stored";
}

TEST(CheckpointVaultTest, TornWriteIsInvalidForEveryPayloadShape) {
  // CommitTruncated cuts whichever payload section exists; every shape must
  // fail verification (the checksum folds all vector lengths).
  ModelCheckpoint sparse = TinyCheckpoint(10);
  ModelCheckpoint dense_only = TinyCheckpoint(10);
  dense_only.model.sparse.emb_values.clear();
  ModelCheckpoint audit_only = TinyCheckpoint(10);
  audit_only.model.sparse.emb_values.clear();
  audit_only.model.dense.clear();
  ModelCheckpoint bare = TinyCheckpoint(10);
  bare.model.sparse.emb_values.clear();
  bare.model.dense.clear();
  bare.times_trained.clear();

  for (ModelCheckpoint* ckpt :
       {&sparse, &dense_only, &audit_only, &bare}) {
    CheckpointVault vault(1);
    vault.CommitTruncated(std::move(*ckpt));
    EXPECT_EQ(vault.LatestValid(), nullptr);
  }
}

TEST(CheckpointVaultTest, TornThenHealthyWriteRestoresNewest) {
  CheckpointVault vault(3);
  vault.Commit(TinyCheckpoint(10));
  vault.CommitTruncated(TinyCheckpoint(20));
  vault.Commit(TinyCheckpoint(30));
  const ModelCheckpoint* latest = vault.LatestValid();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->committed_batches, 30u);
}

TEST(ModelStateTest, ExportImportRoundTripsPredictions) {
  CriteoSynth data(31);
  const CriteoBatch probe = data.Batch(0, 64);

  MiniDlrm trained(SmallModel());
  DlrmBatchWork work;
  for (uint64_t step = 0; step < 20; ++step) {
    TrainOn(&trained, data, 1000 + step * 64, &work);
  }
  DlrmStateBlob blob;
  trained.ExportState(&blob);

  MiniDlrm restored(SmallModel());
  ASSERT_TRUE(restored.ImportState(blob).ok());
  const std::vector<double> want = trained.Predict(probe);
  const std::vector<double> got = restored.Predict(probe);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(want[i], got[i]) << "row " << i;
  }
}

TEST(ModelStateTest, ImportRejectsMismatchedBlob) {
  MiniDlrm model(SmallModel());
  DlrmStateBlob blob;
  model.ExportState(&blob);
  blob.dense.pop_back();
  EXPECT_EQ(model.ImportState(blob).code(), StatusCode::kInvalidArgument);
}

TEST(ModelStateTest, ImportRejectsBadSparsePartBeforeTouchingDense) {
  // A blob whose dense part fits but whose sparse part is malformed must be
  // rejected as a whole: no new dense weights next to the old sparse rows.
  CriteoSynth data(31);
  const CriteoBatch probe = data.Batch(0, 64);
  MiniDlrm trained(SmallModel());
  DlrmBatchWork work;
  for (uint64_t step = 0; step < 20; ++step) {
    TrainOn(&trained, data, 1000 + step * 64, &work);
  }
  DlrmStateBlob blob;
  trained.ExportState(&blob);
  ASSERT_FALSE(blob.sparse.emb_values.empty());
  blob.sparse.emb_values.pop_back();

  MiniDlrm fresh(SmallModel());
  const std::vector<double> before = fresh.Predict(probe);
  EXPECT_EQ(fresh.ImportState(blob).code(), StatusCode::kInvalidArgument);
  const std::vector<double> after = fresh.Predict(probe);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "row " << i;
  }
}

// Truncates `v` at a random position or flips one random bit of one random
// element, at or after byte `first_byte` of it. Leaves an empty vector
// alone and returns false.
template <typename T>
bool Damage(std::vector<T>* v, Rng* rng, size_t first_byte = 0) {
  if (v->empty()) return false;
  const size_t pos = rng->UniformInt(v->size());
  if (rng->Bernoulli(0.5)) {
    v->resize(pos);
    return true;
  }
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &(*v)[pos], sizeof(T));
  bytes[first_byte + rng->UniformInt(sizeof(T) - first_byte)] ^=
      static_cast<unsigned char>(1u << rng->UniformInt(8));
  std::memcpy(&(*v)[pos], bytes, sizeof(T));
  return true;
}

// Damages vector `which` (0-6) of `ckpt`.
bool DamageVector(ModelCheckpoint* ckpt, int which, Rng* rng) {
  switch (which) {
    case 0:
      return Damage(&ckpt->model.dense, rng);
    case 1:
      return Damage(&ckpt->model.sparse.emb_keys, rng);
    case 2:
      return Damage(&ckpt->model.sparse.emb_values, rng);
    case 3:
      return Damage(&ckpt->model.sparse.wide_keys, rng);
    case 4:
      return Damage(&ckpt->model.sparse.wide_values, rng);
    case 5:
      // A pending range's shard index is not saved (restore assigns fresh
      // ones), so only its batch range can be damaged.
      return Damage(&ckpt->queue.pending, rng,
                    offsetof(DataShard, start_batch));
    default:
      return Damage(&ckpt->times_trained, rng);
  }
}

TEST(ModelStateTest, RandomlyDamagedCheckpointsAreNeverTrustedOrHalfApplied) {
  // A real checkpoint: a trained Wide&Deep model and a queue cut with
  // re-served ranges pending.
  CriteoSynth data(31);
  const CriteoBatch probe = data.Batch(0, 64);
  MiniDlrm trained(SmallModel());
  DlrmBatchWork work;
  for (uint64_t step = 0; step < 8; ++step) {
    TrainOn(&trained, data, 1000 + step * 64, &work);
  }
  ModelCheckpoint good;
  trained.ExportState(&good.model);
  ShardQueueOptions queue_options;
  queue_options.total_batches = 64;
  queue_options.default_shard_batches = 8;
  ShardQueue queue(queue_options);
  const DataShard first = queue.NextShard().value();
  const DataShard second = queue.NextShard().value();
  ASSERT_TRUE(queue.ReportCompleted(first).ok());
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(queue.RecordProgress(second.index).ok());
  }
  good.queue = queue.SnapshotState();
  good.committed_batches = good.queue.completed_batches;
  good.times_trained.assign(64, 0);
  for (uint64_t b = 0; b < good.committed_batches; ++b) {
    good.times_trained[b] = 1;
  }
  ASSERT_FALSE(good.model.sparse.emb_keys.empty());
  ASSERT_FALSE(good.model.sparse.wide_keys.empty());
  ASSERT_FALSE(good.queue.pending.empty());

  const size_t dense_size = good.model.dense.size();
  const size_t dim = static_cast<size_t>(SmallModel().emb_dim);
  Rng rng(2024);
  for (int trial = 0; trial < 280; ++trial) {
    const int which = trial % 7;
    // The vault: a generation damaged after commit is never handed back.
    CheckpointVault vault(3);
    vault.Commit(good);
    vault.Commit(good);
    ModelCheckpoint* stored = const_cast<ModelCheckpoint*>(vault.LatestValid());
    ASSERT_NE(stored, nullptr);
    ASSERT_EQ(stored->generation, 1u);
    ASSERT_TRUE(DamageVector(stored, which, &rng));
    const ModelCheckpoint* latest = vault.LatestValid();
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->generation, 0u) << "trial " << trial;

    // ImportState on the damaged model blob: accepted when its shape is
    // consistent and every key lies in the model's key space, otherwise
    // rejected with the target model untouched.
    const DlrmStateBlob& blob = stored->model;
    auto in_key_space = [](const std::vector<uint64_t>& keys) {
      return std::all_of(keys.begin(), keys.end(), [](uint64_t key) {
        return key < CriteoSynth::kNumCategorical * SmallModel().hash_buckets;
      });
    };
    const bool consistent =
        blob.dense.size() == dense_size &&
        blob.sparse.emb_values.size() == blob.sparse.emb_keys.size() * dim &&
        blob.sparse.wide_values.size() == blob.sparse.wide_keys.size() &&
        in_key_space(blob.sparse.emb_keys) &&
        in_key_space(blob.sparse.wide_keys);
    MiniDlrm target(SmallModel());
    TrainOn(&target, data, 5000, &work);
    const std::vector<double> predict_before = target.Predict(probe);
    DlrmStateBlob state_before;
    target.ExportState(&state_before);
    const Status status = target.ImportState(blob);
    if (consistent) {
      EXPECT_TRUE(status.ok()) << "trial " << trial << ": " << status;
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "trial " << trial;
    DlrmStateBlob state_after;
    target.ExportState(&state_after);
    EXPECT_EQ(state_after.dense, state_before.dense) << "trial " << trial;
    EXPECT_EQ(state_after.sparse.emb_keys, state_before.sparse.emb_keys);
    EXPECT_EQ(state_after.sparse.emb_values, state_before.sparse.emb_values);
    EXPECT_EQ(state_after.sparse.wide_keys, state_before.sparse.wide_keys);
    EXPECT_EQ(state_after.sparse.wide_values, state_before.sparse.wide_values);
    EXPECT_EQ(target.Predict(probe), predict_before) << "trial " << trial;
  }
}

TEST(ModelStateTest, SparseExportIsCanonicalAcrossInsertionOrder) {
  // Two models touch the same keys through different interleavings; their
  // exported sparse snapshots must be byte-identical (the checkpoint
  // checksum depends on it).
  CriteoSynth data(31);
  const uint64_t a = 0;
  const uint64_t b = 64 * 7;
  DlrmBatchWork work;
  MiniDlrm ab(SmallModel());
  TrainOn(&ab, data, a, &work);
  TrainOn(&ab, data, b, &work);
  MiniDlrm ba(SmallModel());
  TrainOn(&ba, data, b, &work);
  TrainOn(&ba, data, a, &work);

  DlrmStateBlob blob_ab;
  DlrmStateBlob blob_ba;
  ab.ExportState(&blob_ab);
  ba.ExportState(&blob_ba);
  EXPECT_EQ(blob_ab.sparse.emb_keys, blob_ba.sparse.emb_keys);
  EXPECT_EQ(blob_ab.sparse.wide_keys, blob_ba.sparse.wide_keys);
}

}  // namespace
}  // namespace dlrover
