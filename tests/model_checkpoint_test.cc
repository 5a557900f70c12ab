#include "dlrm/model_checkpoint.h"

#include <gtest/gtest.h>

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
