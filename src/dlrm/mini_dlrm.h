#ifndef DLROVER_DLRM_MINI_DLRM_H_
#define DLROVER_DLRM_MINI_DLRM_H_

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/emb_store.h"
#include "ps/model_profile.h"

namespace dlrover {

/// Configuration of the mini-DLRM used in the convergence experiments.
/// Small enough to train quickly, structurally faithful: per-feature hashed
/// embedding tables, a dense-feature projection, an architecture-specific
/// interaction head and an MLP tower, trained with async-PS semantics.
struct MiniDlrmConfig {
  ModelKind arch = ModelKind::kWideDeep;
  int emb_dim = 8;
  uint64_t hash_buckets = 8192;  // per categorical feature
  std::vector<int> mlp_hidden = {64, 32};
  int cross_layers = 2;  // DCN head
  int fm_maps = 8;       // xDeepFM-lite (FM-style CIN approximation) head
  double init_scale = 0.05;
  uint64_t seed = 7;
};

/// Dense (non-embedding) parameters: copied wholesale into a worker's
/// DlrmBatchWork at pull time, like pulling the dense part from a PS. The
/// per-worker gradient accumulators use the same shapes.
struct DenseParams {
  Matrix dense_proj;                     // emb_dim x 13
  std::vector<Matrix> mlp_w;             // per layer: out x in
  std::vector<std::vector<double>> mlp_b;
  std::vector<std::vector<double>> cross_w;  // DCN: per layer, size n0
  std::vector<std::vector<double>> cross_b;
  std::vector<double> cross_out_w;           // size n0
  std::vector<std::vector<double>> fm_proj;  // fm_maps x emb_dim
  std::vector<double> fm_w;                  // fm_maps
  double bias = 0.0;
};

/// Serialized full model state: every dense parameter flattened in a fixed
/// traversal order plus the canonical sparse-store dump. This is the
/// payload a model checkpoint stores and checksums; the layout depends only
/// on the model config, never on thread interleaving.
struct DlrmStateBlob {
  std::vector<double> dense;
  EmbStoreSnapshot sparse;
};

/// Reusable per-worker workspace of the batch cycle (MiniDlrm::PullBatch /
/// ComputeBatch / PushBatch). Owns every buffer one training step needs:
/// the pulled dense copy, the batch's unique sparse keys with their
/// gathered rows, the per-worker gradient accumulators that PushBatch
/// merges into the live model at commit, and the flat forward/backward
/// scratch. All buffers are sized on first use and reused after that, so a
/// warmed steady-state batch performs zero heap allocations. One instance
/// per worker; never shared across threads. Treat the members as opaque —
/// only `batch` is caller-filled (via CriteoSynth::FillBatch), everything
/// else belongs to MiniDlrm.
struct DlrmBatchWork {
  CriteoBatch batch;

  // Pulled parameters (one consistent dense version + the batch's rows).
  DenseParams dense;
  std::vector<uint64_t> keys;   // sorted unique packed (feature,bucket) keys
  std::vector<double> rows;     // keys.size() * emb_dim gathered rows
  std::vector<double> wide;     // keys.size() wide weights (Wide&Deep only)
  std::vector<uint32_t> slot;   // (sample * 26 + feature) -> index into keys

  // Per-worker gradient accumulators, merged at commit by PushBatch.
  DenseParams dense_grads;
  std::vector<double> row_grads;   // keys.size() * emb_dim
  std::vector<double> wide_grads;  // keys.size() (Wide&Deep only)

  // Forward/backward scratch (flat, reused), batch-major: sample s owns
  // row s of every ns x width buffer. x0 holds the concatenated field
  // vectors: field f of sample s lives at [s * n0 + f * emb_dim, ...).
  std::vector<double> x0;                     // ns x n0
  std::vector<std::vector<double>> mlp_pre;   // per layer: ns x out
  std::vector<std::vector<double>> mlp_post;  // per layer: ns x out
  std::vector<double> wt;       // one layer's weights, transposed
  std::vector<double> dlogit;   // ns
  std::vector<double> delta;    // ns x widest layer input
  std::vector<double> prev;     // ns x widest layer input
  std::vector<double> cross_x;  // DCN: ns x cross_layers x n0 (x_1..x_L)
  std::vector<double> cross_s;  // DCN: ns x cross_layers
  std::vector<double> fm_t;     // xDeepFM: ns x fm_maps x 27
  std::vector<double> fm_f;     // xDeepFM: ns x fm_maps
  std::vector<double> fm_s;     // xDeepFM: ns x fm_maps
  // Per-sample backward scratch (n0 each).
  std::vector<double> dfields;
  std::vector<double> dx0;
  std::vector<double> dxl;    // DCN
  std::vector<double> dprev;  // DCN

  // Key-dedup scratch: (key, position) pairs, the radix sort's second
  // buffer and its digit counters; then the stripe-grouping scratch.
  std::vector<std::pair<uint64_t, uint32_t>> key_scratch;
  std::vector<std::pair<uint64_t, uint32_t>> key_sorted;
  std::vector<uint32_t> radix_count;
  EmbStore::BatchScratch store_scratch;

  bool initialized = false;
};

/// The key dedup of MiniDlrm's sparse pull. Takes `work->key_scratch`: n
/// (key, position) pairs with positions 0..n-1 in order and every key below
/// `key_bound`. Leaves the distinct keys, ascending, in `work->keys`, and
/// for each position the index of its key in `work->slot`. Reuses the
/// work's scratch, so a warmed call allocates nothing. Public as a test
/// seam.
void DedupBatchKeys(uint64_t key_bound, DlrmBatchWork* work);

/// A small but real deep recommendation model with three selectable
/// architectures (the paper's Model-X/Y/Z):
///   Wide&Deep — MLP tower + wide per-id linear head;
///   xDeepFM   — MLP tower + FM-style compressed interaction head
///               (a CIN approximation; see DESIGN.md);
///   DCN       — MLP tower + explicit cross-layer head.
/// Training is exception-free, deterministic given the seed, and built for
/// async-PS semantics: every worker trains through one batch cycle,
/// PullBatch / ComputeBatch / PushBatch, which emulates pull / compute /
/// push. Predict runs the forward half of the same cycle.
///
/// Thread safety: PullBatch, ComputeBatch, PushBatch (one DlrmBatchWork per
/// worker), Predict, Evaluate and MaterializedRows may be called
/// concurrently from worker threads (ExecMode::kThreads). The dense
/// parameters are guarded by a reader/writer lock (pulls read-lock, pushes
/// write-lock); embedding and wide rows live in a lock-striped EmbStore so
/// concurrent pulls and pushes contend only per stripe.
class MiniDlrm {
 public:
  explicit MiniDlrm(const MiniDlrmConfig& config);

  /// The allocation-free batch cycle, pull / compute / push against a
  /// per-worker workspace:
  ///   PullBatch    — dense copy + batched sparse gather of the batch's
  ///                  deduplicated keys (one lock round-trip per touched
  ///                  stripe instead of one per key); zeroes the sparse
  ///                  gradient accumulators;
  ///   ComputeBatch — forward/backward into the worker's private gradient
  ///                  accumulators, running the MLP tower once per layer
  ///                  over the whole batch; returns mean logloss, with
  ///                  gradients averaged over the batch;
  ///   PushBatch    — merges the accumulators into the live model (async
  ///                  SGD step): dense axpy under the write lock, then the
  ///                  sharded sparse scatter with per-stripe locking.
  /// Every accumulator receives its terms in sample order, so losses and
  /// updates are reproducible bit for bit (pinned by dlrm_golden_test).
  void PullBatch(DlrmBatchWork* work) const;
  double ComputeBatch(DlrmBatchWork* work) const;
  void PushBatch(DlrmBatchWork* work, double learning_rate);

  /// Click probabilities under the live parameters: one dense pull, then
  /// the forward phases of ComputeBatch over chunks of kPredictChunk
  /// samples, so a large evaluation set never sits in batch-major buffers
  /// at once. Each probability depends only on its own sample.
  std::vector<double> Predict(const CriteoBatch& batch) const;
  static constexpr size_t kPredictChunk = 128;

  /// Mean logloss of the live parameters on a batch.
  double Evaluate(const CriteoBatch& batch) const;

  /// Number of embedding rows materialized so far (memory growth proxy).
  size_t MaterializedRows() const;

  /// Serializes the complete model (dense + materialized sparse state) into
  /// `out`. Takes the dense read lock and the stripe locks one at a time;
  /// for a consistent cut the caller must quiesce concurrent pushes (the
  /// trainer holds its commit gate exclusively while checkpointing).
  void ExportState(DlrmStateBlob* out) const;

  /// Restores the model from a blob produced by ExportState on a model of
  /// the same config. Unmaterialized rows revert to their deterministic
  /// lazy init. Rejects blobs whose dense length or sparse shape does not
  /// match this model.
  Status ImportState(const DlrmStateBlob& blob);

  const MiniDlrmConfig& config() const { return config_; }

 private:
  uint64_t Bucket(int feature, uint64_t id) const {
    return (id * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(feature)) %
           config_.hash_buckets;
  }

  /// Sizes the fixed (batch-independent) buffers of `work` on first use.
  void EnsureWork(DlrmBatchWork* work) const;
  /// The two halves of a pull, shared by PullBatch and Predict: one
  /// consistent copy of the dense parameters, and the deduplicated gather
  /// of the rows `ns` samples touch (keys, slot table, rows, wide weights).
  void PullDense(DlrmBatchWork* work) const;
  void GatherSparse(const CriteoSample* samples, size_t ns,
                    DlrmBatchWork* work) const;
  /// The phases of the cycle. The tower runs once per layer over the whole
  /// batch; the heads run per sample, in sample order. Each gradient
  /// accumulator receives its terms in sample order, and each sum keeps
  /// one fixed order (see the exact-order kernels in dense_kernels.h).
  /// Sparse grads go to work.row_grads / work.wide_grads via the batch's
  /// slot table.
  void ResizeForward(size_t ns, DlrmBatchWork& work) const;
  void AssembleFields(const CriteoSample* samples, size_t ns,
                      DlrmBatchWork& work) const;
  void TowerForward(size_t ns, DlrmBatchWork& work) const;
  double HeadForward(size_t s, double logit, DlrmBatchWork& work) const;
  /// Returns the tower's gradient at x0, ns x n0 (inside work.delta or
  /// work.prev).
  const double* TowerBackward(DlrmBatchWork& work) const;
  void SampleBackward(size_t s, const double* tower_dx0,
                      DlrmBatchWork& work) const;

  MiniDlrmConfig config_;
  int n0_ = 0;  // concatenated field width = (1 + 26) * emb_dim
  DenseParams params_;
  mutable std::shared_mutex params_mu_;  // guards params_ (dense half)
  EmbStore store_;  // lazily materialized embedding/wide rows, lock-striped
  mutable Rng init_rng_;
};

}  // namespace dlrover

#endif  // DLROVER_DLRM_MINI_DLRM_H_
