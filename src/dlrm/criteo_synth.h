#ifndef DLROVER_DLRM_CRITEO_SYNTH_H_
#define DLROVER_DLRM_CRITEO_SYNTH_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace dlrover {

/// One Criteo-style sample: 13 continuous features, 26 categorical ids,
/// binary click label.
struct CriteoSample {
  std::vector<float> dense;     // size kNumDense
  std::vector<uint64_t> cats;   // size kNumCategorical, raw ids
  float label = 0.0f;
};

struct CriteoBatch {
  std::vector<CriteoSample> samples;
  size_t size() const { return samples.size(); }
};

/// Synthetic Criteo-like CTR data (substitute for the Kaggle dataset, per
/// DESIGN.md). Key properties preserved for the Fig 8 experiment:
///   - 13 dense + 26 categorical features, power-law (Zipf) id frequencies
///     with per-feature vocabularies, like real CTR logs;
///   - labels from a planted logistic teacher over dense features, per-id
///     biases, and a few pairwise interactions, so models can genuinely
///     learn and test logloss/AUC measure that learning;
///   - fully deterministic addressing: sample #i is a pure function of
///     (seed, i). Data shards reference index ranges, so exactly-once
///     consumption is testable end to end and independent of which worker
///     processes which shard.
class CriteoSynth {
 public:
  static constexpr int kNumDense = 13;
  static constexpr int kNumCategorical = 26;

  /// `drift_samples` > 0 enables temporal concept drift: the teacher's
  /// per-id effects rotate over the sample index with that horizon, as CTR
  /// distributions do in production. Under drift, the most recent training
  /// data is the most predictive of a held-out *future* window — which is
  /// why losing a straggler's late batches (naive elasticity) costs
  /// accuracy while exactly-once sharding does not.
  explicit CriteoSynth(uint64_t seed, double drift_samples = 0.0);

  /// Deterministically materializes sample #index.
  CriteoSample Sample(uint64_t index) const;

  /// Materializes samples [start, start + count).
  CriteoBatch Batch(uint64_t start, uint64_t count) const;

  /// In-place variants for the training hot loop: identical values to
  /// Sample/Batch, but reusing the caller's buffers — once `out` has been
  /// filled at this size, refills perform zero heap allocations.
  void FillSample(uint64_t index, CriteoSample* out) const;
  void FillBatch(uint64_t start, uint64_t count, CriteoBatch* out) const;

  /// The id distribution of categorical feature `f`: its vocabulary size
  /// `n` and Zipf exponent.
  const ZipfParams& FieldZipf(int f) const { return zipf_[f]; }

  /// The teacher's Bayes-optimal click probability for sample #index.
  double TeacherProbability(const CriteoSample& sample,
                            uint64_t index = 0) const;

 private:
  double TeacherLogit(const CriteoSample& sample, uint64_t index) const;

  uint64_t seed_;
  double drift_samples_;
  // Per categorical feature: its vocabulary size and Zipf exponent, with
  // the sampler's constants computed once.
  std::vector<ZipfParams> zipf_;
  // Teacher parameters (fixed at construction from the seed).
  std::vector<double> teacher_dense_w_;
  std::vector<double> teacher_cat_scale_;
  double teacher_bias_;
};

}  // namespace dlrover

#endif  // DLROVER_DLRM_CRITEO_SYNTH_H_
