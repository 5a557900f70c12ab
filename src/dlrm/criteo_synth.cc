#include "dlrm/criteo_synth.h"

#include <cmath>

#include <algorithm>

namespace dlrover {

namespace {
// Stateless hash used to derive per-id teacher biases without storing them.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}
}  // namespace

CriteoSynth::CriteoSynth(uint64_t seed, double drift_samples)
    : seed_(seed), drift_samples_(drift_samples) {
  Rng rng(seed ^ 0xc0ffee);
  zipf_.reserve(kNumCategorical);
  teacher_cat_scale_.resize(kNumCategorical);
  for (int f = 0; f < kNumCategorical; ++f) {
    // Criteo vocabularies span a few dozen to millions of ids; cover a few
    // orders of magnitude.
    const double log_size = rng.Uniform(2.0, 5.0);  // 100 .. 100k
    const uint64_t vocab = static_cast<uint64_t>(std::pow(10.0, log_size));
    zipf_.emplace_back(vocab, rng.Uniform(1.05, 1.6));
    teacher_cat_scale_[f] = rng.Uniform(0.2, 1.0);
  }
  teacher_dense_w_.resize(kNumDense);
  for (int d = 0; d < kNumDense; ++d) {
    teacher_dense_w_[d] = rng.Normal(0.0, 0.6);
  }
  teacher_bias_ = -1.2;  // skewed label prior, like CTR data
}

void CriteoSynth::FillSample(uint64_t index, CriteoSample* out) const {
  // Per-sample generator keyed by (seed, index): random access, no state.
  Rng rng(Mix(seed_ ^ Mix(index + 0x9e3779b9)));
  out->dense.resize(kNumDense);
  for (int d = 0; d < kNumDense; ++d) {
    // Heavy-tailed counts, log-transformed as in standard Criteo pipelines.
    const double raw = rng.LogNormal(1.0, 1.0);
    out->dense[d] = static_cast<float>(std::log1p(raw));
  }
  out->cats.resize(kNumCategorical);
  for (int f = 0; f < kNumCategorical; ++f) {
    out->cats[f] = rng.Zipf(zipf_[f]);
  }
  const double p = TeacherProbability(*out, index);
  out->label = rng.Bernoulli(p) ? 1.0f : 0.0f;
}

CriteoSample CriteoSynth::Sample(uint64_t index) const {
  CriteoSample sample;
  FillSample(index, &sample);
  return sample;
}

void CriteoSynth::FillBatch(uint64_t start, uint64_t count,
                            CriteoBatch* out) const {
  out->samples.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    FillSample(start + i, &out->samples[i]);
  }
}

CriteoBatch CriteoSynth::Batch(uint64_t start, uint64_t count) const {
  CriteoBatch batch;
  FillBatch(start, count, &batch);
  return batch;
}

double CriteoSynth::TeacherLogit(const CriteoSample& sample,
                                 uint64_t index) const {
  double logit = teacher_bias_;
  for (int d = 0; d < kNumDense; ++d) {
    logit += teacher_dense_w_[d] * (sample.dense[d] - 1.0);
  }
  // Concept drift: per-id effects rotate between two independent values
  // over the drift horizon (theta grows with the sample index).
  const double theta = drift_samples_ > 0.0
                           ? 0.5 * M_PI * std::min(
                                 2.0, static_cast<double>(index) /
                                          drift_samples_)
                           : 0.0;
  const double ca = std::cos(theta);
  const double cb = std::sin(theta);
  // Per-id biases via hashing: popular ids get stable, learnable effects.
  for (int f = 0; f < kNumCategorical; ++f) {
    const uint64_t h = Mix(seed_ ^ (static_cast<uint64_t>(f) << 40) ^
                           sample.cats[f]);
    const uint64_t h2 = Mix(h ^ 0x5bd1e995u);
    const double unit =
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;  // [-1, 1)
    const double unit2 =
        static_cast<double>(h2 >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    logit += teacher_cat_scale_[f] * (ca * unit + cb * unit2);
  }
  // A few pairwise interactions so nonlinear models have an edge.
  for (int f = 0; f + 1 < 6; f += 2) {
    const uint64_t h = Mix(Mix(seed_ ^ sample.cats[f]) ^ sample.cats[f + 1]);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    logit += 0.5 * unit;
  }
  return logit;
}

double CriteoSynth::TeacherProbability(const CriteoSample& sample,
                                       uint64_t index) const {
  return 1.0 / (1.0 + std::exp(-TeacherLogit(sample, index)));
}

}  // namespace dlrover
