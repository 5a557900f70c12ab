#include "dlrm/criteo_synth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/stats.h"
#include "dlrm/metrics.h"

namespace dlrover {
namespace {

// Rng::Zipf as it was written before its constants moved into ZipfParams:
// every constant recomputed on every draw.
uint64_t PerDrawZipf(Rng& rng, uint64_t n, double s) {
  if (n == 1) return 0;
  const double sm = (s == 1.0) ? 1.0000001 : s;
  const double t = std::pow(static_cast<double>(n), 1.0 - sm);
  for (;;) {
    const double u = rng.Uniform();
    const double w = (t - 1.0) * u + 1.0;
    const double x = std::pow(w, 1.0 / (1.0 - sm));
    const uint64_t k = static_cast<uint64_t>(x);
    if (k >= 1 && k <= n) {
      const double ratio = std::pow(static_cast<double>(k) / x, sm);
      if (rng.Uniform() < ratio) return k - 1;
    }
  }
}

// Draw for draw, Zipf(ZipfParams) returns what the per-draw formula
// returns and consumes the same uniforms, so the generators stay in step.
void ExpectSameDraws(uint64_t n, double s, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
  Rng reference(seed);
  Rng rng(seed);
  const ZipfParams params(n, s);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(rng.Zipf(params), PerDrawZipf(reference, n, s)) << "draw " << i;
  }
  EXPECT_EQ(rng.NextU64(), reference.NextU64());
}

TEST(ZipfParamsTest, MatchesPerDrawFormula) {
  ExpectSameDraws(100, 1.2, 11);
  ExpectSameDraws(1000, 1.0, 12);  // s == 1 takes the nudged exponent
  ExpectSameDraws(1, 1.3, 13);     // one id: no draw at all
  ExpectSameDraws(2, 0.5, 14);
}

TEST(ZipfParamsTest, MatchesPerDrawFormulaOnEveryCriteoField) {
  // The fields' exponents lie in [1.05, 1.6), so `sm` is the drawn s.
  const CriteoSynth data(5);
  for (int f = 0; f < CriteoSynth::kNumCategorical; ++f) {
    const ZipfParams& params = data.FieldZipf(f);
    ExpectSameDraws(params.n, params.sm, 100 + static_cast<uint64_t>(f));
  }
}

TEST(CriteoSynthTest, RandomAccessIsDeterministic) {
  CriteoSynth a(42);
  CriteoSynth b(42);
  for (uint64_t i : {0ull, 1ull, 999ull, 123456789ull}) {
    const CriteoSample sa = a.Sample(i);
    const CriteoSample sb = b.Sample(i);
    EXPECT_EQ(sa.cats, sb.cats);
    EXPECT_EQ(sa.dense, sb.dense);
    EXPECT_EQ(sa.label, sb.label);
  }
  // Access order does not matter.
  const CriteoSample late_first = CriteoSynth(42).Sample(999);
  EXPECT_EQ(late_first.cats, a.Sample(999).cats);
}

TEST(CriteoSynthTest, DifferentSeedsDiffer) {
  CriteoSynth a(1);
  CriteoSynth b(2);
  int identical = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    if (a.Sample(i).cats == b.Sample(i).cats) ++identical;
  }
  EXPECT_EQ(identical, 0);
}

TEST(CriteoSynthTest, ShapeAndRanges) {
  CriteoSynth data(7);
  const CriteoBatch batch = data.Batch(100, 256);
  ASSERT_EQ(batch.size(), 256u);
  for (const CriteoSample& sample : batch.samples) {
    ASSERT_EQ(sample.dense.size(),
              static_cast<size_t>(CriteoSynth::kNumDense));
    ASSERT_EQ(sample.cats.size(),
              static_cast<size_t>(CriteoSynth::kNumCategorical));
    for (int f = 0; f < CriteoSynth::kNumCategorical; ++f) {
      EXPECT_LT(sample.cats[static_cast<size_t>(f)], data.FieldZipf(f).n);
    }
    for (float d : sample.dense) EXPECT_GE(d, 0.0f);  // log1p of positives
    EXPECT_TRUE(sample.label == 0.0f || sample.label == 1.0f);
  }
}

TEST(CriteoSynthTest, CategoricalIdsAreSkewed) {
  CriteoSynth data(9);
  std::map<uint64_t, int> counts;
  for (uint64_t i = 0; i < 4000; ++i) {
    ++counts[data.Sample(i).cats[0]];
  }
  int max_count = 0;
  for (const auto& [id, count] : counts) max_count = std::max(max_count, count);
  // Power-law ids: the hottest id is far above uniform expectation.
  EXPECT_GT(max_count, 40);
}

TEST(CriteoSynthTest, LabelsFollowTeacherProbabilities) {
  CriteoSynth data(11);
  RunningStat click_rate;
  RunningStat teacher_rate;
  for (uint64_t i = 0; i < 20000; ++i) {
    const CriteoSample sample = data.Sample(i);
    click_rate.Add(sample.label);
    teacher_rate.Add(data.TeacherProbability(sample));
  }
  EXPECT_NEAR(click_rate.mean(), teacher_rate.mean(), 0.01);
  // CTR-like base rate: strictly between degenerate extremes.
  EXPECT_GT(click_rate.mean(), 0.05);
  EXPECT_LT(click_rate.mean(), 0.6);
}

TEST(CriteoSynthTest, TeacherIsLearnableSignal) {
  // The Bayes-optimal scores (teacher probabilities) must separate the
  // classes well; otherwise the Fig 8 experiment would measure noise.
  CriteoSynth data(13);
  std::vector<double> scores;
  std::vector<float> labels;
  for (uint64_t i = 0; i < 8000; ++i) {
    const CriteoSample sample = data.Sample(i);
    scores.push_back(data.TeacherProbability(sample));
    labels.push_back(sample.label);
  }
  EXPECT_GT(Auc(scores, labels), 0.72);
}

}  // namespace
}  // namespace dlrover
