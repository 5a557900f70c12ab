#include "common/dense_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

namespace dlrover {

// Names the parameter in test names and failure messages (found by ADL, so
// it lives in KernelIsa's namespace).
void PrintTo(KernelIsa isa, std::ostream* os) {
  *os << (isa == KernelIsa::kBaseline ? "Baseline" : "Avx2");
}

namespace {

std::vector<double> Ramp(size_t n, double scale) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = scale * (static_cast<double>(i % 17) - 8.0) / 7.0;
  }
  return v;
}

TEST(DenseKernelsTest, ScalarDotIsLeftToRightSum) {
  // Bit-identical to the historical accumulation loop, for any length
  // (the goldens depend on this).
  for (size_t n : {0u, 1u, 3u, 4u, 15u, 16u, 17u, 64u, 129u}) {
    const std::vector<double> a = Ramp(n, 1.3);
    const std::vector<double> b = Ramp(n, -0.7);
    double expect = 0.0;
    for (size_t i = 0; i < n; ++i) expect += a[i] * b[i];
    EXPECT_EQ(KernelDot(a.data(), b.data(), n), expect) << "n=" << n;
  }
}

TEST(DenseKernelsTest, ScalarAxpyMatchesElementwise) {
  for (size_t n : {0u, 1u, 5u, 8u, 13u, 32u, 100u}) {
    const std::vector<double> x = Ramp(n, 2.1);
    std::vector<double> y = Ramp(n, 0.4);
    std::vector<double> expect = y;
    const double alpha = -0.3;
    for (size_t i = 0; i < n; ++i) expect[i] += alpha * x[i];
    KernelAxpy(n, alpha, x.data(), y.data());
    EXPECT_EQ(y, expect) << "n=" << n;
  }
}

// Ramp values salted with both signed zeros and a subnormal, so the
// layer-kernel comparisons also pin the sign of zero sums and gradual
// underflow.
std::vector<double> Salted(size_t n, double scale, size_t phase) {
  std::vector<double> v = Ramp(n, scale);
  for (size_t i = 0; i < n; ++i) {
    const size_t k = i + phase;
    if (k % 5 == 1) v[i] = -0.0;
    if (k % 7 == 3) v[i] = 0.0;
    if (k % 11 == 4) v[i] = 3 * std::numeric_limits<double>::denorm_min();
  }
  return v;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Runs `check(ns, out, in)` over shapes that reach every tile remainder of
// the layer kernels: row tiles of 4, then 3/2/1 rows; column tiles of 8
// (AVX2 only), then of 4, then up to 3 single columns.
template <typename Check>
void ForEachLayerShape(Check check) {
  const size_t widths[] = {1, 3, 4, 7, 8, 9, 12, 13, 17, 64};
  for (size_t ns : {1u, 3u, 4u, 5u, 13u}) {
    for (size_t out : widths) {
      for (size_t in : widths) {
        SCOPED_TRACE(::testing::Message()
                     << "ns=" << ns << " out=" << out << " in=" << in);
        check(ns, out, in);
      }
    }
  }
}

// Each Check* runs one layer kernel, passed as a callable with that
// kernel's parameter list, against its scalar loop on every shape.
template <typename Forward>
void CheckLayerForward(Forward forward) {
  ForEachLayerShape([&](size_t ns, size_t out, size_t in) {
    const std::vector<double> w = Salted(out * in, 1.3, 0);
    const std::vector<double> x = Salted(ns * in, -0.7, 2);
    std::vector<double> expect(ns * out);
    for (size_t s = 0; s < ns; ++s) {
      for (size_t o = 0; o < out; ++o) {
        double acc = 0.0;
        for (size_t i = 0; i < in; ++i) acc += w[o * in + i] * x[s * in + i];
        expect[s * out + o] = acc;
      }
    }
    std::vector<double> wt(out * in);
    std::vector<double> y(ns * out);
    forward(w.data(), x.data(), ns, out, in, wt.data(), y.data());
    EXPECT_TRUE(SameBits(y, expect));
  });
}

template <typename WeightGrad>
void CheckLayerWeightGrad(WeightGrad weight_grad) {
  ForEachLayerShape([&](size_t ns, size_t out, size_t in) {
    const std::vector<double> d = Salted(ns * out, 0.9, 1);
    const std::vector<double> x = Salted(ns * in, -1.1, 3);
    std::vector<double> expect = Salted(out * in, 0.2, 4);
    std::vector<double> g = expect;
    for (size_t s = 0; s < ns; ++s) {
      for (size_t o = 0; o < out; ++o) {
        for (size_t i = 0; i < in; ++i) {
          expect[o * in + i] += d[s * out + o] * x[s * in + i];
        }
      }
    }
    weight_grad(d.data(), x.data(), ns, out, in, g.data());
    EXPECT_TRUE(SameBits(g, expect));
  });
}

template <typename InputGrad>
void CheckLayerInputGrad(InputGrad input_grad) {
  ForEachLayerShape([&](size_t ns, size_t out, size_t in) {
    const std::vector<double> w = Salted(out * in, 1.3, 0);
    const std::vector<double> d = Salted(ns * out, -0.6, 2);
    std::vector<double> expect(ns * in, 0.0);
    for (size_t s = 0; s < ns; ++s) {
      for (size_t o = 0; o < out; ++o) {
        for (size_t i = 0; i < in; ++i) {
          expect[s * in + i] += w[o * in + i] * d[s * out + o];
        }
      }
    }
    std::vector<double> p(ns * in, 1.0);  // overwritten, not accumulated
    input_grad(w.data(), d.data(), ns, out, in, p.data());
    EXPECT_TRUE(SameBits(p, expect));
  });
}

// The kernels as programs call them: the tiles chosen at the first call.
TEST(DenseKernelsTest, LayerForwardMatchesScalarDotOrder) {
  CheckLayerForward([](auto... args) { KernelLayerForward(args...); });
}

TEST(DenseKernelsTest, LayerWeightGradMatchesSampleOrder) {
  CheckLayerWeightGrad([](auto... args) { KernelLayerWeightGrad(args...); });
}

TEST(DenseKernelsTest, LayerInputGradMatchesOutputOrder) {
  CheckLayerInputGrad([](auto... args) { KernelLayerInputGrad(args...); });
}

// Each instruction set's tiles on their own, so the baseline fallback is
// checked on CPUs that would pick AVX2.
class DenseKernelsIsaTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!KernelIsaSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run these tiles";
    }
  }
};

TEST_P(DenseKernelsIsaTest, LayerForwardMatchesScalarDotOrder) {
  CheckLayerForward([isa = GetParam()](auto... args) {
    KernelLayerForward(isa, args...);
  });
}

TEST_P(DenseKernelsIsaTest, LayerWeightGradMatchesSampleOrder) {
  CheckLayerWeightGrad([isa = GetParam()](auto... args) {
    KernelLayerWeightGrad(isa, args...);
  });
}

TEST_P(DenseKernelsIsaTest, LayerInputGradMatchesOutputOrder) {
  CheckLayerInputGrad([isa = GetParam()](auto... args) {
    KernelLayerInputGrad(isa, args...);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, DenseKernelsIsaTest,
    ::testing::Values(KernelIsa::kBaseline, KernelIsa::kAvx2),
    [](const ::testing::TestParamInfo<KernelIsa>& info) {
      return ::testing::PrintToString(info.param);
    });

}  // namespace
}  // namespace dlrover
