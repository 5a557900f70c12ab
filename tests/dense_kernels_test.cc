#include "common/dense_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

namespace dlrover {
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
// the layer kernels (row tiles of 4, then 3/2/1 rows; column tiles of 4,
// then up to 3 single columns).
template <typename Check>
void ForEachLayerShape(Check check) {
  for (size_t ns : {1u, 3u, 4u, 5u, 13u}) {
    for (size_t out : {1u, 3u, 4u, 7u}) {
      for (size_t in : {1u, 3u, 5u, 7u, 8u, 13u}) {
        SCOPED_TRACE(::testing::Message()
                     << "ns=" << ns << " out=" << out << " in=" << in);
        check(ns, out, in);
      }
    }
  }
}

TEST(DenseKernelsTest, LayerForwardMatchesScalarDotOrder) {
  ForEachLayerShape([](size_t ns, size_t out, size_t in) {
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
    KernelLayerForward(w.data(), x.data(), ns, out, in, wt.data(), y.data());
    EXPECT_TRUE(SameBits(y, expect));
  });
}

TEST(DenseKernelsTest, LayerWeightGradMatchesSampleOrder) {
  ForEachLayerShape([](size_t ns, size_t out, size_t in) {
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
    KernelLayerWeightGrad(d.data(), x.data(), ns, out, in, g.data());
    EXPECT_TRUE(SameBits(g, expect));
  });
}

TEST(DenseKernelsTest, LayerInputGradMatchesOutputOrder) {
  ForEachLayerShape([](size_t ns, size_t out, size_t in) {
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
    KernelLayerInputGrad(w.data(), d.data(), ns, out, in, p.data());
    EXPECT_TRUE(SameBits(p, expect));
  });
}

}  // namespace
}  // namespace dlrover
