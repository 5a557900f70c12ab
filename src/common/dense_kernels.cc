#include "common/dense_kernels.h"

#include <cstring>

namespace dlrover {

namespace {

// Two doubles, element-wise. `+` and `*` on it round each lane exactly like
// the scalar operation; baseline x86-64 compiles them to SSE2 mulpd/addpd
// (no FMA to contract into, as for the scalar loops), other targets to
// their own 2-wide vectors or to scalar code.
using V2 = double __attribute__((vector_size(16)));

V2 Load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store2(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

// Shared core of the three layer kernels, for R rows of z at a time:
//
//   z[r][j] = init + sum_k a[k][j] * b[r * rs + k * ks],  k ascending,
//
// where init is z[r][j] itself when `accumulate` is set and 0.0 otherwise.
// a is k_len x c and z is R x c, both row-major with unit column stride.
// Every z element keeps its own accumulator chain, so the result is
// bit-identical to the scalar loop `acc = init; for k: acc += a * b`; the
// tile only interleaves independent chains: 4 columns (two V2) per row,
// then the remaining columns one at a time.
template <int R>
void TileRows(const double* a, const double* b, size_t rs, size_t ks,
              size_t k_len, size_t c, bool accumulate, double* z) {
  size_t j = 0;
  for (; j + 4 <= c; j += 4) {
    V2 acc[R][2];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      if (accumulate) {
        acc[r][0] = Load2(z + r * c + j);
        acc[r][1] = Load2(z + r * c + j + 2);
      } else {
        acc[r][0] = V2{0.0, 0.0};
        acc[r][1] = V2{0.0, 0.0};
      }
    }
    for (size_t k = 0; k < k_len; ++k) {
      const V2 a0 = Load2(a + k * c + j);
      const V2 a1 = Load2(a + k * c + j + 2);
      #pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const double bv = b[r * rs + k * ks];
        const V2 bb = {bv, bv};
        acc[r][0] += a0 * bb;
        acc[r][1] += a1 * bb;
      }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      Store2(z + r * c + j, acc[r][0]);
      Store2(z + r * c + j + 2, acc[r][1]);
    }
  }
  for (; j < c; ++j) {
    double acc[R];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = accumulate ? z[r * c + j] : 0.0;
    for (size_t k = 0; k < k_len; ++k) {
      #pragma GCC unroll 4
      for (int r = 0; r < R; ++r) acc[r] += a[k * c + j] * b[r * rs + k * ks];
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) z[r * c + j] = acc[r];
  }
}

// TileRows over all `rows` rows of z: tiles of four, then the remainder.
void SumProducts(const double* a, const double* b, size_t rs, size_t ks,
                 size_t rows, size_t k_len, size_t c, bool accumulate,
                 double* z) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    TileRows<4>(a, b + r * rs, rs, ks, k_len, c, accumulate, z + r * c);
  }
  const double* br = b + r * rs;
  double* zr = z + r * c;
  switch (rows - r) {
    case 3: TileRows<3>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    case 2: TileRows<2>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    case 1: TileRows<1>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    default: break;
  }
}

}  // namespace

double KernelDot(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void KernelAxpy(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void KernelLayerForward(const double* w, const double* x, size_t ns,
                        size_t out, size_t in, double* wt_scratch, double* y) {
  for (size_t o = 0; o < out; ++o) {
    for (size_t i = 0; i < in; ++i) wt_scratch[i * out + o] = w[o * in + i];
  }
  // z = y (ns x out), k = i, a = w^T (in x out), b[s][i] = x[s * in + i].
  SumProducts(wt_scratch, x, in, 1, ns, in, out, /*accumulate=*/false, y);
}

void KernelLayerWeightGrad(const double* d, const double* x, size_t ns,
                           size_t out, size_t in, double* g) {
  // z = g (out x in), k = s, a = x (ns x in), b[o][s] = d[s * out + o].
  SumProducts(x, d, 1, out, out, ns, in, /*accumulate=*/true, g);
}

void KernelLayerInputGrad(const double* w, const double* d, size_t ns,
                          size_t out, size_t in, double* p) {
  // z = p (ns x in), k = o, a = w (out x in), b[s][o] = d[s * out + o].
  SumProducts(w, d, out, 1, ns, out, in, /*accumulate=*/false, p);
}

}  // namespace dlrover
