#include "common/dense_kernels.h"

#include <cstring>

namespace dlrover {

namespace {

// Two doubles, element-wise. `+` and `*` on it round each lane exactly like
// the scalar operation; baseline x86-64 compiles them to SSE2 mulpd/addpd
// (no FMA to contract into, as for the scalar loops), other targets to
// their own 2-wide vectors or to scalar code.
using V2 = double __attribute__((vector_size(16)));

// Vector loads and stores through pointers, never by value: a 32-byte
// vector passed or returned by value changes the calling convention
// between the baseline and the AVX2 code (GCC's -Wpsabi).
template <typename V>
void Load(V* v, const double* p) {
  std::memcpy(v, p, sizeof(V));
}

template <typename V>
void Store(double* p, const V* v) {
  std::memcpy(p, v, sizeof(V));
}

// Shared core of the three layer kernels, for R rows of z at a time:
//
//   z[r][j] = init + sum_k a[k][j] * b[r * rs + k * ks],  k ascending,
//
// where init is z[r][j] itself when `accumulate` is set and 0.0 otherwise.
// a is k_len x c and z is R x c, both row-major with unit column stride.
// Every z element keeps its own accumulator chain, so the result is
// bit-identical to the scalar loop `acc = init; for k: acc += a * b`; the
// tile only interleaves independent chains. ColumnTiles<V> covers columns
// [j, ...) two V vectors per row at a time and returns the first column it
// left; TileRows<V> runs it with V, then with V2 when V is wider, then
// finishes the remaining columns one at a time. Both are always inlined,
// so SumProductsAvx2 below compiles them with 4-wide ymm vectors and
// SumProducts with baseline 2-wide ones: no out-of-line copy exists that
// the linker could share between the two instruction sets.
template <typename V, int R>
[[gnu::always_inline]] inline size_t ColumnTiles(
    const double* a, const double* b, size_t rs, size_t ks, size_t k_len,
    size_t c, bool accumulate, size_t j, double* z) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  for (; j + 2 * kLanes <= c; j += 2 * kLanes) {
    V acc[R][2];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      if (accumulate) {
        Load(&acc[r][0], z + r * c + j);
        Load(&acc[r][1], z + r * c + j + kLanes);
      } else {
        acc[r][0] = V{};
        acc[r][1] = V{};
      }
    }
    for (size_t k = 0; k < k_len; ++k) {
      V a0, a1;
      Load(&a0, a + k * c + j);
      Load(&a1, a + k * c + j + kLanes);
      #pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const double bv = b[r * rs + k * ks];
        acc[r][0] += a0 * bv;
        acc[r][1] += a1 * bv;
      }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      Store(z + r * c + j, &acc[r][0]);
      Store(z + r * c + j + kLanes, &acc[r][1]);
    }
  }
  return j;
}

template <typename V, int R>
[[gnu::always_inline]] inline void TileRows(const double* a, const double* b,
                                            size_t rs, size_t ks,
                                            size_t k_len, size_t c,
                                            bool accumulate, double* z) {
  size_t j = ColumnTiles<V, R>(a, b, rs, ks, k_len, c, accumulate, 0, z);
  if constexpr (sizeof(V) > sizeof(V2)) {
    j = ColumnTiles<V2, R>(a, b, rs, ks, k_len, c, accumulate, j, z);
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
template <typename V>
[[gnu::always_inline]] inline void SumProductsWith(
    const double* a, const double* b, size_t rs, size_t ks, size_t rows,
    size_t k_len, size_t c, bool accumulate, double* z) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    TileRows<V, 4>(a, b + r * rs, rs, ks, k_len, c, accumulate, z + r * c);
  }
  const double* br = b + r * rs;
  double* zr = z + r * c;
  switch (rows - r) {
    case 3: TileRows<V, 3>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    case 2: TileRows<V, 2>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    case 1: TileRows<V, 1>(a, br, rs, ks, k_len, c, accumulate, zr); break;
    default: break;
  }
}

#if defined(__x86_64__)
// Four doubles in one ymm register. AVX2 only, never FMA: the target below
// enables no fused multiply-add, so each lane still rounds the product and
// then the sum, like the scalar loop.
using V4 = double __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void SumProductsAvx2(
    const double* a, const double* b, size_t rs, size_t ks, size_t rows,
    size_t k_len, size_t c, bool accumulate, double* z) {
  SumProductsWith<V4>(a, b, rs, ks, rows, k_len, c, accumulate, z);
}
#endif

void SumProducts(KernelIsa isa, const double* a, const double* b, size_t rs,
                 size_t ks, size_t rows, size_t k_len, size_t c,
                 bool accumulate, double* z) {
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx2) {
    SumProductsAvx2(a, b, rs, ks, rows, k_len, c, accumulate, z);
    return;
  }
#endif
  (void)isa;
  SumProductsWith<V2>(a, b, rs, ks, rows, k_len, c, accumulate, z);
}

// The widest tiles this CPU runs, decided at the first kernel call.
KernelIsa ActiveIsa() {
  static const KernelIsa isa = KernelIsaSupported(KernelIsa::kAvx2)
                                   ? KernelIsa::kAvx2
                                   : KernelIsa::kBaseline;
  return isa;
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

bool KernelIsaSupported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kBaseline:
      return true;
    case KernelIsa::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

void KernelLayerForward(const double* w, const double* x, size_t ns,
                        size_t out, size_t in, double* wt_scratch, double* y) {
  KernelLayerForward(ActiveIsa(), w, x, ns, out, in, wt_scratch, y);
}

void KernelLayerWeightGrad(const double* d, const double* x, size_t ns,
                           size_t out, size_t in, double* g) {
  KernelLayerWeightGrad(ActiveIsa(), d, x, ns, out, in, g);
}

void KernelLayerInputGrad(const double* w, const double* d, size_t ns,
                          size_t out, size_t in, double* p) {
  KernelLayerInputGrad(ActiveIsa(), w, d, ns, out, in, p);
}

void KernelLayerForward(KernelIsa isa, const double* w, const double* x,
                        size_t ns, size_t out, size_t in, double* wt_scratch,
                        double* y) {
  for (size_t o = 0; o < out; ++o) {
    for (size_t i = 0; i < in; ++i) wt_scratch[i * out + o] = w[o * in + i];
  }
  // z = y (ns x out), k = i, a = w^T (in x out), b[s][i] = x[s * in + i].
  SumProducts(isa, wt_scratch, x, in, 1, ns, in, out, /*accumulate=*/false,
              y);
}

void KernelLayerWeightGrad(KernelIsa isa, const double* d, const double* x,
                           size_t ns, size_t out, size_t in, double* g) {
  // z = g (out x in), k = s, a = x (ns x in), b[o][s] = d[s * out + o].
  SumProducts(isa, x, d, 1, out, out, ns, in, /*accumulate=*/true, g);
}

void KernelLayerInputGrad(KernelIsa isa, const double* w, const double* d,
                          size_t ns, size_t out, size_t in, double* p) {
  // z = p (ns x in), k = o, a = w (out x in), b[s][o] = d[s * out + o].
  SumProducts(isa, w, d, out, 1, ns, out, in, /*accumulate=*/false, p);
}

}  // namespace dlrover
