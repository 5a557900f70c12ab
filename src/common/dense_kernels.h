#ifndef DLROVER_COMMON_DENSE_KERNELS_H_
#define DLROVER_COMMON_DENSE_KERNELS_H_

#include <cstddef>

namespace dlrover {

/// Dense inner loops shared by Matrix, the SGD apply and the mini-DLRM
/// batch hot path. Two families live here:
///
/// KernelDot / KernelAxpy are runtime-selected. kScalar is the default and
/// is bit-identical to the historical loops: the same operations in the
/// same order, no fused multiply-add, so kTicks goldens and every figure
/// bench stay byte-stable. kSimd switches these two kernels to AVX2/FMA
/// variants when the CPU supports them (checked at dispatch time;
/// unsupported hardware silently keeps the scalar path). The SIMD
/// reductions reassociate partial sums and contract mul+add into FMA, so
/// results differ from scalar in the low bits — callers opt in per process
/// (the throughput bench, perf builds), never by default.
///
/// The batched MLP-layer kernels (KernelLayerForward, KernelLayerWeightGrad,
/// KernelLayerInputGrad) are exact-order in every mode: each output element
/// is accumulated with the same operations, in the same order, as the
/// per-sample scalar loop it replaces. They gain speed only by computing
/// independent output elements together (register tiles of samples x
/// outputs, 2-wide vectors across independent elements, baseline SSE2 on
/// x86-64), never by splitting or reordering one element's sum, and never
/// with FMA. DenseKernelMode does not affect them.
enum class DenseKernelMode : int {
  kScalar = 0,
  kSimd = 1,
};

/// Selects the kernel implementation for the whole process. Thread-safe to
/// call, but intended for startup/bench configuration, not mid-training
/// flips. Returns the mode actually in effect (kScalar when SIMD was
/// requested but the CPU lacks AVX2+FMA).
DenseKernelMode SetDenseKernelMode(DenseKernelMode mode);

/// The mode currently in effect.
DenseKernelMode ActiveDenseKernelMode();

/// True when this CPU can run the AVX2+FMA kernels.
bool SimdKernelsAvailable();

/// sum_i a[i] * b[i]. Scalar mode accumulates left to right (bit-identical
/// to the historical loop); SIMD mode uses 4-lane FMA partial sums.
double KernelDot(const double* a, const double* b, size_t n);

/// y[i] += alpha * x[i]. Element-wise; scalar mode is mul-then-add.
void KernelAxpy(size_t n, double alpha, const double* x, double* y);

// Batched MLP layer over `ns` samples. All arrays are flat and row-major:
// w is out x in (one row per output), x and p are ns x in, y and d are
// ns x out, g is out x in.

/// y[s][o] = sum_i w[o][i] * x[s][i], accumulated from 0.0 with i
/// ascending — KernelDot's scalar order. `wt_scratch` (out * in doubles,
/// caller-owned) receives w transposed.
void KernelLayerForward(const double* w, const double* x, size_t ns,
                        size_t out, size_t in, double* wt_scratch, double* y);

/// g[o][i] += d[s][o] * x[s][i] for s ascending: the per-sample rank-1
/// updates of the weight gradient, in sample order.
void KernelLayerWeightGrad(const double* d, const double* x, size_t ns,
                           size_t out, size_t in, double* g);

/// p[s][i] = sum_o w[o][i] * d[s][o], accumulated from 0.0 with o
/// ascending: the per-sample back-propagation through w.
void KernelLayerInputGrad(const double* w, const double* d, size_t ns,
                          size_t out, size_t in, double* p);

}  // namespace dlrover

#endif  // DLROVER_COMMON_DENSE_KERNELS_H_
