#ifndef DLROVER_COMMON_DENSE_KERNELS_H_
#define DLROVER_COMMON_DENSE_KERNELS_H_

#include <cstddef>

namespace dlrover {

/// Dense inner loops shared by the least-squares fitter, the SGD apply and
/// the mini-DLRM batch cycle. Every kernel is exact-order: each result is
/// computed with the same operations, in the same order, as the plain
/// scalar loop its comment gives, and never with fused multiply-add, so the
/// kTicks goldens and every figure bench stay byte-stable.
///
/// The batched MLP-layer kernels (KernelLayerForward, KernelLayerWeightGrad,
/// KernelLayerInputGrad) gain speed only by computing independent output
/// elements together (register tiles of samples x outputs, 2-wide vectors
/// across independent elements, baseline SSE2 on x86-64), never by
/// splitting or reordering one element's sum.

/// sum_i a[i] * b[i], accumulated from 0.0 left to right.
double KernelDot(const double* a, const double* b, size_t n);

/// y[i] += alpha * x[i]: multiply, then add, element by element.
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
