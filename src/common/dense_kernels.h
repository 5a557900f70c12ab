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
/// elements together (register tiles of samples x outputs, vectors across
/// independent elements), never by splitting or reordering one element's
/// sum. They run the widest tiles the CPU supports, chosen once at the
/// first call: 4-wide AVX2 vectors where the CPU has AVX2, baseline 2-wide
/// vectors (SSE2 on x86-64) elsewhere. Neither uses FMA, so both give the
/// same bits.

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

/// The instruction sets the layer kernels have tiles for.
enum class KernelIsa { kBaseline, kAvx2 };

/// Whether this build and this CPU can run `isa`'s tiles.
bool KernelIsaSupported(KernelIsa isa);

/// Test seam: the three layer kernels above with `isa`'s tiles instead of
/// the ones chosen at the first call, so tests check the baseline fallback
/// on any CPU. Requires KernelIsaSupported(isa).
void KernelLayerForward(KernelIsa isa, const double* w, const double* x,
                        size_t ns, size_t out, size_t in, double* wt_scratch,
                        double* y);
void KernelLayerWeightGrad(KernelIsa isa, const double* d, const double* x,
                           size_t ns, size_t out, size_t in, double* g);
void KernelLayerInputGrad(KernelIsa isa, const double* w, const double* d,
                          size_t ns, size_t out, size_t in, double* p);

}  // namespace dlrover

#endif  // DLROVER_COMMON_DENSE_KERNELS_H_
