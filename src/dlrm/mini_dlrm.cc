#include "dlrm/mini_dlrm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/dense_kernels.h"

namespace dlrover {

namespace {

constexpr int kNumCat = CriteoSynth::kNumCategorical;
constexpr int kNumDense = CriteoSynth::kNumDense;
// Digit width cap of DedupBatchKeys's radix sort: 2^11 counters fit in L1.
constexpr int kMaxRadixBits = 11;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

EmbStoreOptions MakeStoreOptions(const MiniDlrmConfig& config) {
  EmbStoreOptions options;
  options.num_features = kNumCat;
  options.emb_dim = config.emb_dim;
  options.hash_buckets = config.hash_buckets;
  options.init_scale = config.init_scale;
  options.seed = config.seed;
  return options;
}

DenseParams MakeDenseParams(const MiniDlrmConfig& config, int n0,
                            bool zero, Rng* rng) {
  DenseParams p;
  const double s = config.init_scale;
  auto val = [&]() { return zero ? 0.0 : rng->Normal(0.0, s); };

  p.dense_proj = Matrix(static_cast<size_t>(config.emb_dim), kNumDense);
  for (auto& v : p.dense_proj.data()) v = val();

  std::vector<int> sizes;
  sizes.push_back(n0);
  for (int h : config.mlp_hidden) sizes.push_back(h);
  sizes.push_back(1);
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    Matrix w(static_cast<size_t>(sizes[l + 1]), static_cast<size_t>(sizes[l]));
    for (auto& v : w.data()) v = val();
    p.mlp_w.push_back(std::move(w));
    p.mlp_b.emplace_back(static_cast<size_t>(sizes[l + 1]), 0.0);
  }

  if (config.arch == ModelKind::kDcn) {
    for (int l = 0; l < config.cross_layers; ++l) {
      std::vector<double> w(static_cast<size_t>(n0));
      std::vector<double> b(static_cast<size_t>(n0), 0.0);
      for (auto& v : w) v = val();
      p.cross_w.push_back(std::move(w));
      p.cross_b.push_back(std::move(b));
    }
    p.cross_out_w.assign(static_cast<size_t>(n0), 0.0);
    for (auto& v : p.cross_out_w) v = val();
  }
  if (config.arch == ModelKind::kXDeepFm) {
    for (int h = 0; h < config.fm_maps; ++h) {
      std::vector<double> a(static_cast<size_t>(config.emb_dim));
      for (auto& v : a) v = zero ? 0.0 : rng->Normal(0.0, 0.3);
      p.fm_proj.push_back(std::move(a));
    }
    p.fm_w.assign(static_cast<size_t>(config.fm_maps), 0.0);
    for (auto& v : p.fm_w) v = val();
  }
  p.bias = 0.0;
  return p;
}

}  // namespace

MiniDlrm::MiniDlrm(const MiniDlrmConfig& config)
    : config_(config),
      store_(MakeStoreOptions(config)),
      init_rng_(config.seed) {
  n0_ = (1 + kNumCat) * config_.emb_dim;
  params_ = MakeDenseParams(config_, n0_, /*zero=*/false, &init_rng_);
}

double MiniDlrm::Evaluate(const CriteoBatch& batch) const {
  const std::vector<double> probs = Predict(batch);
  double loss = 0.0;
  const double eps = 1e-12;
  for (size_t i = 0; i < probs.size(); ++i) {
    const double y = batch.samples[i].label;
    loss += -(y * std::log(probs[i] + eps) +
              (1.0 - y) * std::log(1.0 - probs[i] + eps));
  }
  return loss / static_cast<double>(probs.size());
}

size_t MiniDlrm::MaterializedRows() const { return store_.MaterializedRows(); }

namespace {

/// Fixed traversal of every dense parameter. Export, import, and size
/// counting must all walk the same order, so they share this visitor.
template <typename Params, typename Fn>
void VisitDenseParams(Params& p, Fn&& fn) {
  for (auto& v : p.dense_proj.data()) fn(v);
  for (auto& m : p.mlp_w) {
    for (auto& v : m.data()) fn(v);
  }
  for (auto& vec : p.mlp_b) {
    for (auto& v : vec) fn(v);
  }
  for (auto& vec : p.cross_w) {
    for (auto& v : vec) fn(v);
  }
  for (auto& vec : p.cross_b) {
    for (auto& v : vec) fn(v);
  }
  for (auto& v : p.cross_out_w) fn(v);
  for (auto& vec : p.fm_proj) {
    for (auto& v : vec) fn(v);
  }
  for (auto& v : p.fm_w) fn(v);
  fn(p.bias);
}

}  // namespace

void MiniDlrm::ExportState(DlrmStateBlob* out) const {
  out->dense.clear();
  {
    std::shared_lock<std::shared_mutex> lock(params_mu_);
    VisitDenseParams(params_, [out](const double& v) {
      out->dense.push_back(v);
    });
  }
  store_.ExportAll(&out->sparse);
}

Status MiniDlrm::ImportState(const DlrmStateBlob& blob) {
  std::unique_lock<std::shared_mutex> lock(params_mu_);
  size_t expected = 0;
  VisitDenseParams(params_, [&expected](const double&) { ++expected; });
  if (blob.dense.size() != expected) {
    return InvalidArgumentError("dense blob does not match model shape");
  }
  lock.unlock();
  // ImportAll validates the snapshot before it changes anything, so
  // importing it first leaves the whole model as it was when either part
  // of the blob is malformed.
  DLROVER_RETURN_IF_ERROR(store_.ImportAll(blob.sparse));
  lock.lock();
  size_t i = 0;
  VisitDenseParams(params_, [&blob, &i](double& v) { v = blob.dense[i++]; });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The batch cycle. Every sample's field vectors live in one batch-major x0
// buffer, the MLP tower runs once per layer over the whole batch through
// the exact-order layer kernels, embedding rows are gathered once per batch
// into a flat array indexed by a slot table, and gradients accumulate into
// per-worker flat arrays that PushBatch scatters in one sharded pass. Every
// accumulator receives its terms in sample order, so losses and updates are
// reproducible bit for bit (pinned by dlrm_golden_test).
// ---------------------------------------------------------------------------

void MiniDlrm::EnsureWork(DlrmBatchWork* work) const {
  if (work->initialized) return;
  Rng dummy(0);
  work->dense_grads = MakeDenseParams(config_, n0_, /*zero=*/true, &dummy);
  const size_t n0 = static_cast<size_t>(n0_);
  work->dfields.resize(n0);
  work->dx0.resize(n0);
  const size_t layers = work->dense_grads.mlp_w.size();
  work->mlp_pre.resize(layers);
  work->mlp_post.resize(layers);
  size_t widest = 0;
  for (const Matrix& w : work->dense_grads.mlp_w) {
    widest = std::max(widest, w.data().size());
  }
  work->wt.resize(widest);
  if (config_.arch == ModelKind::kDcn) {
    work->dxl.resize(n0);
    work->dprev.resize(n0);
  }
  work->initialized = true;
}

void MiniDlrm::PullDense(DlrmBatchWork* work) const {
  // The dense pull is one consistent version (no torn reads of a concurrent
  // push); embedding rows are gathered per stripe afterwards and may be
  // newer — exactly the per-key staleness a real PS exhibits.
  // Copy-assignment reuses the destination buffers: no allocations once
  // warmed.
  std::shared_lock<std::shared_mutex> lock(params_mu_);
  work->dense = params_;
}

void DedupBatchKeys(uint64_t key_bound, DlrmBatchWork* work) {
  // Stable LSD radix sort of the pairs by key alone: as few counting-sort
  // passes as the bound's bit width needs, with equal digit widths. The
  // pairs arrive in ascending, distinct positions, so sorting them stably
  // by key gives exactly std::sort's (key, position) order.
  auto& pairs = work->key_scratch;
  const int bits = std::bit_width(key_bound - 1);
  if (bits > 0) {
    const int passes = (bits + kMaxRadixBits - 1) / kMaxRadixBits;
    const int digit_bits = (bits + passes - 1) / passes;
    const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
    work->key_sorted.resize(pairs.size());
    std::vector<uint32_t>& start = work->radix_count;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * digit_bits;
      // start[d + 1] counts digit d; the prefix sum then makes start[d]
      // the first output index of digit d.
      start.assign(mask + 2, 0);
      for (const auto& e : pairs) ++start[((e.first >> shift) & mask) + 1];
      for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (const auto& e : pairs) {
        work->key_sorted[start[(e.first >> shift) & mask]++] = e;
      }
      pairs.swap(work->key_sorted);
    }
  }
  // Compact equal runs into one slot each.
  work->keys.clear();
  work->slot.resize(pairs.size());
  for (const auto& [key, p] : pairs) {
    if (work->keys.empty() || work->keys.back() != key) {
      work->keys.push_back(key);
    }
    work->slot[p] = static_cast<uint32_t>(work->keys.size() - 1);
  }
}

void MiniDlrm::GatherSparse(const CriteoSample* samples, size_t ns,
                            DlrmBatchWork* work) const {
  work->key_scratch.resize(ns * kNumCat);
  size_t pos = 0;
  for (size_t s = 0; s < ns; ++s) {
    for (int f = 0; f < kNumCat; ++f) {
      const uint64_t bucket = Bucket(f, samples[s].cats[f]);
      work->key_scratch[pos] = {store_.PackKey(f, bucket),
                                static_cast<uint32_t>(pos)};
      ++pos;
    }
  }
  DedupBatchKeys(static_cast<uint64_t>(kNumCat) * config_.hash_buckets, work);
  const size_t nk = work->keys.size();
  work->rows.resize(nk * static_cast<size_t>(config_.emb_dim));
  double* wide_out = nullptr;
  if (config_.arch == ModelKind::kWideDeep) {
    work->wide.resize(nk);
    wide_out = work->wide.data();
  }
  store_.GatherRows(work->keys.data(), nk, work->rows.data(), wide_out,
                    &work->store_scratch);
}

void MiniDlrm::PullBatch(DlrmBatchWork* work) const {
  EnsureWork(work);
  PullDense(work);
  GatherSparse(work->batch.samples.data(), work->batch.samples.size(), work);
  work->row_grads.assign(work->rows.size(), 0.0);
  if (config_.arch == ModelKind::kWideDeep) {
    work->wide_grads.assign(work->wide.size(), 0.0);
  }
}

void MiniDlrm::ResizeForward(size_t ns, DlrmBatchWork& work) const {
  const size_t n0 = static_cast<size_t>(n0_);
  work.x0.resize(ns * n0);
  if (config_.arch == ModelKind::kDcn) {
    const size_t layers = static_cast<size_t>(config_.cross_layers);
    work.cross_x.resize(ns * layers * n0);
    work.cross_s.resize(ns * layers);
  } else if (config_.arch == ModelKind::kXDeepFm) {
    const size_t maps = static_cast<size_t>(config_.fm_maps);
    work.fm_t.resize(ns * maps * (1 + kNumCat));
    work.fm_f.resize(ns * maps);
    work.fm_s.resize(ns * maps);
  }
}

void MiniDlrm::AssembleFields(const CriteoSample* samples, size_t ns,
                              DlrmBatchWork& work) const {
  const int d = config_.emb_dim;
  const size_t n0 = static_cast<size_t>(n0_);
  for (size_t s = 0; s < ns; ++s) {
    const CriteoSample& sample = samples[s];
    double* x0 = &work.x0[s * n0];
    // Field 0: projected dense features.
    for (int r = 0; r < d; ++r) {
      double acc = 0.0;
      for (int c = 0; c < kNumDense; ++c) {
        acc += work.dense.dense_proj(static_cast<size_t>(r),
                                     static_cast<size_t>(c)) *
               sample.dense[static_cast<size_t>(c)];
      }
      x0[r] = acc;
    }
    // Fields 1..26: gathered embedding rows, straight into x0's field slices.
    const uint32_t* slots = &work.slot[s * kNumCat];
    for (int f = 0; f < kNumCat; ++f) {
      const double* row = &work.rows[static_cast<size_t>(slots[f]) * d];
      std::copy(row, row + d, x0 + static_cast<size_t>(f + 1) * d);
    }
  }
}

void MiniDlrm::TowerForward(size_t ns, DlrmBatchWork& work) const {
  // One layer at a time over the whole batch: pre = W x + b (the kernel's
  // sum, then the bias), post = ReLU(pre) except on the output layer.
  const size_t layers = work.dense.mlp_w.size();
  const double* act = work.x0.data();
  for (size_t l = 0; l < layers; ++l) {
    const Matrix& w = work.dense.mlp_w[l];
    const std::vector<double>& bias = work.dense.mlp_b[l];
    const size_t out = w.rows();
    const bool relu = l + 1 < layers;
    work.mlp_pre[l].resize(ns * out);
    work.mlp_post[l].resize(ns * out);
    double* pre = work.mlp_pre[l].data();
    double* post = work.mlp_post[l].data();
    KernelLayerForward(w.data().data(), act, ns, out, w.cols(),
                       work.wt.data(), pre);
    for (size_t s = 0; s < ns; ++s) {
      for (size_t o = 0; o < out; ++o) {
        double& acc = pre[s * out + o];
        acc += bias[o];
        post[s * out + o] = relu ? std::max(0.0, acc) : acc;
      }
    }
    act = post;
  }
}

double MiniDlrm::HeadForward(size_t s, double logit,
                             DlrmBatchWork& work) const {
  const int d = config_.emb_dim;
  const size_t n = static_cast<size_t>(n0_);
  const double* x0 = &work.x0[s * n];
  if (config_.arch == ModelKind::kWideDeep) {
    double wide_logit = 0.0;
    const uint32_t* slots = &work.slot[s * kNumCat];
    for (int f = 0; f < kNumCat; ++f) wide_logit += work.wide[slots[f]];
    logit += wide_logit;
  } else if (config_.arch == ModelKind::kDcn) {
    // x_0 is x0 itself; x_1..x_L are this sample's rows of cross_x.
    const size_t layers = work.dense.cross_w.size();
    double* cross_x = work.cross_x.data() + s * layers * n;
    const double* xl = x0;
    for (size_t l = 0; l < layers; ++l) {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += work.dense.cross_w[l][i] * xl[i];
      work.cross_s[s * layers + l] = sum;
      double* next = cross_x + l * n;
      for (size_t i = 0; i < n; ++i) {
        next[i] = x0[i] * sum + work.dense.cross_b[l][i] + xl[i];
      }
      xl = next;
    }
    for (size_t i = 0; i < n; ++i) {
      logit += work.dense.cross_out_w[i] * xl[i];
    }
  } else if (config_.arch == ModelKind::kXDeepFm) {
    const int fields = 1 + kNumCat;
    const size_t maps = static_cast<size_t>(config_.fm_maps);
    double* fm_t = work.fm_t.data() + s * maps * fields;
    for (size_t h = 0; h < maps; ++h) {
      double fsum = 0.0;
      double qsum = 0.0;
      for (int i = 0; i < fields; ++i) {
        double t = 0.0;
        for (int r = 0; r < d; ++r) {
          t += work.dense.fm_proj[h][static_cast<size_t>(r)] * x0[i * d + r];
        }
        fm_t[h * fields + i] = t;
        fsum += t;
        qsum += t * t;
      }
      work.fm_f[s * maps + h] = fsum;
      const double sq = 0.5 * (fsum * fsum - qsum);
      work.fm_s[s * maps + h] = sq;
      logit += work.dense.fm_w[h] * sq;
    }
  }
  return logit;
}

const double* MiniDlrm::TowerBackward(DlrmBatchWork& work) const {
  // Layer by layer from the output, over the whole batch: db sums delta in
  // sample order, dW adds each sample's rank-1 term in sample order, and the
  // input gradient restarts from 0.0 per sample, all as a per-sample loop
  // would. delta starts as dlogit (the output layer is one wide).
  const size_t ns = work.batch.samples.size();
  const double* delta = work.dlogit.data();
  double* grad_in = work.prev.data();
  double* spare = work.delta.data();
  for (size_t l = work.dense.mlp_w.size(); l-- > 0;) {
    const Matrix& w = work.dense.mlp_w[l];
    const size_t out = w.rows();
    const size_t in = w.cols();
    const double* input =
        l == 0 ? work.x0.data() : work.mlp_post[l - 1].data();
    std::vector<double>& gb = work.dense_grads.mlp_b[l];
    for (size_t s = 0; s < ns; ++s) {
      for (size_t o = 0; o < out; ++o) gb[o] += delta[s * out + o];
    }
    KernelLayerWeightGrad(delta, input, ns, out, in,
                          work.dense_grads.mlp_w[l].data().data());
    KernelLayerInputGrad(w.data().data(), delta, ns, out, in, grad_in);
    if (l == 0) break;
    // Through the ReLU of layer l-1.
    const double* pre = work.mlp_pre[l - 1].data();
    for (size_t i = 0; i < ns * in; ++i) {
      if (pre[i] <= 0.0) grad_in[i] = 0.0;
    }
    delta = grad_in;
    std::swap(grad_in, spare);
  }
  return grad_in;
}

void MiniDlrm::SampleBackward(size_t s, const double* tower_dx0,
                              DlrmBatchWork& work) const {
  const int d = config_.emb_dim;
  const int fields = 1 + kNumCat;
  const size_t n = static_cast<size_t>(n0_);
  const CriteoSample& sample = work.batch.samples[s];
  const double dlogit = work.dlogit[s];
  const double* x0 = &work.x0[s * n];
  const uint32_t* slots = &work.slot[s * kNumCat];
  std::fill(work.dfields.begin(), work.dfields.end(), 0.0);
  // dx0 starts from 0.0 and takes the tower's contribution first.
  for (size_t i = 0; i < n; ++i) work.dx0[i] = 0.0 + tower_dx0[s * n + i];

  // --- Head backward ---
  if (config_.arch == ModelKind::kWideDeep) {
    for (int f = 0; f < kNumCat; ++f) {
      work.wide_grads[slots[f]] += dlogit;
    }
  } else if (config_.arch == ModelKind::kDcn) {
    const size_t layers = work.dense.cross_w.size();
    const double* cross_x = work.cross_x.data() + s * layers * n;
    auto x_at = [&](size_t l) { return l == 0 ? x0 : cross_x + (l - 1) * n; };
    const double* x_last = x_at(layers);
    for (size_t i = 0; i < n; ++i) {
      work.dense_grads.cross_out_w[i] += dlogit * x_last[i];
      work.dxl[i] = dlogit * work.dense.cross_out_w[i];
    }
    for (size_t l = layers; l-- > 0;) {
      const double* xl = x_at(l);
      const double sum = work.cross_s[s * layers + l];
      double ds = 0.0;
      for (size_t i = 0; i < n; ++i) {
        ds += work.dxl[i] * x0[i];
        work.dense_grads.cross_b[l][i] += work.dxl[i];
        work.dx0[i] += work.dxl[i] * sum;
      }
      for (size_t i = 0; i < n; ++i) {
        work.dense_grads.cross_w[l][i] += ds * xl[i];
        work.dprev[i] = work.dxl[i] + ds * work.dense.cross_w[l][i];
      }
      std::swap(work.dxl, work.dprev);
    }
    for (size_t i = 0; i < n; ++i) work.dx0[i] += work.dxl[i];
  } else if (config_.arch == ModelKind::kXDeepFm) {
    const size_t maps = static_cast<size_t>(config_.fm_maps);
    const double* fm_t = work.fm_t.data() + s * maps * fields;
    for (size_t h = 0; h < maps; ++h) {
      const double sq = work.fm_s[s * maps + h];
      work.dense_grads.fm_w[h] += dlogit * sq;
      const double ds = dlogit * work.dense.fm_w[h];
      const double f_sum = work.fm_f[s * maps + h];
      for (int i = 0; i < fields; ++i) {
        const double t = fm_t[h * fields + i];
        const double dt = ds * (f_sum - t);
        for (int r = 0; r < d; ++r) {
          work.dense_grads.fm_proj[h][static_cast<size_t>(r)] +=
              dt * x0[i * d + r];
          work.dfields[static_cast<size_t>(i * d + r)] +=
              dt * work.dense.fm_proj[h][static_cast<size_t>(r)];
        }
      }
    }
  }

  // dx0 slices feed field gradients, field by field in element order.
  for (size_t i = 0; i < n; ++i) work.dfields[i] += work.dx0[i];

  // Field 0 -> dense projection weights.
  for (int r = 0; r < d; ++r) {
    const double df = work.dfields[static_cast<size_t>(r)];
    if (df == 0.0) continue;
    for (int c = 0; c < kNumDense; ++c) {
      work.dense_grads.dense_proj(static_cast<size_t>(r),
                                  static_cast<size_t>(c)) +=
          df * sample.dense[static_cast<size_t>(c)];
    }
  }
  // Fields 1..26 -> flat per-slot row gradients.
  for (int f = 0; f < kNumCat; ++f) {
    double* grow = &work.row_grads[static_cast<size_t>(slots[f]) * d];
    const double* dfield = &work.dfields[static_cast<size_t>(f + 1) * d];
    for (int r = 0; r < d; ++r) grow[r] += dfield[r];
  }
}

double MiniDlrm::ComputeBatch(DlrmBatchWork* work) const {
  assert(work->initialized && !work->batch.samples.empty());
  DlrmBatchWork& w = *work;
  VisitDenseParams(w.dense_grads, [](double& v) { v = 0.0; });
  // row_grads / wide_grads were zeroed by PullBatch when it sized them.
  const CriteoSample* samples = w.batch.samples.data();
  const size_t ns = w.batch.samples.size();
  size_t widest_in = 0;
  for (const Matrix& m : w.dense.mlp_w) {
    widest_in = std::max(widest_in, m.cols());
  }
  ResizeForward(ns, w);
  w.dlogit.resize(ns);
  w.delta.resize(ns * widest_in);
  w.prev.resize(ns * widest_in);

  AssembleFields(samples, ns, w);
  TowerForward(ns, w);
  const double* tower_out = w.mlp_post.back().data();  // ns x 1
  const double inv_n = 1.0 / static_cast<double>(ns);
  double loss = 0.0;
  for (size_t s = 0; s < ns; ++s) {
    const double logit = HeadForward(s, tower_out[s] + w.dense.bias, w);
    const double p = Sigmoid(logit);
    const double y = samples[s].label;
    const double eps = 1e-12;
    loss += -(y * std::log(p + eps) + (1.0 - y) * std::log(1.0 - p + eps));
    w.dlogit[s] = (p - y) * inv_n;
    w.dense_grads.bias += w.dlogit[s];
  }
  const double* tower_dx0 = TowerBackward(w);
  for (size_t s = 0; s < ns; ++s) SampleBackward(s, tower_dx0, w);
  return loss * inv_n;
}

void MiniDlrm::PushBatch(DlrmBatchWork* work, double learning_rate) {
  {
    // p += (-lr) * g throughout: IEEE-identical to `p[i] -= lr * g[i]`
    // (negation is exact).
    const double neg_lr = -learning_rate;
    auto axpy = [neg_lr](const std::vector<double>& g,
                         std::vector<double>& p) {
      KernelAxpy(p.size(), neg_lr, g.data(), p.data());
    };
    const DenseParams& grads = work->dense_grads;
    std::unique_lock<std::shared_mutex> lock(params_mu_);
    axpy(grads.dense_proj.data(), params_.dense_proj.data());
    for (size_t l = 0; l < params_.mlp_w.size(); ++l) {
      axpy(grads.mlp_w[l].data(), params_.mlp_w[l].data());
      axpy(grads.mlp_b[l], params_.mlp_b[l]);
    }
    for (size_t l = 0; l < params_.cross_w.size(); ++l) {
      axpy(grads.cross_w[l], params_.cross_w[l]);
      axpy(grads.cross_b[l], params_.cross_b[l]);
    }
    axpy(grads.cross_out_w, params_.cross_out_w);
    for (size_t h = 0; h < params_.fm_proj.size(); ++h) {
      axpy(grads.fm_proj[h], params_.fm_proj[h]);
    }
    axpy(grads.fm_w, params_.fm_w);
    params_.bias -= learning_rate * grads.bias;
  }
  const double* wide_grads = config_.arch == ModelKind::kWideDeep
                                 ? work->wide_grads.data()
                                 : nullptr;
  store_.ScatterApply(work->keys.data(), work->keys.size(),
                      work->row_grads.data(), wide_grads, learning_rate,
                      &work->store_scratch);
}

std::vector<double> MiniDlrm::Predict(const CriteoBatch& batch) const {
  std::vector<double> probs;
  probs.reserve(batch.size());
  if (batch.samples.empty()) return probs;
  DlrmBatchWork work;
  EnsureWork(&work);
  PullDense(&work);
  for (size_t begin = 0; begin < batch.size(); begin += kPredictChunk) {
    const CriteoSample* samples = batch.samples.data() + begin;
    const size_t ns = std::min(kPredictChunk, batch.size() - begin);
    GatherSparse(samples, ns, &work);
    ResizeForward(ns, work);
    AssembleFields(samples, ns, work);
    TowerForward(ns, work);
    const double* tower_out = work.mlp_post.back().data();  // ns x 1
    for (size_t s = 0; s < ns; ++s) {
      probs.push_back(
          Sigmoid(HeadForward(s, tower_out[s] + work.dense.bias, work)));
    }
  }
  return probs;
}

}  // namespace dlrover
