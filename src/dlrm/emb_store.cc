#include "dlrm/emb_store.h"

#include <algorithm>
#include <utility>

#include "common/dense_kernels.h"
#include "common/rng.h"

namespace dlrover {

namespace {

/// Must stay identical to the historical MiniDlrm row init so checkpoints
/// and golden convergence numbers carry over: splitmix-style avalanche of
/// (seed, feature, bucket) seeding the per-row Rng.
uint64_t RowInitHash(uint64_t seed, int feature, uint64_t bucket) {
  uint64_t x = seed ^
               (static_cast<uint64_t>(feature + 1) * 0x9e3779b97f4a7c15ull) ^
               (bucket * 0xc4ceb9fe1a85ec53ull);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EmbStore::EmbStore(const EmbStoreOptions& options)
    : options_(options),
      stripes_(RoundUpPow2(options.stripes == 0 ? 1 : options.stripes)) {
  stripe_mask_ = stripes_.size() - 1;
}

size_t EmbStore::StripeIndexFor(uint64_t key) const {
  // Finalizer-style mix so adjacent buckets of one feature spread across
  // stripes instead of marching through them in lockstep.
  uint64_t x = key * 0x9e3779b97f4a7c15ull;
  x ^= x >> 32;
  return static_cast<size_t>(x & stripe_mask_);
}

EmbStore::Stripe& EmbStore::StripeFor(uint64_t key) const {
  return stripes_[StripeIndexFor(key)];
}

std::vector<double>& EmbStore::MaterializeRowLocked(Stripe& stripe,
                                                    int feature,
                                                    uint64_t bucket,
                                                    uint64_t key) const {
  auto it = stripe.emb.find(key);
  if (it != stripe.emb.end()) return it->second;
  Rng rng(RowInitHash(options_.seed, feature, bucket));
  std::vector<double> row(static_cast<size_t>(options_.emb_dim));
  for (auto& v : row) v = rng.Normal(0.0, options_.init_scale);
  return stripe.emb.emplace(key, std::move(row)).first->second;
}

void EmbStore::GroupByStripe(const uint64_t* keys, size_t n,
                             BatchScratch* scratch) const {
  scratch->stripe_of.resize(n);
  scratch->start.assign(stripes_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(StripeIndexFor(keys[i]));
    scratch->stripe_of[i] = s;
    ++scratch->start[s];
  }
  uint32_t running = 0;
  for (size_t s = 0; s < scratch->start.size(); ++s) {
    const uint32_t count = scratch->start[s];
    scratch->start[s] = running;
    running += count;
  }
  scratch->order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch->order[scratch->start[scratch->stripe_of[i]]++] =
        static_cast<uint32_t>(i);
  }
  // start[s] now holds the END offset of stripe s's group.
}

void EmbStore::GatherRows(const uint64_t* keys, size_t n, double* rows_out,
                          double* wide_out, BatchScratch* scratch) const {
  const size_t dim = static_cast<size_t>(options_.emb_dim);
  GroupByStripe(keys, n, scratch);
  uint32_t begin = 0;
  for (size_t s = 0; s < stripes_.size(); ++s) {
    const uint32_t end = scratch->start[s];
    if (end == begin) continue;
    Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (uint32_t o = begin; o < end; ++o) {
      const uint32_t i = scratch->order[o];
      const uint64_t key = keys[i];
      const int feature = static_cast<int>(key / options_.hash_buckets);
      const uint64_t bucket = key % options_.hash_buckets;
      const std::vector<double>& row =
          MaterializeRowLocked(stripe, feature, bucket, key);
      std::copy(row.begin(), row.end(), rows_out + i * dim);
      if (wide_out != nullptr) {
        wide_out[i] = stripe.wide.try_emplace(key, 0.0).first->second;
      }
    }
    begin = end;
  }
}

void EmbStore::ScatterApply(const uint64_t* keys, size_t n,
                            const double* row_grads, const double* wide_grads,
                            double learning_rate, BatchScratch* scratch) {
  const size_t dim = static_cast<size_t>(options_.emb_dim);
  GroupByStripe(keys, n, scratch);
  uint32_t begin = 0;
  for (size_t s = 0; s < stripes_.size(); ++s) {
    const uint32_t end = scratch->start[s];
    if (end == begin) continue;
    Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (uint32_t o = begin; o < end; ++o) {
      const uint32_t i = scratch->order[o];
      const uint64_t key = keys[i];
      const int feature = static_cast<int>(key / options_.hash_buckets);
      const uint64_t bucket = key % options_.hash_buckets;
      std::vector<double>& row =
          MaterializeRowLocked(stripe, feature, bucket, key);
      // row += (-lr) * grad: IEEE-identical to `row[r] -= lr * grad[r]`
      // (negation is exact).
      KernelAxpy(dim, -learning_rate, row_grads + i * dim, row.data());
      if (wide_grads != nullptr) {
        double& w = stripe.wide.try_emplace(key, 0.0).first->second;
        w -= learning_rate * wide_grads[i];
      }
    }
    begin = end;
  }
}

void EmbStore::ExportAll(EmbStoreSnapshot* out) const {
  std::vector<std::pair<uint64_t, std::vector<double>>> rows;
  std::vector<std::pair<uint64_t, double>> wides;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& kv : stripe.emb) rows.emplace_back(kv.first, kv.second);
    for (const auto& kv : stripe.wide) wides.emplace_back(kv.first, kv.second);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(wides.begin(), wides.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out->emb_keys.clear();
  out->emb_values.clear();
  out->wide_keys.clear();
  out->wide_values.clear();
  out->emb_keys.reserve(rows.size());
  out->emb_values.reserve(rows.size() *
                          static_cast<size_t>(options_.emb_dim));
  for (const auto& kv : rows) {
    out->emb_keys.push_back(kv.first);
    out->emb_values.insert(out->emb_values.end(), kv.second.begin(),
                           kv.second.end());
  }
  out->wide_keys.reserve(wides.size());
  out->wide_values.reserve(wides.size());
  for (const auto& kv : wides) {
    out->wide_keys.push_back(kv.first);
    out->wide_values.push_back(kv.second);
  }
}

Status EmbStore::ImportAll(const EmbStoreSnapshot& snapshot) {
  const size_t dim = static_cast<size_t>(options_.emb_dim);
  if (snapshot.emb_values.size() != snapshot.emb_keys.size() * dim) {
    return InvalidArgumentError("embedding snapshot has wrong value count");
  }
  if (snapshot.wide_values.size() != snapshot.wide_keys.size()) {
    return InvalidArgumentError("wide snapshot has wrong value count");
  }
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.emb.clear();
    stripe.wide.clear();
  }
  for (size_t i = 0; i < snapshot.emb_keys.size(); ++i) {
    const uint64_t key = snapshot.emb_keys[i];
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.emb.emplace(
        key, std::vector<double>(snapshot.emb_values.begin() + i * dim,
                                 snapshot.emb_values.begin() + (i + 1) * dim));
  }
  for (size_t i = 0; i < snapshot.wide_keys.size(); ++i) {
    const uint64_t key = snapshot.wide_keys[i];
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.wide.emplace(key, snapshot.wide_values[i]);
  }
  return Status::OK();
}

size_t EmbStore::MaterializedRows() const {
  size_t rows = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    rows += stripe.emb.size();
  }
  return rows;
}

}  // namespace dlrover
