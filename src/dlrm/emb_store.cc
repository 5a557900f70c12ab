#include "dlrm/emb_store.h"

#include <algorithm>
#include <cassert>

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
      num_keys_(static_cast<uint64_t>(options.num_features) *
                options.hash_buckets),
      stripes_(RoundUpPow2(options.stripes == 0 ? 1 : options.stripes)),
      rows_(new double[num_keys_ * static_cast<size_t>(options.emb_dim)]),
      wide_(new double[num_keys_]),
      state_(new uint8_t[num_keys_]()) {
  while ((static_cast<uint64_t>(stripes_.size()) << stripe_shift_) <
         num_keys_) {
    ++stripe_shift_;
  }
}

double* EmbStore::RowLocked(Stripe& stripe, uint64_t key) const {
  const size_t dim = static_cast<size_t>(options_.emb_dim);
  double* row = rows_.get() + key * dim;
  if ((state_[key] & kRowBit) == 0) {
    const int feature = static_cast<int>(key / options_.hash_buckets);
    Rng rng(RowInitHash(options_.seed, feature, key % options_.hash_buckets));
    for (size_t r = 0; r < dim; ++r) {
      row[r] = rng.Normal(0.0, options_.init_scale);
    }
    state_[key] |= kRowBit;
    ++stripe.rows;
  }
  return row;
}

double& EmbStore::WideLocked(uint64_t key) const {
  if ((state_[key] & kWideBit) == 0) {
    wide_[key] = 0.0;
    state_[key] |= kWideBit;
  }
  return wide_[key];
}

void EmbStore::GroupByStripe(const uint64_t* keys, size_t n,
                             BatchScratch* scratch) const {
  scratch->stripe_of.resize(n);
  scratch->start.assign(stripes_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    assert(keys[i] < num_keys_ && "key outside the key space");
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
      std::copy_n(RowLocked(stripe, keys[i]), dim, rows_out + i * dim);
      if (wide_out != nullptr) wide_out[i] = WideLocked(keys[i]);
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
      // row += (-lr) * grad: IEEE-identical to `row[r] -= lr * grad[r]`
      // (negation is exact).
      KernelAxpy(dim, -learning_rate, row_grads + i * dim,
                 RowLocked(stripe, keys[i]));
      if (wide_grads != nullptr) {
        WideLocked(keys[i]) -= learning_rate * wide_grads[i];
      }
    }
    begin = end;
  }
}

void EmbStore::ExportAll(EmbStoreSnapshot* out) const {
  const size_t dim = static_cast<size_t>(options_.emb_dim);
  out->emb_keys.clear();
  out->emb_values.clear();
  out->wide_keys.clear();
  out->wide_values.clear();
  for (size_t s = 0; s < stripes_.size(); ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    const uint64_t end = std::min(num_keys_, (s + 1) << stripe_shift_);
    for (uint64_t key = s << stripe_shift_; key < end; ++key) {
      if ((state_[key] & kRowBit) != 0) {
        out->emb_keys.push_back(key);
        const double* row = rows_.get() + key * dim;
        out->emb_values.insert(out->emb_values.end(), row, row + dim);
      }
      if ((state_[key] & kWideBit) != 0) {
        out->wide_keys.push_back(key);
        out->wide_values.push_back(wide_[key]);
      }
    }
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
  for (const auto* keys : {&snapshot.emb_keys, &snapshot.wide_keys}) {
    for (uint64_t key : *keys) {
      if (key >= num_keys_) {
        return InvalidArgumentError("snapshot key outside the key space");
      }
    }
  }
  for (size_t s = 0; s < stripes_.size(); ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    const uint64_t begin = std::min(num_keys_, s << stripe_shift_);
    const uint64_t end = std::min(num_keys_, (s + 1) << stripe_shift_);
    std::fill(state_.get() + begin, state_.get() + end, 0);
    stripes_[s].rows = 0;
  }
  for (size_t i = 0; i < snapshot.emb_keys.size(); ++i) {
    const uint64_t key = snapshot.emb_keys[i];
    Stripe& stripe = stripes_[StripeIndexFor(key)];
    std::lock_guard<std::mutex> lock(stripe.mu);
    if ((state_[key] & kRowBit) != 0) continue;  // duplicate: first wins
    std::copy_n(snapshot.emb_values.begin() + i * dim, dim,
                rows_.get() + key * dim);
    state_[key] |= kRowBit;
    ++stripe.rows;
  }
  for (size_t i = 0; i < snapshot.wide_keys.size(); ++i) {
    const uint64_t key = snapshot.wide_keys[i];
    std::lock_guard<std::mutex> lock(stripes_[StripeIndexFor(key)].mu);
    if ((state_[key] & kWideBit) != 0) continue;
    wide_[key] = snapshot.wide_values[i];
    state_[key] |= kWideBit;
  }
  return Status::OK();
}

size_t EmbStore::MaterializedRows() const {
  size_t rows = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    rows += stripe.rows;
  }
  return rows;
}

}  // namespace dlrover
