#ifndef DLROVER_DLRM_EMB_STORE_H_
#define DLROVER_DLRM_EMB_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace dlrover {

/// Canonical (key-ordered) dump of every materialized embedding row and
/// wide weight. Used by model checkpoints: key order makes the byte layout
/// independent of touch order, so two exports of identical state produce
/// identical arrays (and identical checksums).
struct EmbStoreSnapshot {
  std::vector<uint64_t> emb_keys;
  std::vector<double> emb_values;  // emb_dim values per key, concatenated
  std::vector<uint64_t> wide_keys;
  std::vector<double> wide_values;  // one value per key
};

struct EmbStoreOptions {
  int num_features = 26;
  int emb_dim = 8;
  uint64_t hash_buckets = 8192;  // per categorical feature
  double init_scale = 0.05;
  uint64_t seed = 7;
  /// Rounded up to a power of two. Default trades lock count against
  /// contention from tens of worker threads; see DESIGN.md "Threading
  /// model".
  size_t stripes = 64;
};

/// Lock-striped concurrent store for the sparse half of the mini-DLRM: the
/// per-(feature, bucket) embedding rows and the Wide&Deep per-id scalar
/// weights. This is the async-PS hot path — every batch pulls and pushes
/// rows for all 26 categorical features — so storage is flat arrays indexed
/// by the packed key (a row slab of emb_dim doubles per key, a wide-weight
/// array, a state byte per key), with no hashing and no per-row heap. The
/// key space is cut into `stripes` contiguous, independently-locked ranges;
/// N worker threads contend only when they touch the same range at the same
/// instant. No path holds more than one stripe lock at a time.
///
/// Rows are materialized lazily with a per-key deterministic init
/// (splitmix-style hash of (seed, feature, bucket) seeding the Rng), so the
/// values a key gets are independent of touch order and thread
/// interleaving — elastic and multi-threaded runs stay comparable to the
/// deterministic tick mode.
class EmbStore {
 public:
  explicit EmbStore(const EmbStoreOptions& options);

  EmbStore(const EmbStore&) = delete;
  EmbStore& operator=(const EmbStore&) = delete;

  /// Reusable scratch for the gather/scatter calls below: holds the
  /// stripe-bucketing work arrays so steady-state batches allocate nothing.
  /// One instance per worker thread; never shared concurrently.
  struct BatchScratch {
    std::vector<uint32_t> stripe_of;   // per key: owning stripe
    std::vector<uint32_t> start;       // per stripe: offset into order
    std::vector<uint32_t> order;       // key indices grouped by stripe
  };

  /// Packs (feature, bucket) into the store's canonical key. GatherRows and
  /// ScatterApply take packed keys so one array round-trips
  /// pull -> grad -> push.
  uint64_t PackKey(int feature, uint64_t bucket) const {
    return Key(feature, bucket);
  }

  /// Batched gather for the training hot path: copies the rows for `keys`
  /// (from PackKey with feature < num_features and bucket < hash_buckets,
  /// or the access is out of bounds; any order, duplicates allowed) into
  /// `rows_out[i * emb_dim ...]`, materializing missing rows, and — when
  /// `wide_out` is non-null — the wide weights into `wide_out[i]`. Keys are
  /// grouped by stripe first, so each touched stripe's lock is taken exactly
  /// once per call instead of once per key: one lock round-trip covers the
  /// whole batch. Rows are copied out, never referenced, because a reference
  /// would race with ScatterApply once the lock is released. Thread-safe.
  void GatherRows(const uint64_t* keys, size_t n, double* rows_out,
                  double* wide_out, BatchScratch* scratch) const;

  /// Batched SGD push, the scatter side of GatherRows (same key rules): for
  /// every key, row -= learning_rate * row_grads[i * emb_dim ...] (and, when
  /// `wide_grads` is non-null, wide -= learning_rate * wide_grads[i]).
  /// Missing rows are materialized first (wide weights start at 0.0). Keys
  /// are grouped by stripe: one lock acquisition per touched stripe per
  /// batch — this is the sharded gradient application of the parallel
  /// trainer. Each row's update is atomic; duplicate keys apply in order.
  void ScatterApply(const uint64_t* keys, size_t n, const double* row_grads,
                    const double* wide_grads, double learning_rate,
                    BatchScratch* scratch);

  /// Embedding rows materialized so far (memory growth proxy). Takes each
  /// stripe lock in turn; the result is a consistent lower bound under
  /// concurrent writers.
  size_t MaterializedRows() const;

  /// Dumps every materialized row/weight in key order, one stripe lock at a
  /// time, so concurrent writers must be quiesced by the caller (the
  /// trainer's commit gate) for the cut to be consistent.
  void ExportAll(EmbStoreSnapshot* out) const;

  /// Replaces the store contents with a snapshot: all stripes are cleared
  /// first, so keys absent from the snapshot revert to their deterministic
  /// lazy init on next touch — exactly the state of a store that never saw
  /// the rolled-back updates. Rejects malformed snapshots (value array
  /// lengths inconsistent with emb_dim and the key counts, or a key out of
  /// range) before changing anything. A duplicate key keeps its first value.
  Status ImportAll(const EmbStoreSnapshot& snapshot);

  size_t stripe_count() const { return stripes_.size(); }
  const EmbStoreOptions& options() const { return options_; }

 private:
  /// Guards the state bytes, rows and wide weights of keys
  /// [i << stripe_shift_, (i + 1) << stripe_shift_).
  struct Stripe {
    mutable std::mutex mu;
    size_t rows = 0;  // materialized rows in this key range
  };
  static constexpr uint8_t kRowBit = 1;   // state_: row materialized
  static constexpr uint8_t kWideBit = 2;  // state_: wide weight materialized

  /// Injective (feature, bucket) -> key packing.
  uint64_t Key(int feature, uint64_t bucket) const {
    return static_cast<uint64_t>(feature) * options_.hash_buckets + bucket;
  }
  size_t StripeIndexFor(uint64_t key) const { return key >> stripe_shift_; }
  /// Groups key indices by owning stripe into scratch->order in one
  /// counting pass; group s spans [s == 0 ? 0 : start[s-1], start[s]).
  void GroupByStripe(const uint64_t* keys, size_t n,
                     BatchScratch* scratch) const;
  /// Require the key's stripe lock; write the deterministic init (random
  /// row, 0.0 wide weight) on first touch.
  double* RowLocked(Stripe& stripe, uint64_t key) const;
  double& WideLocked(uint64_t key) const;

  EmbStoreOptions options_;
  uint64_t num_keys_ = 0;  // num_features * hash_buckets
  unsigned stripe_shift_ = 0;
  mutable std::vector<Stripe> stripes_;
  // rows_ and wide_ are never value-initialised: untouched pages cost no
  // time and no RSS; state_ says which entries hold values.
  std::unique_ptr<double[]> rows_;  // emb_dim doubles per key
  std::unique_ptr<double[]> wide_;
  std::unique_ptr<uint8_t[]> state_;  // kRowBit | kWideBit per key
};

}  // namespace dlrover

#endif  // DLROVER_DLRM_EMB_STORE_H_
