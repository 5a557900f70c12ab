#include "dlrm/emb_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace dlrover {
namespace {

EmbStoreOptions SmallStore() {
  EmbStoreOptions options;
  options.num_features = 26;
  options.emb_dim = 8;
  options.hash_buckets = 4096;
  options.init_scale = 0.05;
  options.seed = 7;
  options.stripes = 16;
  return options;
}

/// Single-key reads and writes through the batched API (n = 1).
std::vector<double> Row(const EmbStore& store, int feature, uint64_t bucket) {
  const uint64_t key = store.PackKey(feature, bucket);
  std::vector<double> row(static_cast<size_t>(store.options().emb_dim));
  EmbStore::BatchScratch scratch;
  store.GatherRows(&key, 1, row.data(), nullptr, &scratch);
  return row;
}

double Wide(const EmbStore& store, int feature, uint64_t bucket) {
  const uint64_t key = store.PackKey(feature, bucket);
  std::vector<double> row(static_cast<size_t>(store.options().emb_dim));
  double wide = 0.0;
  EmbStore::BatchScratch scratch;
  store.GatherRows(&key, 1, row.data(), &wide, &scratch);
  return wide;
}

/// One ScatterApply(n = 1): row -= lr * grad, and wide -= lr * *wide_grad
/// when `wide_grad` is non-null.
void Push(EmbStore& store, int feature, uint64_t bucket,
          const std::vector<double>& grad, const double* wide_grad,
          double lr) {
  const uint64_t key = store.PackKey(feature, bucket);
  EmbStore::BatchScratch scratch;
  store.ScatterApply(&key, 1, grad.data(), wide_grad, lr, &scratch);
}

TEST(EmbStoreTest, InitIsDeterministicAndOrderIndependent) {
  EmbStore a(SmallStore());
  EmbStore b(SmallStore());
  // Touch in different orders; values must match key by key.
  for (int f = 0; f < 26; ++f) Row(a, f, static_cast<uint64_t>(f) * 13 + 1);
  for (int f = 25; f >= 0; --f) {
    const uint64_t bucket = static_cast<uint64_t>(f) * 13 + 1;
    EXPECT_EQ(Row(a, f, bucket), Row(b, f, bucket));
  }
  // Distinct keys get distinct rows (hash init, not a shared template).
  EXPECT_NE(Row(a, 0, 1), Row(a, 0, 2));
  EXPECT_NE(Row(a, 0, 1), Row(a, 1, 1));
}

TEST(EmbStoreTest, StripeCountRoundsUpToPowerOfTwo) {
  EmbStoreOptions options = SmallStore();
  options.stripes = 9;
  EmbStore store(options);
  EXPECT_EQ(store.stripe_count(), 16u);
  options.stripes = 0;
  EmbStore one(options);
  EXPECT_EQ(one.stripe_count(), 1u);
}

TEST(EmbStoreTest, GradientsAccumulateIntoRows) {
  EmbStore store(SmallStore());
  const std::vector<double> before = Row(store, 3, 42);
  const std::vector<double> grad(8, 2.0);
  Push(store, 3, 42, grad, /*wide_grad=*/nullptr, 0.5);
  const std::vector<double> after = Row(store, 3, 42);
  for (size_t r = 0; r < after.size(); ++r) {
    EXPECT_DOUBLE_EQ(after[r], before[r] - 1.0);
  }
  EXPECT_DOUBLE_EQ(Wide(store, 3, 42), 0.0);
  const double wide_grad = 4.0;
  Push(store, 3, 42, std::vector<double>(8, 0.0), &wide_grad, 0.25);
  EXPECT_DOUBLE_EQ(Wide(store, 3, 42), -1.0);
  EXPECT_EQ(Row(store, 3, 42), after);  // a zero row gradient is exact
}

TEST(EmbStoreTest, MaterializedRowsCountsEmbeddingRowsOnly) {
  EmbStore store(SmallStore());
  EXPECT_EQ(store.MaterializedRows(), 0u);
  Row(store, 0, 1);
  Row(store, 0, 1);  // repeat: no growth
  Wide(store, 1, 1);  // materializes the row and the wide weight
  EXPECT_EQ(store.MaterializedRows(), 2u);  // wide weights don't count
  EmbStoreSnapshot snapshot;
  store.ExportAll(&snapshot);
  EXPECT_EQ(snapshot.emb_keys.size(), 2u);
  EXPECT_EQ(snapshot.wide_keys.size(), 1u);
}

// Concurrency stress: 8 threads hammer an overlapping key set with reads
// and SGD pushes. Every gradient push must land exactly once: the final
// value of each row equals init - lr * (number of pushes it received).
TEST(EmbStoreTest, ConcurrentPushesAreAllApplied) {
  EmbStoreOptions options = SmallStore();
  options.stripes = 8;  // force heavy stripe sharing
  EmbStore store(options);
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kPushesPerThread = 250;
  const std::vector<double> grad(8, 1.0);
  const double wide_grad = 1.0;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &grad, &wide_grad, t]() {
      for (int i = 0; i < kPushesPerThread; ++i) {
        const int f = (t * 7 + i) % 26;
        const uint64_t bucket = static_cast<uint64_t>((t + i) % kKeys);
        Row(store, f, bucket);  // concurrent reads interleave with writes
        Push(store, f, bucket, grad, &wide_grad, 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Recount expected pushes per key and verify the arithmetic landed.
  std::vector<std::vector<int>> pushes(26, std::vector<int>(kKeys, 0));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPushesPerThread; ++i) {
      ++pushes[static_cast<size_t>((t * 7 + i) % 26)][(t + i) % kKeys];
    }
  }
  EmbStore pristine(options);
  for (int f = 0; f < 26; ++f) {
    for (int k = 0; k < kKeys; ++k) {
      const int n = pushes[static_cast<size_t>(f)][static_cast<size_t>(k)];
      if (n == 0) continue;
      const std::vector<double> init =
          Row(pristine, f, static_cast<uint64_t>(k));
      const std::vector<double> got = Row(store, f, static_cast<uint64_t>(k));
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_NEAR(got[r], init[r] - n, 1e-9)
            << "feature " << f << " bucket " << k;
      }
      EXPECT_NEAR(Wide(store, f, static_cast<uint64_t>(k)),
                  -static_cast<double>(n), 1e-9);
    }
  }
}

TEST(EmbStoreBatchedTest, GatherMatchesPerKeyGets) {
  EmbStore store(SmallStore());
  const size_t dim = 8;
  // Keys across many features/buckets, including duplicates and keys that
  // collide on a stripe, in scrambled order.
  std::vector<uint64_t> keys;
  for (int f = 0; f < 26; ++f) {
    keys.push_back(store.PackKey(f, static_cast<uint64_t>(f * 31 + 5)));
    keys.push_back(store.PackKey(f, static_cast<uint64_t>(f * 7 + 1)));
  }
  keys.push_back(keys[3]);  // duplicate
  keys.push_back(keys[40]);

  std::vector<double> rows(keys.size() * dim);
  std::vector<double> wide(keys.size());
  EmbStore::BatchScratch scratch;
  store.GatherRows(keys.data(), keys.size(), rows.data(), wide.data(),
                   &scratch);

  for (size_t i = 0; i < keys.size(); ++i) {
    const int f = static_cast<int>(keys[i] / SmallStore().hash_buckets);
    const uint64_t bucket = keys[i] % SmallStore().hash_buckets;
    const std::vector<double> expect = Row(store, f, bucket);
    for (size_t r = 0; r < dim; ++r) {
      EXPECT_EQ(rows[i * dim + r], expect[r]) << "key " << i;
    }
    EXPECT_EQ(wide[i], Wide(store, f, bucket));
  }
}

TEST(EmbStoreBatchedTest, ScatterApplyMatchesPerKeyApply) {
  EmbStore batched(SmallStore());
  EmbStore perkey(SmallStore());
  const size_t dim = 8;
  const double lr = 0.3;

  std::vector<uint64_t> keys;
  std::vector<double> row_grads;
  std::vector<double> wide_grads;
  for (int f = 0; f < 26; ++f) {
    for (int j = 0; j < 3; ++j) {
      keys.push_back(batched.PackKey(f, static_cast<uint64_t>(f * 17 + j)));
      for (size_t r = 0; r < dim; ++r) {
        row_grads.push_back(0.01 * static_cast<double>(f + j) +
                            0.001 * static_cast<double>(r));
      }
      wide_grads.push_back(0.1 * static_cast<double>(f - j));
    }
  }

  // Initial rows, read before any push: the reference for the arithmetic.
  std::vector<std::vector<double>> before;
  for (uint64_t key : keys) {
    const uint64_t buckets = SmallStore().hash_buckets;
    before.push_back(
        Row(batched, static_cast<int>(key / buckets), key % buckets));
  }

  EmbStore::BatchScratch scratch;
  batched.ScatterApply(keys.data(), keys.size(), row_grads.data(),
                       wide_grads.data(), lr, &scratch);
  for (size_t i = 0; i < keys.size(); ++i) {
    const int f = static_cast<int>(keys[i] / SmallStore().hash_buckets);
    const uint64_t bucket = keys[i] % SmallStore().hash_buckets;
    const std::vector<double> grad(row_grads.begin() + i * dim,
                                   row_grads.begin() + (i + 1) * dim);
    Push(perkey, f, bucket, grad, &wide_grads[i], lr);
  }

  // Bitwise identical, to one key at a time and to `before - lr * grad`.
  for (size_t i = 0; i < keys.size(); ++i) {
    const int f = static_cast<int>(keys[i] / SmallStore().hash_buckets);
    const uint64_t bucket = keys[i] % SmallStore().hash_buckets;
    const std::vector<double> got = Row(batched, f, bucket);
    EXPECT_EQ(got, Row(perkey, f, bucket));
    for (size_t r = 0; r < dim; ++r) {
      EXPECT_EQ(got[r], before[i][r] - lr * row_grads[i * dim + r]);
    }
    EXPECT_EQ(Wide(batched, f, bucket), Wide(perkey, f, bucket));
    EXPECT_EQ(Wide(batched, f, bucket), 0.0 - lr * wide_grads[i]);
  }
  EXPECT_EQ(batched.MaterializedRows(), perkey.MaterializedRows());
}

TEST(EmbStoreBatchedTest, ScatterWithoutWideLeavesWideUntouched) {
  EmbStore store(SmallStore());
  std::vector<uint64_t> keys = {store.PackKey(2, 9), store.PackKey(11, 40)};
  std::vector<double> grads(keys.size() * 8, 0.5);
  EmbStore::BatchScratch scratch;
  store.ScatterApply(keys.data(), keys.size(), grads.data(),
                     /*wide_grads=*/nullptr, 0.1, &scratch);
  EXPECT_EQ(store.MaterializedRows(), 2u);
  EmbStoreSnapshot snapshot;
  store.ExportAll(&snapshot);
  EXPECT_TRUE(snapshot.wide_keys.empty());
  EXPECT_EQ(Wide(store, 2, 9), 0.0);
}

// Pushes row and wide gradients to every third bucket below 40 of each
// feature, materializing and changing state that ImportAll must replace.
void Dirty(EmbStore& store) {
  const double wide_grad = 3.0;
  for (int f = 0; f < 26; ++f) {
    for (uint64_t bucket = 0; bucket < 40; bucket += 3) {
      Push(store, f, bucket, std::vector<double>(8, 0.75), &wide_grad, 0.5);
    }
  }
}

TEST(EmbStoreSnapshotTest, OutOfRangeKeyIsRejectedAndStoreUntouched) {
  EmbStore store(SmallStore());
  Dirty(store);
  EmbStoreSnapshot before;
  store.ExportAll(&before);
  const uint64_t num_keys = 26 * SmallStore().hash_buckets;

  EmbStoreSnapshot bad_row;
  bad_row.emb_keys = {store.PackKey(4, 2), num_keys};
  bad_row.emb_values.assign(2 * 8, 1.0);
  EXPECT_EQ(store.ImportAll(bad_row).code(), StatusCode::kInvalidArgument);
  EmbStoreSnapshot bad_wide;
  bad_wide.wide_keys = {store.PackKey(4, 2), ~uint64_t{0}};
  bad_wide.wide_values = {1.0, 2.0};
  EXPECT_EQ(store.ImportAll(bad_wide).code(), StatusCode::kInvalidArgument);

  EmbStoreSnapshot after;
  store.ExportAll(&after);
  EXPECT_EQ(after.emb_keys, before.emb_keys);
  EXPECT_EQ(after.emb_values, before.emb_values);
  EXPECT_EQ(after.wide_keys, before.wide_keys);
  EXPECT_EQ(after.wide_values, before.wide_values);
}

TEST(EmbStoreSnapshotTest, DuplicateKeyKeepsItsFirstValue) {
  EmbStore store(SmallStore());
  EmbStoreSnapshot snapshot;
  const uint64_t key = store.PackKey(7, 70);
  snapshot.emb_keys = {key, key};
  snapshot.emb_values.assign(8, 1.0);
  snapshot.emb_values.resize(16, 2.0);
  snapshot.wide_keys = {key, key};
  snapshot.wide_values = {3.0, 4.0};
  ASSERT_TRUE(store.ImportAll(snapshot).ok());
  EXPECT_EQ(store.MaterializedRows(), 1u);
  EXPECT_EQ(Row(store, 7, 70), std::vector<double>(8, 1.0));
  EXPECT_EQ(Wide(store, 7, 70), 3.0);
}

TEST(EmbStoreSnapshotTest, KeysAbsentFromSnapshotReadTheirLazyInit) {
  // Snapshot a store whose wide weights cover only some of its rows, then
  // dirty rows and wide weights (some in the snapshot, some new) and roll
  // back: nothing may read a value written after the snapshot.
  EmbStore store(SmallStore());
  std::vector<uint64_t> keys;
  for (int f = 0; f < 26; ++f) keys.push_back(store.PackKey(f, 3 * f % 40));
  std::vector<double> grads(keys.size() * 8, 0.125);
  EmbStore::BatchScratch scratch;
  store.ScatterApply(keys.data(), keys.size(), grads.data(),
                     /*wide_grads=*/nullptr, 1.0, &scratch);
  Wide(store, 0, 0);
  Wide(store, 25, 36);
  EmbStoreSnapshot snapshot;
  store.ExportAll(&snapshot);
  ASSERT_EQ(snapshot.emb_keys.size(), 27u);
  ASSERT_EQ(snapshot.wide_keys.size(), 2u);

  Dirty(store);
  ASSERT_GT(store.MaterializedRows(), snapshot.emb_keys.size());
  ASSERT_TRUE(store.ImportAll(snapshot).ok());
  EXPECT_EQ(store.MaterializedRows(), snapshot.emb_keys.size());

  EmbStore pristine(SmallStore());
  for (int f = 0; f < 26; ++f) {
    for (uint64_t bucket = 0; bucket < 40; ++bucket) {
      const uint64_t key = store.PackKey(f, bucket);
      const auto row_it = std::lower_bound(snapshot.emb_keys.begin(),
                                           snapshot.emb_keys.end(), key);
      if (row_it != snapshot.emb_keys.end() && *row_it == key) {
        const size_t i =
            static_cast<size_t>(row_it - snapshot.emb_keys.begin());
        EXPECT_EQ(Row(store, f, bucket),
                  std::vector<double>(snapshot.emb_values.begin() + i * 8,
                                      snapshot.emb_values.begin() + i * 8 + 8));
      } else {
        EXPECT_EQ(Row(store, f, bucket), Row(pristine, f, bucket))
            << "key " << key;
      }
      const auto wide_it = std::find(snapshot.wide_keys.begin(),
                                     snapshot.wide_keys.end(), key);
      EXPECT_EQ(Wide(store, f, bucket),
                wide_it == snapshot.wide_keys.end()
                    ? 0.0
                    : snapshot.wide_values[static_cast<size_t>(
                          wide_it - snapshot.wide_keys.begin())])
          << "key " << key;
    }
  }
}

#ifndef NDEBUG
TEST(EmbStoreDeathTest, KeyOutsideTheKeySpaceAssertsInDebugBuilds) {
  EmbStore store(SmallStore());
  const uint64_t key = 26 * SmallStore().hash_buckets;
  std::vector<double> row(8);
  EmbStore::BatchScratch scratch;
  EXPECT_DEATH(store.GatherRows(&key, 1, row.data(), nullptr, &scratch),
               "key space");
}
#endif

}  // namespace
}  // namespace dlrover
