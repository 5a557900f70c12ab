#ifndef DLROVER_SIM_SHARDED_SIMULATOR_H_
#define DLROVER_SIM_SHARDED_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"

namespace dlrover {

/// Tunables for the sharded event engine.
struct ShardedSimOptions {
  /// Number of independent event queues. Part of the *scenario shape*: each
  /// shard owns a disjoint slice of the simulated world, and two runs with
  /// different shard counts simulate different partitions. Determinism
  /// guarantees below are for a fixed num_shards across execution widths.
  int num_shards = 1;
  /// Synchronization window: shards run independently for one window, then
  /// meet at a barrier where the hook sees every shard quiescent.
  Duration window = Minutes(2);
  /// Pool the windows are fanned across. nullptr runs shards sequentially
  /// on the calling thread (the zero-allocation path).
  ThreadPool* pool = nullptr;
  /// Number of execution lanes used per window; 0 means one lane per shard.
  /// Never affects results — only wall-clock. Ignored without a pool.
  size_t parallelism = 0;
};

/// N ordinary `Simulator` shards advanced in barrier-synchronized time
/// windows on the ThreadPool.
///
/// Within a window each shard runs its own slab-backed event queue with no
/// locks. Shards share no state: an event on one shard never schedules or
/// touches anything on another. At each window barrier a hook runs on the
/// coordinator thread with every shard quiescent (the fleet runner folds
/// the cells' accounting ledgers there, in shard order).
///
/// Why determinism survives parallel execution: each shard's intra-window
/// execution is sequential and touches only shard-local state, so its event
/// trace is a pure function of its own queue; and the barrier hook reads
/// the shards in shard order. Hence for a fixed num_shards, results are
/// byte-identical at every `parallelism` (and with or without a pool).
class ShardedSimulator {
 public:
  explicit ShardedSimulator(const ShardedSimOptions& options);

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// The shard-local simulator. Entities living on shard `i` schedule their
  /// events directly on it, exactly as in the sequential world.
  Simulator& shard(int i) { return shards_[static_cast<size_t>(i)]->sim; }

  /// Barrier time: the end of the last completed window.
  SimTime Now() const { return now_; }

  /// Invoked at every window barrier with the barrier time, on the
  /// coordinator thread with all shards quiescent.
  void set_barrier_hook(std::function<void(SimTime)> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Advances all shards to `deadline` in windows. Like
  /// Simulator::RunUntil, events exactly at the deadline run, and every
  /// shard's clock (and Now()) ends at max(previous, deadline). Runs at
  /// least one (possibly zero-width) window, so the barrier hook always
  /// runs.
  void RunUntil(SimTime deadline);

  /// Windows run so far (each ends in one barrier).
  uint64_t windows_run() const { return windows_; }

 private:
  /// A shard's simulator, padded out so two shards never share a cache line
  /// while lanes advance them concurrently.
  struct alignas(64) Shard {
    Simulator sim;
  };

  void AdvanceShards(SimTime window_end);

  ShardedSimOptions options_;
  SimTime now_ = 0.0;
  uint64_t windows_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(SimTime)> barrier_hook_;
};

}  // namespace dlrover

#endif  // DLROVER_SIM_SHARDED_SIMULATOR_H_
