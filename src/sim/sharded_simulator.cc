#include "sim/sharded_simulator.h"

#include <algorithm>

namespace dlrover {

ShardedSimulator::ShardedSimulator(const ShardedSimOptions& options)
    : options_(options) {
  const int n = std::max(1, options.num_shards);
  options_.num_shards = n;
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ShardedSimulator::AdvanceShards(SimTime window_end) {
  const size_t n = shards_.size();
  ThreadPool* pool = options_.pool;
  size_t lanes = options_.parallelism == 0 ? n : options_.parallelism;
  lanes = std::min(lanes, n);
  if (pool == nullptr || lanes <= 1 || n <= 1) {
    // Sequential lanes: the zero-allocation path (ParallelFor boxes its
    // chunk closures; this loop touches nothing but the shard slabs).
    for (auto& shard : shards_) shard->sim.RunUntil(window_end);
    return;
  }
  const size_t grain = (n + lanes - 1) / lanes;
  pool->ParallelFor(0, n, grain, [this, window_end](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      shards_[i]->sim.RunUntil(window_end);
    }
  });
}

void ShardedSimulator::RunUntil(SimTime deadline) {
  const SimTime end = std::max(deadline, now_);
  const Duration window = std::max(options_.window, 0.0);
  // do-while: a zero-width window still runs events at exactly `end` and
  // the barrier hook.
  do {
    const SimTime window_end =
        window > 0.0 ? std::min(now_ + window, end) : end;
    AdvanceShards(window_end);
    ++windows_;
    now_ = window_end;
    if (barrier_hook_) barrier_hook_(window_end);
  } while (now_ < end);
}

}  // namespace dlrover
