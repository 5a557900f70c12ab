#include "baselines/elastic_scheduler.h"

#include <algorithm>

namespace dlrover {
namespace {
/// Fixed number of workers added/removed per adjustment (the paper notes
/// ES changes a fixed number of nodes each time).
constexpr int kStep = 2;
/// Relative throughput improvement required to keep scaling in the same
/// direction.
constexpr double kImproveThreshold = 0.04;
constexpr int kMinWorkers = 2;
constexpr int kMaxWorkers = 40;
/// After stalling, re-probe upward every this many rounds.
constexpr int kReprobeRounds = 5;
}  // namespace

std::optional<ResourcePlan> ElasticSchedulerPolicy::Propose(TrainingJob& job) {
  if (job.state() != JobState::kRunning) return std::nullopt;
  const double throughput = job.SmoothedThroughput();
  if (throughput <= 0.0) return std::nullopt;

  PerJobState& state = states_[&job];
  const int workers = job.config().num_workers;

  auto make_plan = [&](int new_workers) -> std::optional<ResourcePlan> {
    new_workers = std::clamp(new_workers, kMinWorkers, kMaxWorkers);
    if (new_workers == workers) return std::nullopt;
    ResourcePlan plan;
    plan.config = job.config();
    plan.config.num_workers = new_workers;
    plan.mode = MigrationMode::kSeamless;
    state.last_throughput = throughput;
    state.last_workers = workers;
    state.rounds_since_change = 0;
    return plan;
  };

  if (state.last_workers == 0) {
    // First observation: probe upward.
    return make_plan(workers + kStep);
  }

  ++state.rounds_since_change;
  if (state.stalled) {
    if (state.rounds_since_change >= kReprobeRounds) {
      state.stalled = false;
      state.direction = +1;
      return make_plan(workers + kStep);
    }
    return std::nullopt;
  }

  const double improvement =
      (throughput - state.last_throughput) /
      std::max(1e-9, state.last_throughput);
  const bool grew = workers > state.last_workers;
  const bool shrank = workers < state.last_workers;

  if ((grew && improvement >= kImproveThreshold) ||
      (shrank && improvement >= -kImproveThreshold / 2)) {
    // The move paid off (or shrinking was ~free): continue this direction.
    return make_plan(workers + state.direction * kStep);
  }
  if (grew) {
    // Growth stopped paying: give the resources back and stall.
    state.stalled = true;
    state.direction = -1;
    return make_plan(workers - kStep);
  }
  // Shrinking hurt: grow back and stall there.
  state.stalled = true;
  state.direction = +1;
  return make_plan(workers + kStep);
}

}  // namespace dlrover
