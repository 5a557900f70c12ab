#include "baselines/optimus.h"

#include <algorithm>

#include "perfmodel/profile_ingest.h"

namespace dlrover {
namespace {
constexpr int kMaxWorkers = 40;
constexpr int kMaxPs = 8;
/// Minimum predicted marginal throughput gain (samples/sec) to act.
constexpr double kMinGain = 50.0;
}  // namespace

std::optional<ResourcePlan> OptimusPolicy::Propose(TrainingJob& job) {
  if (job.state() != JobState::kRunning) return std::nullopt;

  PerJobState& state = states_[&job];
  if (state.model == nullptr) {
    // Lookup-blind model: embedding_dim forced to zero removes the T_emb
    // basis term entirely (see header).
    state.model = std::make_unique<ThroughputModel>(
        job.model_profile().dense_param_bytes, /*embedding_dim=*/0,
        job.environment().network_bandwidth);
    state.fitter = std::make_unique<ModelFitter>(*state.model);
  }
  IngestJobHistory(job, &state.cursor, state.fitter.get());
  if (state.fitter->ReadyToFit()) {
    auto fitted = state.fitter->Fit();
    if (fitted.ok()) {
      state.params = *fitted;
      state.fitted = true;
    }
  }
  // Score the previous adjustment: if it realized far less than predicted
  // (the lookup-blind model's systematic error on DLRMs), count a
  // disappointment and eventually stop churning the job.
  const double smoothed = job.SmoothedThroughput();
  if (state.predicted_after_last_plan > 0.0 && smoothed > 0.0) {
    const double predicted_gain =
        state.predicted_after_last_plan - state.throughput_before_last_plan;
    const double realized_gain = smoothed - state.throughput_before_last_plan;
    if (predicted_gain > 0.0 && realized_gain < 0.3 * predicted_gain) {
      ++state.disappointments;
    }
    state.predicted_after_last_plan = -1.0;
  }
  if (state.disappointments >= options_.max_disappointments) {
    return std::nullopt;
  }

  if (!state.fitted) {
    // Bootstrap: before its model is fittable (it needs more than one
    // configuration shape), Optimus grows by its default action of adding
    // one worker.
    if (state.fitter->observation_count() < 2) return std::nullopt;
    if (job.config().num_workers + 1 > kMaxWorkers) {
      return std::nullopt;
    }
    ResourcePlan plan;
    plan.config = job.config();
    ++plan.config.num_workers;
    plan.mode = MigrationMode::kStopAndRestart;
    return plan;
  }

  const JobConfig& current = job.config();
  const double base = state.model->PredictThroughput(
      state.params, job.spec().batch_size, current);

  // Gains must clear both an absolute floor and a relative one: Optimus
  // stops once marginal pods stop paying for themselves.
  double best_gain = std::max(kMinGain, 0.05 * base);
  std::optional<JobConfig> best;

  if (current.num_workers + 1 <= kMaxWorkers) {
    JobConfig plus_worker = current;
    ++plus_worker.num_workers;
    const double gain = state.model->PredictThroughput(
                            state.params, job.spec().batch_size,
                            plus_worker) - base;
    if (gain > best_gain) {
      best_gain = gain;
      best = plus_worker;
    }
  }
  if (current.num_ps + 1 <= kMaxPs) {
    JobConfig plus_ps = current;
    ++plus_ps.num_ps;
    const double gain = state.model->PredictThroughput(
                            state.params, job.spec().batch_size, plus_ps) -
                        base;
    if (gain > best_gain) {
      best_gain = gain;
      best = plus_ps;
    }
  }
  if (!best.has_value()) return std::nullopt;

  ResourcePlan plan;
  plan.config = *best;
  // Optimus redeploys the job to apply a plan and does not model the
  // transition cost (paper Section 7).
  plan.mode = MigrationMode::kStopAndRestart;
  state.throughput_before_last_plan = smoothed;
  state.predicted_after_last_plan = base + best_gain;
  return plan;
}

}  // namespace dlrover
