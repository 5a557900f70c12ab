#include "brain/plan_generator.h"

#include <algorithm>
#include <cmath>

namespace dlrover {
namespace {
constexpr bool kFlashCheckpoint = true;
constexpr PriceTable kPrices{};
constexpr ScalingOverheadModel kOverhead{};
constexpr ThroughputGainOptions kGain{};
constexpr WeightOptions kWeight{};
}  // namespace

PlanCandidate PlanGenerator::Score(const ThroughputModel& model,
                                   const PerfModelParams& params,
                                   uint64_t batch_size,
                                   const JobConfig& current,
                                   const JobConfig& candidate,
                                   double current_throughput,
                                   double remaining_samples,
                                   Bytes model_bytes) const {
  PlanCandidate plan;
  plan.config = candidate;
  plan.predicted_throughput =
      model.PredictThroughput(params, batch_size, candidate);
  plan.overhead = kOverhead.Estimate(current, candidate, kMode,
                                     kFlashCheckpoint, model_bytes);
  plan.throughput_gain = ThroughputGain(
      current_throughput, plan.predicted_throughput, plan.overhead, kGain);
  plan.resource_cost = ResourceCost(candidate, kPrices);
  plan.cost_delta = plan.resource_cost - ResourceCost(current, kPrices);
  plan.resource_efficiency =
      ResourceEfficiency(plan.throughput_gain, plan.cost_delta);
  plan.weight =
      PriorityWeight(remaining_samples, plan.predicted_throughput, kWeight);
  return plan;
}

std::vector<PlanCandidate> PlanGenerator::Generate(
    const ThroughputModel& model, const PerfModelParams& params,
    uint64_t batch_size, const JobConfig& current, double current_throughput,
    double remaining_samples, Bytes model_bytes,
    const PlanSearchSpace* space_override) const {
  const PlanSearchSpace& space =
      space_override != nullptr ? *space_override : kDefaultSpace;
  std::vector<DecisionBounds> bounds = {
      {static_cast<double>(space.min_workers),
       static_cast<double>(space.max_workers), true},  // w
      {static_cast<double>(space.min_ps),
       static_cast<double>(space.max_ps), true},       // p
      {space.min_worker_cpu, space.max_worker_cpu, true},  // lambda_w
      {space.min_ps_cpu, space.max_ps_cpu, true},          // lambda_p
  };

  auto to_config = [&](const std::vector<double>& x) {
    JobConfig config = current;  // memory carried over
    config.num_workers = static_cast<int>(x[0]);
    config.num_ps = static_cast<int>(x[1]);
    config.worker_cpu = x[2];
    config.ps_cpu = x[3];
    return config;
  };

  // Objectives: minimize (RC(A), 1/TG(A)). Non-positive TG maps to a large
  // finite penalty so the front retains only genuinely improving plans.
  auto objective = [&](const std::vector<double>& x) -> Nsga2::Objectives {
    const JobConfig config = to_config(x);
    const PlanCandidate plan =
        Score(model, params, batch_size, current, config, current_throughput,
              remaining_samples, model_bytes);
    const double inv_tg = plan.throughput_gain > 1e-9
                              ? 1.0 / plan.throughput_gain
                              : 1e9 - plan.throughput_gain;
    return {plan.resource_cost, inv_tg};
  };

  Nsga2 nsga2(bounds, objective, options_.nsga2);
  const std::vector<Nsga2Individual> front = nsga2.Run();

  std::vector<PlanCandidate> candidates;
  candidates.reserve(front.size());
  for (const Nsga2Individual& ind : front) {
    const JobConfig config = to_config(ind.x);
    PlanCandidate plan =
        Score(model, params, batch_size, current, config, current_throughput,
              remaining_samples, model_bytes);
    if (plan.throughput_gain <= 0.0) continue;  // keep-current beats these
    candidates.push_back(std::move(plan));
  }
  // Most resource-efficient first: the greedy selector consumes them in
  // this order.
  std::sort(candidates.begin(), candidates.end(),
            [](const PlanCandidate& a, const PlanCandidate& b) {
              return a.resource_efficiency * a.weight >
                     b.resource_efficiency * b.weight;
            });
  return candidates;
}

}  // namespace dlrover
