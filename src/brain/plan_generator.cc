#include "brain/plan_generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace dlrover {
namespace {
constexpr bool kFlashCheckpoint = true;
constexpr PriceTable kPrices{};
constexpr ScalingOverheadModel kOverhead{};
constexpr ThroughputGainOptions kGain{};
constexpr WeightOptions kWeight{};

// SameBits compares these structs with memcmp, which is exact only while
// they hold no padding.
static_assert(sizeof(PerfModelParams) == 5 * sizeof(double));
static_assert(sizeof(JobConfig) == 2 * sizeof(int) + 4 * sizeof(double));
static_assert(sizeof(PlanSearchSpace) == 4 * sizeof(int) + 4 * sizeof(double));

template <typename T>
bool SameObjectBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}
}  // namespace

bool SameBits(const PlanSearchInputs& a, const PlanSearchInputs& b) {
  return SameObjectBits(a.params, b.params) && a.batch_size == b.batch_size &&
         SameObjectBits(a.current, b.current) &&
         SameObjectBits(a.current_throughput, b.current_throughput) &&
         SameObjectBits(a.remaining_samples, b.remaining_samples) &&
         SameObjectBits(a.model_bytes, b.model_bytes) &&
         SameObjectBits(a.space, b.space);
}

double PlanGenerator::ThroughputCeiling(const ThroughputModel& model,
                                        const PerfModelParams& params,
                                        uint64_t batch_size,
                                        const JobConfig& current,
                                        const PlanSearchSpace& space) {
  constexpr double kNoBound = std::numeric_limits<double>::infinity();
  for (const double v : {params.alpha_grad, params.alpha_upd,
                         params.alpha_sync, params.alpha_emb,
                         params.beta_sum}) {
    if (!(v >= 0.0) || !std::isfinite(v)) return kNoBound;
  }
  if (!(model.dense_param_bytes() >= 0.0) || model.embedding_dim() < 0 ||
      !(model.bandwidth() > 0.0)) {
    return kNoBound;
  }
  if (space.min_workers > space.max_workers || space.min_ps > space.max_ps ||
      !(space.min_worker_cpu <= space.max_worker_cpu) ||
      !(space.min_ps_cpu <= space.max_ps_cpu)) {
    return kNoBound;
  }
  JobConfig config = current;
  // Every feature is largest at the slowest reachable point; a finite
  // iteration time there keeps every reachable one finite and NaN-free.
  config.num_workers = space.max_workers;
  config.num_ps = space.min_ps;
  config.worker_cpu = std::round(space.min_worker_cpu);
  config.ps_cpu = std::round(space.min_ps_cpu);
  if (!std::isfinite(model.PredictIterTime(params, batch_size, config))) {
    return kNoBound;
  }
  config.num_ps = space.max_ps;
  config.worker_cpu = std::round(space.max_worker_cpu);
  config.ps_cpu = std::round(space.max_ps_cpu);
  double ceiling = 0.0;
  for (int w = space.min_workers; w <= space.max_workers; ++w) {
    config.num_workers = w;
    const double throughput =
        model.PredictThroughput(params, batch_size, config);
    // Zero means the iteration time underflowed to 0 here, where a lower
    // setting of p or a CPU can still predict a positive throughput.
    if (!(throughput > 0.0)) return kNoBound;
    ceiling = std::max(ceiling, throughput);
  }
  return ceiling;
}

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
  // They read only these of Score's fields, computed by the same calls.
  auto objective = [&](const std::vector<double>& x) -> Nsga2::Objectives {
    const JobConfig config = to_config(x);
    const double throughput =
        model.PredictThroughput(params, batch_size, config);
    const Duration overhead = kOverhead.Estimate(
        current, config, kMode, kFlashCheckpoint, model_bytes);
    const double gain =
        ThroughputGain(current_throughput, throughput, overhead, kGain);
    const double inv_tg = gain > 1e-9 ? 1.0 / gain : 1e9 - gain;
    return {ResourceCost(config, kPrices), inv_tg};
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
