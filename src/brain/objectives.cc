#include "brain/objectives.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dlrover {
namespace {
/// Remaining-time scale (seconds) that normalizes WG so rho exponentiation
/// stays numerically tame; epsilon keeps a finished job's weight finite.
constexpr double kWeightTimeScale = 3600.0;
constexpr double kWeightEpsilon = 1e-6;
}  // namespace

double ResourceCost(const JobConfig& config, const PriceTable& prices) {
  return config.TotalCpu() * prices.cpu_core_hour +
         ToGiB(config.TotalMemory()) * prices.mem_gib_hour;
}

Duration ScalingOverheadModel::Estimate(const JobConfig& from,
                                        const JobConfig& to,
                                        MigrationMode mode,
                                        bool flash_checkpoint,
                                        Bytes model_bytes) const {
  const bool worker_count_only =
      to.num_ps == from.num_ps && to.worker_cpu == from.worker_cpu &&
      to.ps_cpu == from.ps_cpu && to.worker_memory == from.worker_memory &&
      to.ps_memory == from.ps_memory;
  if (from == to) return 0.0;

  if (worker_count_only && mode == MigrationMode::kSeamless) {
    // New workers join the shards queue; no training pause. Small charge
    // for the ramp while pods start.
    const int added = std::max(0, to.num_workers - from.num_workers);
    return added > 0 ? mean_pod_startup * 0.25 : Seconds(1);
  }

  const Duration checkpoint_cost =
      flash_checkpoint
          ? 2.0 * (cache_fixed + model_bytes * cache_secs_per_byte)
          : 2.0 * (rds_fixed + model_bytes * rds_secs_per_byte);
  if (mode == MigrationMode::kSeamless) {
    // Pod startup overlaps training; only the checkpoint handoff pauses.
    return checkpoint_cost;
  }
  // Stop-and-restart: checkpoint + full redeployment on the critical path.
  return checkpoint_cost + mean_pod_startup * 1.5;
}

double ThroughputGain(double current_throughput, double planned_throughput,
                      Duration overhead,
                      const ThroughputGainOptions& options) {
  const double delta = planned_throughput - current_throughput;
  const double horizon = std::max(1.0, options.amortization_horizon);
  const double penalty = overhead * planned_throughput / horizon;
  return delta - penalty;
}

double ResourceEfficiency(double throughput_gain, double cost_delta) {
  // Guard the denominator: near-free plans are scored against a small
  // nominal cost so RE stays finite; freeing resources (negative delta)
  // while gaining throughput is maximally efficient.
  const double kMinCost = 1e-3;
  if (cost_delta <= 0.0) {
    return throughput_gain >= 0.0 ? throughput_gain / kMinCost
                                  : throughput_gain;
  }
  return throughput_gain / std::max(kMinCost, cost_delta);
}

double PriorityWeight(double remaining_samples, double planned_throughput,
                      const WeightOptions& options) {
  const double psi = std::max(1e-9, planned_throughput);
  const double remaining_time = remaining_samples / psi;  // Phi / Psi
  const double scaled = remaining_time / kWeightTimeScale + kWeightEpsilon;
  return 1.0 / std::pow(scaled, options.rho);
}

std::string PlanCandidate::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s psi=%.0f tg=%.0f rc=%.3f dcost=%.3f re=%.1f wg=%.3g",
                config.ToString().c_str(), predicted_throughput,
                throughput_gain, resource_cost, cost_delta,
                resource_efficiency, weight);
  return buf;
}

}  // namespace dlrover
