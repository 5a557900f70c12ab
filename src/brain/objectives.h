#ifndef DLROVER_BRAIN_OBJECTIVES_H_
#define DLROVER_BRAIN_OBJECTIVES_H_

#include <string>
#include <vector>

#include "common/units.h"
#include "ps/job_config.h"
#include "ps/training_job.h"

namespace dlrover {

/// Money(a_r): unit prices used by the Resource Cost function (Eqn 7).
/// Arbitrary but consistent units (USD per resource-hour).
struct PriceTable {
  double cpu_core_hour = 0.033;   // ~ cloud vCPU price
  double mem_gib_hour = 0.0045;
};

/// RC(A) — Eqn 7: total expense rate (USD/hour) of an allocation.
double ResourceCost(const JobConfig& config, const PriceTable& prices);

/// Overhead(A) — wasted training time caused by applying a plan, estimated
/// from historical cluster statistics (pod startup times, checkpoint
/// bandwidths). Mirrors what the paper derives from its config DB.
struct ScalingOverheadModel {
  /// Mean pod startup (image pull + boot) from historical stats.
  Duration mean_pod_startup = Seconds(45);
  /// Time to save+load a checkpoint per byte for each tier.
  double rds_secs_per_byte = 1.0 / MiBps(64);
  double cache_secs_per_byte = 1.0 / GiBps(24);
  Duration rds_fixed = Seconds(90);    // save + load coordination
  Duration cache_fixed = Seconds(0.5);

  /// Estimated wall-clock training time lost when moving `from` -> `to`.
  Duration Estimate(const JobConfig& from, const JobConfig& to,
                    MigrationMode mode, bool flash_checkpoint,
                    Bytes model_bytes) const;
};

/// TG(A) — Eqn 8: throughput gain net of scaling overhead. The overhead (a
/// time) is converted into a throughput-equivalent penalty by amortizing
/// the lost samples over `amortization_horizon`:
///   TG = delta_psi - overhead * psi_new / horizon.
struct ThroughputGainOptions {
  Duration amortization_horizon = Minutes(30);
};

double ThroughputGain(double current_throughput, double planned_throughput,
                      Duration overhead,
                      const ThroughputGainOptions& options);

/// RE(A) — Eqn 11: throughput gain per unit of *additional* resource cost.
/// Plans that free resources while keeping throughput get a large RE.
double ResourceEfficiency(double throughput_gain, double cost_delta);

/// WG(A) — Eqn 14: priority weight from the job's remaining time under the
/// plan. rho > 0 prioritizes short jobs (AntGroup uses rho = 2.5).
struct WeightOptions {
  double rho = 2.5;
};

double PriorityWeight(double remaining_samples, double planned_throughput,
                      const WeightOptions& options);

/// A scored candidate resource plan for one job.
struct PlanCandidate {
  JobConfig config;
  double predicted_throughput = 0.0;
  Duration overhead = 0.0;
  double throughput_gain = 0.0;
  double resource_cost = 0.0;   // RC of the full allocation
  double cost_delta = 0.0;      // RC(new) - RC(current)
  double resource_efficiency = 0.0;
  double weight = 0.0;          // WG
  std::string ToString() const;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_OBJECTIVES_H_
