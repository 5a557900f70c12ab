#ifndef DLROVER_BRAIN_SCALING_POLICY_H_
#define DLROVER_BRAIN_SCALING_POLICY_H_

#include <optional>
#include <string>

#include "ps/job_config.h"
#include "ps/training_job.h"

namespace dlrover {

/// A resource decision for one job.
struct ResourcePlan {
  JobConfig config;
  MigrationMode mode = MigrationMode::kSeamless;
};

/// Plug-in scaling algorithm API (paper Section 4.3, "Plug-in Algorithm
/// API"): DLRover-RM's weighted-greedy algorithm suits AntGroup's clusters,
/// but operators with specialized hardware can swap in their own policy.
/// Implementations are called once per scheduling round per running job and
/// may return no plan (keep the current allocation). The baselines
/// (Elastic Scheduler, Optimus) implement this interface too, which is what
/// makes the head-to-head benchmarks drop-in.
class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;

  virtual std::string name() const = 0;

  /// Proposes a plan for `job` at the current round; nullopt keeps the
  /// current allocation.
  virtual std::optional<ResourcePlan> Propose(TrainingJob& job) = 0;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_SCALING_POLICY_H_
