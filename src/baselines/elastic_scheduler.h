#ifndef DLROVER_BASELINES_ELASTIC_SCHEDULER_H_
#define DLROVER_BASELINES_ELASTIC_SCHEDULER_H_

#include <map>

#include "brain/scaling_policy.h"

namespace dlrover {

/// Baseline: Elastic Scheduler (Or et al., MLSys'20) as characterized in
/// the paper — scales *workers only*, by a fixed step, using hill climbing
/// on observed throughput. It never touches parameter servers or per-pod
/// CPU, so PS-side bottlenecks (updates, lookups) go unaddressed; that is
/// the gap DLRover-RM's lookup-aware model exploits.
class ElasticSchedulerPolicy : public ScalingPolicy {
 public:
  std::string name() const override { return "elastic-scheduler"; }
  std::optional<ResourcePlan> Propose(TrainingJob& job) override;

 private:
  struct PerJobState {
    double last_throughput = 0.0;
    int last_workers = 0;
    int direction = +1;
    bool stalled = false;
    int rounds_since_change = 0;
  };

  std::map<const TrainingJob*, PerJobState> states_;
};

}  // namespace dlrover

#endif  // DLROVER_BASELINES_ELASTIC_SCHEDULER_H_
