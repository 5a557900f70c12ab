#ifndef DLROVER_BASELINES_OPTIMUS_H_
#define DLROVER_BASELINES_OPTIMUS_H_

#include <map>
#include <memory>

#include "brain/scaling_policy.h"
#include "perfmodel/throughput_model.h"

namespace dlrover {

struct OptimusOptions {
  /// Stop adjusting after this many adjustments that realized < 30% of the
  /// predicted gain.
  int max_disappointments = 2;
};

/// Baseline: Optimus (Peng et al., EuroSys'18) as characterized in the
/// paper — fits an online performance model and greedily adds the single
/// pod (one worker or one PS) with the best predicted marginal gain each
/// round. Two deliberate fidelity points from the paper's critique:
///   1. its model is *lookup-blind* (no T_emb term, Eqn 5), so it
///      misattributes embedding-lookup time and under-provisions PSes; and
///   2. it applies plans via stop-and-restart without accounting for the
///      transition cost.
class OptimusPolicy : public ScalingPolicy {
 public:
  explicit OptimusPolicy(const OptimusOptions& options = {})
      : options_(options) {}

  std::string name() const override { return "optimus"; }
  std::optional<ResourcePlan> Propose(TrainingJob& job) override;

 private:
  struct PerJobState {
    std::unique_ptr<ThroughputModel> model;  // embedding_dim = 0: blind
    std::unique_ptr<ModelFitter> fitter;
    size_t cursor = 0;
    PerfModelParams params;
    bool fitted = false;
    // Convergence guard: adjustments whose realized gain fell far short of
    // the (lookup-blind) prediction count as disappointments; after a few,
    // Optimus stops adjusting (its utility threshold in the original
    // system plays the same role).
    double throughput_before_last_plan = -1.0;
    double predicted_after_last_plan = -1.0;
    int disappointments = 0;
  };

  OptimusOptions options_;
  std::map<const TrainingJob*, PerJobState> states_;
};

}  // namespace dlrover

#endif  // DLROVER_BASELINES_OPTIMUS_H_
