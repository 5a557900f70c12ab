#ifndef DLROVER_BRAIN_PLAN_GENERATOR_H_
#define DLROVER_BRAIN_PLAN_GENERATOR_H_

#include <vector>

#include "brain/nsga2.h"
#include "brain/objectives.h"
#include "perfmodel/throughput_model.h"
#include "ps/job_config.h"

namespace dlrover {

/// Search space limits for one job's resource plans. Setting min == max
/// freezes a dimension — the brain does this for variables the fitted model
/// has no observational support for (extrapolating an unidentified
/// coefficient would let the optimizer "save" resources it cannot actually
/// model).
struct PlanSearchSpace {
  int min_workers = 1;
  int max_workers = 40;
  int min_ps = 1;
  int max_ps = 8;
  Cores min_worker_cpu = 1.0;
  Cores max_worker_cpu = 16.0;
  Cores min_ps_cpu = 1.0;
  Cores max_ps_cpu = 16.0;
};

/// The plan search's settings. The objectives' prices, overhead model and
/// weights are fixed (the defaults of their structs, in plan_generator.cc).
struct PlanGeneratorOptions {
  Nsga2Options nsga2;
};

/// Job-level resource-plan candidate generation (paper Section 4.3, scaling
/// stage): runs NSGA-II over (w, p, lambda_w, lambda_p) minimizing
/// (RC(A), 1/TG(A)) under the fitted throughput model, returning the Pareto
/// frontier as scored PlanCandidates. Memory fields are carried over from
/// the current config (the OOM predictor owns memory sizing).
class PlanGenerator {
 public:
  /// Search space used when Generate gets no override.
  static constexpr PlanSearchSpace kDefaultSpace{};
  /// Plans are applied by seamless migration; Score prices their overhead
  /// that way (with flash checkpoints).
  static constexpr MigrationMode kMode = MigrationMode::kSeamless;

  explicit PlanGenerator(const PlanGeneratorOptions& options)
      : options_(options) {}

  /// `space_override` (optional) narrows the search space for this call;
  /// pass nullptr to use kDefaultSpace.
  std::vector<PlanCandidate> Generate(const ThroughputModel& model,
                                      const PerfModelParams& params,
                                      uint64_t batch_size,
                                      const JobConfig& current,
                                      double current_throughput,
                                      double remaining_samples,
                                      Bytes model_bytes,
                                      const PlanSearchSpace* space_override =
                                          nullptr) const;

  /// Scores one concrete config exactly as Generate() does; used by tests,
  /// by baselines and to score the "keep the current allocation" option.
  PlanCandidate Score(const ThroughputModel& model,
                      const PerfModelParams& params, uint64_t batch_size,
                      const JobConfig& current, const JobConfig& candidate,
                      double current_throughput, double remaining_samples,
                      Bytes model_bytes) const;

 private:
  PlanGeneratorOptions options_;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_PLAN_GENERATOR_H_
