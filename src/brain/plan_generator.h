#ifndef DLROVER_BRAIN_PLAN_GENERATOR_H_
#define DLROVER_BRAIN_PLAN_GENERATOR_H_

#include <cstdint>
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

/// Everything PlanGenerator::Generate reads besides the throughput model
/// and the generator's options, which a caller holds fixed per job.
/// Generate is a pure function of these, so two searches whose inputs are
/// the same bit for bit return the same candidates.
struct PlanSearchInputs {
  PerfModelParams params;
  uint64_t batch_size = 0;
  JobConfig current;
  double current_throughput = 0.0;
  double remaining_samples = 0.0;
  Bytes model_bytes = 0.0;
  PlanSearchSpace space;
};

/// True when every field of `a` and `b` has the same bits (so +0.0 and
/// -0.0 differ, and a NaN equals only the same NaN).
bool SameBits(const PlanSearchInputs& a, const PlanSearchInputs& b);

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

  /// The largest PredictThroughput over every (w, p, lambda_w, lambda_p)
  /// that Generate's search can evaluate in `space`: NSGA-II clamps each
  /// variable to its bounds and rounds it, so w and p range over
  /// [min, max] and the CPUs over [round(min), round(max)]. The model is
  /// monotone in p and both CPUs, and stays so in floating point, so only
  /// w is enumerated (at the top of the other three): no candidate of
  /// Generate predicts more. Returns +infinity (no bound) when that
  /// argument does not hold: a negative or non-finite parameter, negative
  /// model constants or a non-positive bandwidth, an empty range, a
  /// non-finite iteration time at the slowest reachable point, or a
  /// prediction at the top that is NaN or zero. DESIGN.md §8 has the
  /// proof.
  static double ThroughputCeiling(const ThroughputModel& model,
                                  const PerfModelParams& params,
                                  uint64_t batch_size,
                                  const JobConfig& current,
                                  const PlanSearchSpace& space);

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
