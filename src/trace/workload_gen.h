#ifndef DLROVER_TRACE_WORKLOAD_GEN_H_
#define DLROVER_TRACE_WORKLOAD_GEN_H_

#include <string>
#include <vector>

#include "brain/config_db.h"
#include "common/rng.h"
#include "common/units.h"
#include "ps/training_job.h"

namespace dlrover {

/// One job of a synthetic production trace.
struct GeneratedJob {
  JobMetadata meta;
  JobSpec spec;
  SimTime arrival = 0.0;
  /// Whether this job would hit a hot PS (imbalanced parameter shares),
  /// per the paper's report that ~13% of production jobs do.
  bool hot_ps = false;
  /// Job scale relative to the full well-tuned allocation: the production
  /// mix spans small (<100 CPU) and large (>=100 CPU) jobs (Fig 14 buckets
  /// completion rates by this).
  double size_factor = 1.0;
  /// The user's worker-count quota implied by the size.
  int max_workers = 40;
};

/// Knobs for the synthetic AntGroup-like workload. The job mix follows the
/// published statistics (model mix over Wide&Deep/xDeepFM/DCN, step budgets
/// around 200k, ~13% hot-PS-prone jobs, Poisson arrivals) and is fixed in
/// workload_gen.cc; only the trace's size, span and seed vary.
struct WorkloadOptions {
  int num_jobs = 40;
  Duration arrival_span = Hours(6);
  uint64_t seed = 2024;
};

/// Generates a deterministic synthetic job trace.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadOptions& options)
      : options_(options) {}

  std::vector<GeneratedJob> Generate() const;

 private:
  WorkloadOptions options_;
};

}  // namespace dlrover

#endif  // DLROVER_TRACE_WORKLOAD_GEN_H_
