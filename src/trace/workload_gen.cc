#include "trace/workload_gen.h"

#include <algorithm>

#include "ps/model_profile.h"

namespace dlrover {
namespace {
/// Share of hot-PS-prone jobs (the paper reports ~13% in production).
constexpr double kHotPsFraction = 0.13;
/// Fraction of jobs whose user-declared model size is badly wrong
/// (drives warm-start quality spread).
constexpr double kNoisyMetadataFraction = 0.2;
constexpr uint64_t kNumUsers = 8;
/// Fraction of small jobs (<100 CPUs); the rest are large.
constexpr double kSmallFraction = 0.55;
/// Step budgets around 200k.
constexpr int64_t kMinSteps = 120000;
constexpr int64_t kMaxSteps = 260000;
}  // namespace

std::vector<GeneratedJob> WorkloadGenerator::Generate() const {
  Rng rng(options_.seed);
  std::vector<GeneratedJob> jobs;
  jobs.reserve(static_cast<size_t>(options_.num_jobs));

  for (int i = 0; i < options_.num_jobs; ++i) {
    GeneratedJob job;

    // Model mix: Wide&Deep-style models dominate CTR workloads.
    const double mix = rng.Uniform();
    ModelKind kind = ModelKind::kWideDeep;
    if (mix > 0.45 && mix <= 0.72) kind = ModelKind::kXDeepFm;
    if (mix > 0.72) kind = ModelKind::kDcn;

    const ModelProfile profile = GetModelProfile(kind);

    job.meta.user = "user-" + std::to_string(rng.UniformInt(kNumUsers));
    job.meta.model = kind;
    job.meta.batch_size = 512;
    job.meta.total_steps =
        static_cast<uint64_t>(rng.UniformInt(kMinSteps, kMaxSteps));
    const double total_samples = static_cast<double>(job.meta.total_steps) *
                                 static_cast<double>(job.meta.batch_size);
    job.meta.declared_model_bytes =
        profile.dense_param_bytes + profile.EmbeddingBytesAt(total_samples);
    if (rng.Bernoulli(kNoisyMetadataFraction)) {
      job.meta.declared_model_bytes *= rng.LogNormal(1.0, 0.8);
    }

    job.spec.name = "trace-job-" + std::to_string(i);
    job.spec.model = kind;
    job.spec.batch_size = job.meta.batch_size;
    job.spec.total_steps = job.meta.total_steps;
    job.spec.seed = options_.seed * 1000003ull + static_cast<uint64_t>(i);

    job.hot_ps = rng.Bernoulli(kHotPsFraction);
    if (rng.Bernoulli(kSmallFraction)) {
      job.size_factor = rng.Uniform(0.2, 0.4);
    } else {
      job.size_factor = rng.Uniform(0.5, 1.0);
    }
    job.max_workers =
        std::max(4, static_cast<int>(40.0 * job.size_factor));
    job.arrival = rng.Uniform(0.0, options_.arrival_span);
    jobs.push_back(std::move(job));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const GeneratedJob& a, const GeneratedJob& b) {
              return a.arrival < b.arrival;
            });
  return jobs;
}

}  // namespace dlrover
