#include "perfmodel/throughput_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/matrix.h"
#include "common/stats.h"

namespace dlrover {

std::string PerfModelParams::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{a_grad=%.4g, a_upd=%.4g, a_sync=%.4g, a_emb=%.4g, "
                "beta=%.4g}",
                alpha_grad, alpha_upd, alpha_sync, alpha_emb, beta_sum);
  return buf;
}

std::array<double, 5> ThroughputModel::Features(uint64_t batch_size,
                                                int workers, int ps,
                                                Cores worker_cpu,
                                                Cores ps_cpu) const {
  const double m = static_cast<double>(batch_size);
  const double w = std::max(1, workers);
  const double p = std::max(1, ps);
  // Saturate at TF's op parallelism limits, mirroring the runtime laws.
  const double lw = std::min(std::max(0.1, worker_cpu), 12.0);
  const double lp = std::min(std::max(0.1, ps_cpu), 10.0);
  return {
      m / lw,
      w / (p * lp),
      dense_param_bytes_ * w / (p * bandwidth_),
      m * static_cast<double>(embedding_dim_) / p,
      1.0,
  };
}

double ThroughputModel::PredictIterTime(const PerfModelParams& params,
                                        uint64_t batch_size,
                                        const JobConfig& config) const {
  const auto f = Features(batch_size, config.num_workers, config.num_ps,
                          config.worker_cpu, config.ps_cpu);
  return params.alpha_grad * f[0] + params.alpha_upd * f[1] +
         params.alpha_sync * f[2] + params.alpha_emb * f[3] +
         params.beta_sum * f[4];
}

double ThroughputModel::PredictThroughput(const PerfModelParams& params,
                                          uint64_t batch_size,
                                          const JobConfig& config) const {
  const double t = PredictIterTime(params, batch_size, config);
  if (t <= 0.0) return 0.0;
  return static_cast<double>(config.num_workers) *
         static_cast<double>(batch_size) / t;
}

void ModelFitter::AddObservation(const PerfObservation& obs) {
  if (obs.iter_time <= 0.0) return;  // paused / stalled windows carry no info
  observations_.push_back(obs);
}

bool ModelFitter::ReadyToFit() const {
  if (observations_.size() < 6) return false;
  // Require at least two distinct configurations (any decision variable
  // counts); with a single configuration every basis column is collinear
  // with the constant term and the fit is meaningless.
  const PerfObservation& first = observations_.front();
  return std::any_of(observations_.begin() + 1, observations_.end(),
                     [&first](const PerfObservation& o) {
                       return o.workers != first.workers ||
                              o.ps != first.ps ||
                              o.worker_cpu != first.worker_cpu ||
                              o.ps_cpu != first.ps_cpu;
                     });
}

StatusOr<PerfModelParams> ModelFitter::Fit() const {
  if (observations_.size() < 5) {
    return FailedPreconditionError("not enough observations to fit");
  }
  Matrix a(observations_.size(), 5);
  std::vector<double> b(observations_.size());
  for (size_t i = 0; i < observations_.size(); ++i) {
    const PerfObservation& o = observations_[i];
    const auto f = model_.Features(o.batch_size, o.workers, o.ps,
                                   o.worker_cpu, o.ps_cpu);
    // Weight each row by 1/(1+T): linearized RMSLE (see header).
    const double weight = 1.0 / (1.0 + o.iter_time);
    for (size_t j = 0; j < 5; ++j) a(i, j) = f[j] * weight;
    b[i] = o.iter_time * weight;
  }
  auto solved = NnlsSolve(a, b);
  if (!solved.ok()) return solved.status();
  const std::vector<double>& x = *solved;
  PerfModelParams params;
  params.alpha_grad = x[0];
  params.alpha_upd = x[1];
  params.alpha_sync = x[2];
  params.alpha_emb = x[3];
  params.beta_sum = x[4];
  return params;
}

double ModelFitter::EvaluateRmsle(const PerfModelParams& params) const {
  if (observations_.empty()) return 0.0;
  std::vector<double> predicted;
  std::vector<double> actual;
  predicted.reserve(observations_.size());
  actual.reserve(observations_.size());
  for (const auto& o : observations_) {
    JobConfig config;
    config.num_workers = o.workers;
    config.num_ps = o.ps;
    config.worker_cpu = o.worker_cpu;
    config.ps_cpu = o.ps_cpu;
    predicted.push_back(model_.PredictIterTime(params, o.batch_size, config));
    actual.push_back(o.iter_time);
  }
  return Rmsle(predicted, actual);
}

double ModelFitter::EvaluateRSquared(const PerfModelParams& params) const {
  if (observations_.empty()) return 0.0;
  std::vector<double> predicted;
  std::vector<double> actual;
  for (const auto& o : observations_) {
    JobConfig config;
    config.num_workers = o.workers;
    config.num_ps = o.ps;
    config.worker_cpu = o.worker_cpu;
    config.ps_cpu = o.ps_cpu;
    predicted.push_back(model_.PredictIterTime(params, o.batch_size, config));
    actual.push_back(o.iter_time);
  }
  return RSquared(predicted, actual);
}

}  // namespace dlrover
