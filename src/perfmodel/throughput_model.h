#ifndef DLROVER_PERFMODEL_THROUGHPUT_MODEL_H_
#define DLROVER_PERFMODEL_THROUGHPUT_MODEL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ps/job_config.h"

namespace dlrover {

/// Fitted parameters of the resource-performance model (paper Eqn 6).
/// All are constrained non-negative (the paper fits them with NNLS).
struct PerfModelParams {
  double alpha_grad = 0.0;
  double alpha_upd = 0.0;
  double alpha_sync = 0.0;
  double alpha_emb = 0.0;
  /// Combined constant term (the paper reports "the sum of beta").
  double beta_sum = 0.0;

  std::string ToString() const;
};

/// One runtime observation: the configuration a job ran with and the
/// iteration time the profiler measured.
struct PerfObservation {
  uint64_t batch_size = 512;
  int workers = 1;
  int ps = 1;
  Cores worker_cpu = 1.0;
  Cores ps_cpu = 1.0;
  double iter_time = 0.0;  // seconds
};

/// The resource-performance model of one job (paper Section 4.1):
///
///   T_iter = a_grad * (m / lw) + a_upd * (w / (p * lp))
///          + a_sync * ((M/p) / (B/w)) + a_emb * (m * D / p) + beta
///   Psi    = w * m / T_iter
///
/// Job-level constants M (dense model bytes), D (embedding dim) and B
/// (bandwidth) are fixed at construction; the alphas/beta are fitted online.
class ThroughputModel {
 public:
  ThroughputModel(Bytes dense_param_bytes, int embedding_dim,
                  Bandwidth network_bandwidth)
      : dense_param_bytes_(dense_param_bytes),
        embedding_dim_(embedding_dim),
        bandwidth_(network_bandwidth) {}

  /// The model's linear basis evaluated at a configuration:
  /// [m/lw, w/(p*lp), M*w/(p*B), m*D/p, 1].
  std::array<double, 5> Features(uint64_t batch_size, int workers, int ps,
                                 Cores worker_cpu, Cores ps_cpu) const;

  double PredictIterTime(const PerfModelParams& params, uint64_t batch_size,
                         const JobConfig& config) const;
  double PredictThroughput(const PerfModelParams& params, uint64_t batch_size,
                           const JobConfig& config) const;

  Bytes dense_param_bytes() const { return dense_param_bytes_; }
  int embedding_dim() const { return embedding_dim_; }
  Bandwidth bandwidth() const { return bandwidth_; }

 private:
  Bytes dense_param_bytes_;
  int embedding_dim_;
  Bandwidth bandwidth_;
};

/// Accumulates profiler observations and fits the model with non-negative
/// least squares. Rows are weighted by 1/(1+T) so the linear NNLS objective
/// approximates the paper's RMSLE criterion
/// (d log1p(T) = dT / (1+T), so weighted absolute error ~ log error).
class ModelFitter {
 public:
  explicit ModelFitter(const ThroughputModel& model) : model_(model) {}

  void AddObservation(const PerfObservation& obs);
  /// Drops all but the newest `n` observations.
  void KeepNewest(size_t n) {
    if (observations_.size() > n) {
      observations_.erase(observations_.begin(),
                          observations_.end() - static_cast<long>(n));
    }
  }
  size_t observation_count() const { return observations_.size(); }
  const std::vector<PerfObservation>& observations() const {
    return observations_;
  }

  /// True when enough diverse observations exist for a meaningful fit.
  bool ReadyToFit() const;

  /// Fits the non-negative parameters. Returns kFailedPrecondition when the
  /// data is insufficient or degenerate.
  StatusOr<PerfModelParams> Fit() const;

  /// RMSLE of `params` against the stored observations.
  double EvaluateRmsle(const PerfModelParams& params) const;
  /// R^2 of predicted iteration times against observed ones.
  double EvaluateRSquared(const PerfModelParams& params) const;

 private:
  ThroughputModel model_;
  std::vector<PerfObservation> observations_;
};

}  // namespace dlrover

#endif  // DLROVER_PERFMODEL_THROUGHPUT_MODEL_H_
