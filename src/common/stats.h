#ifndef DLROVER_COMMON_STATS_H_
#define DLROVER_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dlrover {

/// Online count/mean/min/max accumulator (Welford-style running mean).
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects raw samples and answers percentile / CDF queries. Intended for
/// experiment reporting (JCT distributions etc.), so it keeps all samples.
class Distribution {
 public:
  void Add(double x);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;

  /// Percentile in [0, 100] with linear interpolation. Requires non-empty.
  double Percentile(double pct) const;
  double Median() const { return Percentile(50.0); }

  /// Fraction of samples <= x.
  double CdfAt(double x) const;

  /// The samples. Queries may reorder them: Percentile, CdfAt, Median and
  /// Summary sort them in place, even on a const Distribution.
  const std::vector<double>& samples() const { return samples_; }

  /// Short textual summary: count/mean/p50/p90/p99/max.
  std::string Summary() const;

 private:
  void EnsureSorted() const;

  /// Sorted lazily by the const queries, hence mutable.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Root mean squared logarithmic error between predictions and targets.
/// Both inputs must be the same non-zero length; values must be > -1.
double Rmsle(const std::vector<double>& predicted,
             const std::vector<double>& actual);

/// Coefficient of determination (R^2) of predictions vs. actuals.
double RSquared(const std::vector<double>& predicted,
                const std::vector<double>& actual);

}  // namespace dlrover

#endif  // DLROVER_COMMON_STATS_H_
