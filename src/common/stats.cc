#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace dlrover {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
}

void Distribution::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double Distribution::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double Distribution::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double Distribution::min() const {
  assert(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Distribution::max() const {
  assert(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

void Distribution::EnsureSorted() const {
  if (sorted_) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_ = true;
}

double Distribution::Percentile(double pct) const {
  assert(!samples_.empty());
  EnsureSorted();
  if (samples_.size() == 1) return samples_[0];
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Distribution::CdfAt(double x) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::string Distribution::Summary() const {
  if (samples_.empty()) return "(empty)";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
                samples_.size(), mean(), Percentile(50), Percentile(90),
                Percentile(99), max());
  return buf;
}

double Rmsle(const std::vector<double>& predicted,
             const std::vector<double>& actual) {
  assert(predicted.size() == actual.size() && !predicted.empty());
  double acc = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    const double d = std::log1p(predicted[i]) - std::log1p(actual[i]);
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(predicted.size()));
}

double RSquared(const std::vector<double>& predicted,
                const std::vector<double>& actual) {
  assert(predicted.size() == actual.size() && !predicted.empty());
  const double mean =
      std::accumulate(actual.begin(), actual.end(), 0.0) /
      static_cast<double>(actual.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - mean) * (actual[i] - mean);
  }
  if (ss_tot <= std::numeric_limits<double>::min()) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace dlrover
