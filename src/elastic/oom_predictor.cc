#include "elastic/oom_predictor.h"

#include <algorithm>

namespace dlrover {
namespace {
/// Number of recent (time, memory) samples used for the trend fit.
constexpr size_t kWindow = 24;
/// Safety headroom: predict OOM when projected usage exceeds
/// limit * kHeadroomFraction.
constexpr double kHeadroomFraction = 0.9;
/// Recommended new limit = projected peak * kOverprovisionFactor.
constexpr double kOverprovisionFactor = 1.15;
/// Minimum samples before predictions are made.
constexpr size_t kMinSamples = 4;
}  // namespace

void OomPredictor::Observe(SimTime now, Bytes used) {
  if (ring_.size() < kWindow) {
    // Warm-up: grow until the window is full; head_ stays at 0 so insertion
    // order is chronological order.
    ring_.push_back({now, used});
    return;
  }
  // Full: overwrite the oldest slot in place — no allocation.
  ring_[head_] = {now, used};
  head_ = (head_ + 1) % kWindow;
}

double OomPredictor::SlopeBytesPerSec() const {
  if (ring_.size() < kMinSamples) return 0.0;
  // Ordinary least squares slope of mem over time.
  double mean_t = 0.0;
  double mean_m = 0.0;
  const size_t n_samples = ring_.size();
  for (size_t i = 0; i < n_samples; ++i) {
    const Sample& s = At(i);
    mean_t += s.t;
    mean_m += s.mem;
  }
  const double n = static_cast<double>(n_samples);
  mean_t /= n;
  mean_m /= n;
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < n_samples; ++i) {
    const Sample& s = At(i);
    num += (s.t - mean_t) * (s.mem - mean_m);
    den += (s.t - mean_t) * (s.t - mean_t);
  }
  if (den <= 0.0) return 0.0;
  return num / den;
}

Bytes OomPredictor::ProjectAt(SimTime future_time) const {
  if (ring_.empty()) return 0.0;
  const Sample& last = At(ring_.size() - 1);
  const double slope = std::max(0.0, SlopeBytesPerSec());
  const double horizon = std::max(0.0, future_time - last.t);
  return last.mem + slope * horizon;
}

std::optional<Bytes> OomPredictor::RecommendLimit(
    Bytes current_limit, SimTime completion_time) const {
  if (ring_.size() < kMinSamples) return std::nullopt;
  const Bytes projected = ProjectAt(completion_time);
  if (projected <= current_limit * kHeadroomFraction) {
    return std::nullopt;
  }
  return projected * kOverprovisionFactor;
}

}  // namespace dlrover
