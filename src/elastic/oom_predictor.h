#ifndef DLROVER_ELASTIC_OOM_PREDICTOR_H_
#define DLROVER_ELASTIC_OOM_PREDICTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

namespace dlrover {

/// Predicts PS out-of-memory events (paper Section 5.3). Embedding-table
/// memory grows roughly linearly with consumed samples (Δφ_cats ∝ Ψ_thp·Δt),
/// so a windowed linear fit of memory-vs-time extrapolated to the job's
/// estimated completion time tells us whether the PS will blow its limit
/// before the job finishes — early enough to pre-scale its memory.
///
/// Samples live in a fixed-capacity ring buffer: once the window is warm,
/// Observe overwrites the oldest slot in place, so the steady-state
/// profile-tick path performs no heap allocation.
class OomPredictor {
 public:
  /// Feeds one memory-usage observation for the tracked PS.
  void Observe(SimTime now, Bytes used);

  /// Linear-trend slope in bytes/second over the window (0 if unknown).
  double SlopeBytesPerSec() const;

  /// Projected memory usage at `future_time` (clamped to be >= last sample).
  Bytes ProjectAt(SimTime future_time) const;

  /// Returns the recommended new memory limit if usage is projected to
  /// exceed `limit` (x headroom) before `completion_time`; nullopt when the
  /// current limit is safe.
  std::optional<Bytes> RecommendLimit(Bytes current_limit,
                                      SimTime completion_time) const;

 private:
  struct Sample {
    SimTime t;
    Bytes mem;
  };

  /// i-th oldest retained sample (0 = oldest). Iterating i ascending walks
  /// the window chronologically, matching the old deque front-to-back order
  /// (the least-squares sums depend on it bit-for-bit).
  const Sample& At(size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  std::vector<Sample> ring_;
  size_t head_ = 0;  // index of the oldest sample once the ring is full
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_OOM_PREDICTOR_H_
