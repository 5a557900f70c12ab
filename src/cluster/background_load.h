#ifndef DLROVER_CLUSTER_BACKGROUND_LOAD_H_
#define DLROVER_CLUSTER_BACKGROUND_LOAD_H_

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace dlrover {

/// Options for the co-located high-priority workload (online serving, stream
/// processing) that shares the cluster with DLRM training. Spikes in this
/// load preempt training pods — the paper's main source of cloud
/// instability.
struct BackgroundLoadOptions {
  /// Baseline fraction of cluster CPU held by high-priority services.
  double base_fraction = 0.18;
  /// Peak additional fraction during diurnal peaks.
  double peak_fraction = 0.12;
  uint64_t seed = 4242;
};

/// Drives a diurnal high-priority workload: target share =
/// base + peak * max(0, sin(2*pi*t/day)) plus noise; the controller adds
/// or removes pods to track it. Because these pods outrank training pods,
/// rising load preempts training workers exactly as in the paper's cloud.
class BackgroundLoad {
 public:
  /// The one priority class of every background pod.
  static constexpr PriorityClass kPriority = PriorityClass::kOnline;

  BackgroundLoad(Simulator* sim, Cluster* cluster,
                 const BackgroundLoadOptions& options);

  void Start();
  void Stop();

  /// Current target fraction of cluster CPU.
  double TargetFraction() const;
  size_t ActivePods() const { return pods_.size(); }

 private:
  void Reconcile();

  Simulator* sim_;
  Cluster* cluster_;
  BackgroundLoadOptions options_;
  Rng rng_;
  std::vector<PodId> pods_;
  /// Ids whose stop callback fired since the last reconcile; compacted out
  /// of `pods_` in one stable pass instead of re-resolving every live id
  /// each tick. Both vectors are reused across ticks (warm reconciles are
  /// allocation-free in the controller itself).
  std::vector<PodId> dead_;
  std::unique_ptr<PeriodicTask> task_;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_BACKGROUND_LOAD_H_
