#include "cluster/background_load.h"

#include <algorithm>
#include <cmath>

namespace dlrover {
namespace {
/// Diurnal period: one simulated day.
constexpr Duration kPeriod = Days(1);
/// Size of each background pod.
constexpr ResourceSpec kPodSize{8.0, GiB(32)};
/// How often the controller reconciles toward the target load.
constexpr Duration kReconcileInterval = Minutes(10);
}  // namespace

BackgroundLoad::BackgroundLoad(Simulator* sim, Cluster* cluster,
                               const BackgroundLoadOptions& options)
    : sim_(sim), cluster_(cluster), options_(options), rng_(options.seed) {
  task_ = std::make_unique<PeriodicTask>(sim_, kReconcileInterval,
                                         [this] { Reconcile(); });
}

void BackgroundLoad::Start() { task_->Start(); }

void BackgroundLoad::Stop() {
  task_->Stop();
  for (PodId id : pods_) cluster_->KillPod(id);
  pods_.clear();
  dead_.clear();
}

double BackgroundLoad::TargetFraction() const {
  const double phase = 2.0 * M_PI * sim_->Now() / kPeriod;
  const double diurnal = std::max(0.0, std::sin(phase));
  return std::clamp(options_.base_fraction + options_.peak_fraction * diurnal,
                    0.0, 0.95);
}

void BackgroundLoad::Reconcile() {
  // Drop references to pods that terminated (preempted pods of ours cannot
  // exist — we are top priority — but owner kills can race). Every pod's
  // stop callback records its id in `dead_`, so one stable in-place pass
  // removes exactly the pods the old resolve-every-id loop filtered out,
  // in the same order, without allocating once the vectors are warm.
  if (!dead_.empty()) {
    pods_.erase(std::remove_if(pods_.begin(), pods_.end(),
                               [this](PodId id) {
                                 return std::find(dead_.begin(), dead_.end(),
                                                  id) != dead_.end();
                               }),
                pods_.end());
    dead_.clear();
  }

  const double jitter = 1.0 + 0.05 * rng_.Normal();
  const double target_cpu =
      TargetFraction() * jitter * cluster_->TotalCapacity().cpu;
  const double have_cpu =
      static_cast<double>(pods_.size()) * kPodSize.cpu;

  if (have_cpu < target_cpu - kPodSize.cpu) {
    const int to_add = static_cast<int>(
        (target_cpu - have_cpu) / kPodSize.cpu);
    for (int i = 0; i < to_add; ++i) {
      PodSpec spec;
      spec.name = "bg-service";
      spec.request = kPodSize;
      spec.priority = kPriority;
      const PodId id = cluster_->CreatePod(
          std::move(spec),
          [this](Pod& pod) {
            // Online service pods run hot: report near-full usage.
            cluster_->ReportUsage(pod.id, pod.spec.request * 0.8);
          },
          [this](Pod& pod, PodStopReason) { dead_.push_back(pod.id); });
      pods_.push_back(id);
    }
  } else if (have_cpu > target_cpu + kPodSize.cpu) {
    int to_remove = static_cast<int>(
        (have_cpu - target_cpu) / kPodSize.cpu);
    while (to_remove-- > 0 && !pods_.empty()) {
      cluster_->KillPod(pods_.back());
      pods_.pop_back();
    }
  }
}

}  // namespace dlrover
