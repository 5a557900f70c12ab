#ifndef DLROVER_CLUSTER_POD_H_
#define DLROVER_CLUSTER_POD_H_

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/resources.h"
#include "common/units.h"

namespace dlrover {

using PodId = uint64_t;
using NodeId = uint32_t;

/// Pod lifecycle. Pending -> Starting (image pull / container boot) ->
/// Running -> one of the terminal states.
enum class PodPhase : int {
  kPending = 0,
  kStarting = 1,
  kRunning = 2,
  kSucceeded = 3,
  kFailed = 4,     // crashed (node/network fault or OOM-kill)
  kPreempted = 5,  // evicted for a higher-priority pod
  kKilled = 6,     // deleted by its owner (scale-down, migration)
};

/// Why a pod left the Running state; delivered to the owner's callback.
enum class PodStopReason : int {
  kCompleted = 0,
  kCrash = 1,
  kOomKill = 2,
  kPreemption = 3,
  kOwnerKill = 4,
};

/// Immutable description the owner supplies when creating a pod.
struct PodSpec {
  std::string name;
  ResourceSpec request;
  PriorityClass priority = PriorityClass::kTraining;
  /// Identifier of the owning job (0 = standalone / background).
  uint64_t owner_job = 0;
};

/// A pod instance tracked by the cluster. Owners interact through Cluster
/// (CreatePod/KillPod) and observe transitions via callbacks.
struct Pod {
  PodId id = 0;
  PodSpec spec;
  PodPhase phase = PodPhase::kPending;
  NodeId node = 0;  // valid once phase >= kStarting
  /// Monotonic creation ordinal assigned by the cluster. Unlike PodId it is
  /// never recycled, so the running-pod index keyed on it visits pods in
  /// creation order.
  uint64_t creation_seq = 0;

  SimTime submit_time = 0.0;
  SimTime start_time = -1.0;  // entered kRunning
  SimTime end_time = -1.0;    // entered a terminal phase

  /// Effective speed multiplier (node heterogeneity x straggler injection).
  /// 1.0 = nominal hardware; 0.03 models the paper's "3% CPU" straggler.
  double speed_factor = 1.0;

  /// Live usage set by the owning job each profiling tick; the cluster sums
  /// these for utilisation metrics. Usage never exceeds the request.
  ResourceSpec usage{};

  /// Fired when the pod transitions to kRunning.
  std::function<void(Pod&)> on_running;
  /// Fired when the pod leaves kRunning (or is cancelled while pending).
  std::function<void(Pod&, PodStopReason)> on_stopped;

  bool terminal() const {
    return phase == PodPhase::kSucceeded || phase == PodPhase::kFailed ||
           phase == PodPhase::kPreempted || phase == PodPhase::kKilled;
  }
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_POD_H_
