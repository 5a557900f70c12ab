#ifndef DLROVER_CLUSTER_RESOURCES_H_
#define DLROVER_CLUSTER_RESOURCES_H_

#include <algorithm>
#include <string>

#include "common/units.h"

namespace dlrover {

/// A bundle of schedulable resources (CPU cores + memory bytes). This is the
/// granularity at which pods request and nodes offer capacity.
struct ResourceSpec {
  Cores cpu = 0.0;
  Bytes memory = 0.0;

  ResourceSpec operator+(const ResourceSpec& o) const {
    return {cpu + o.cpu, memory + o.memory};
  }
  ResourceSpec operator-(const ResourceSpec& o) const {
    return {cpu - o.cpu, memory - o.memory};
  }
  ResourceSpec& operator+=(const ResourceSpec& o) {
    cpu += o.cpu;
    memory += o.memory;
    return *this;
  }
  ResourceSpec& operator-=(const ResourceSpec& o) {
    cpu -= o.cpu;
    memory -= o.memory;
    return *this;
  }
  ResourceSpec operator*(double k) const { return {cpu * k, memory * k}; }

  /// True if this request fits inside `capacity` (component-wise), with a
  /// tiny epsilon so accumulated float error never blocks a legal placement.
  bool FitsIn(const ResourceSpec& capacity) const {
    constexpr double kEps = 1e-9;
    return cpu <= capacity.cpu + kEps && memory <= capacity.memory + kEps;
  }

  bool IsZero() const { return cpu == 0.0 && memory == 0.0; }

  std::string ToString() const;
};

/// Pod priority classes; higher wins. The cluster preempts lower-priority
/// pods when a higher-priority request cannot be placed (the paper's
/// "workload consolidation" pressure on training jobs).
enum class PriorityClass : int {
  kBestEffort = 0,
  kTraining = 10,
  kStream = 50,
  kOnline = 100,
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_RESOURCES_H_
