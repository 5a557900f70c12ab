#ifndef DLROVER_PS_JOB_CONFIG_H_
#define DLROVER_PS_JOB_CONFIG_H_

#include <string>

#include "cluster/resources.h"
#include "common/units.h"

namespace dlrover {

/// A complete resource allocation A for one PS-architecture training job:
/// horizontal (worker / PS counts) plus vertical (per-pod CPU and memory).
/// This is the decision vector the optimizer searches over.
struct JobConfig {
  int num_workers = 4;
  int num_ps = 1;
  Cores worker_cpu = 4.0;
  Cores ps_cpu = 4.0;
  Bytes worker_memory = GiB(4);
  Bytes ps_memory = GiB(16);

  /// Total CPU cores requested by this allocation.
  Cores TotalCpu() const {
    return num_workers * worker_cpu + num_ps * ps_cpu;
  }
  /// Total memory requested by this allocation.
  Bytes TotalMemory() const {
    return num_workers * worker_memory + num_ps * ps_memory;
  }
  ResourceSpec TotalResources() const { return {TotalCpu(), TotalMemory()}; }

  ResourceSpec WorkerRequest() const { return {worker_cpu, worker_memory}; }
  ResourceSpec PsRequest() const { return {ps_cpu, ps_memory}; }

  bool operator==(const JobConfig&) const = default;

  std::string ToString() const;
};

}  // namespace dlrover

#endif  // DLROVER_PS_JOB_CONFIG_H_
