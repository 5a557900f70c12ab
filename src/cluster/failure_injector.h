#ifndef DLROVER_CLUSTER_FAILURE_INJECTOR_H_
#define DLROVER_CLUSTER_FAILURE_INJECTOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace dlrover {

/// Ground-truth label for one injected fault. Pod-scoped kinds target a
/// PodId; node-scoped grey kinds target a NodeId.
enum class FaultKind : int {
  kPodCrash = 0,       // single running pod crashed
  kPodStraggler = 1,   // single running pod degraded to straggler speed
  kFlakyNode = 2,      // intermittent pod crashes on one node
  kDegradedNode = 3,   // node speed factor applied to every resident pod
  kMemoryLeak = 4,     // creeping node usage until resident pods OOM
  kCrashLoop = 5,      // pods (re)launched on the node die within seconds
  kNodePartition = 6,  // node's control traffic severed from its master
  kCellPartition = 7,  // masters severed from the cluster brain
  kMasterCrash = 8,    // one job master's process killed (failover path)
};

/// One audit-log entry: the labeled ground truth the resilience scorecard
/// compares detections against. Deterministic for a fixed seed regardless of
/// sharded-simulator lane count (each cell's injector draws from its own
/// stream).
struct FaultRecord {
  SimTime time = 0.0;      // onset
  FaultKind kind = FaultKind::kPodCrash;
  uint64_t target = 0;     // PodId for pod kinds, NodeId for node kinds
  /// The afflicted node (== target for node kinds; the victim pod's node
  /// for pod kinds) — lets scorecards localize pod-scoped injections.
  uint64_t node = 0;
  Duration duration = 0.0;  // 0 for instantaneous pod kinds
  /// Observable effects the fault actually produced (crashes, OOM kills,
  /// degraded pods). A grey fault on an idle node manifests nothing and is
  /// excluded from recall denominators.
  uint64_t symptoms = 0;

  bool operator==(const FaultRecord&) const = default;
};

/// Tunables for cloud-instability injection. Defaults reproduce the paper's
/// observed 1.5% daily per-pod failure probability. The node-scoped
/// grey-fault rates all default to 0: with them at 0 the injector draws
/// exactly the same RNG sequence as before they existed, so every
/// pre-existing bench golden is byte-identical. The fixed fault shapes
/// (straggler and degraded speeds, leak rate, fault durations) are
/// constants in failure_injector.cc.
struct FailureInjectorOptions {
  /// Poisson rate of failures per pod per day (the paper observes 1.5%
  /// daily for a single pod; fleet benches compress exposure upward).
  double daily_pod_failure_rate = 0.015;
  /// Poisson rate of straggler onsets per pod per day.
  double daily_straggler_rate = 0.0;
  uint64_t seed = 97;

  // ---- Node-scoped grey faults (all rates per node per day) ----
  double daily_node_flaky_rate = 0.0;
  double daily_node_degraded_rate = 0.0;
  double daily_node_leak_rate = 0.0;
  /// Crash loop: any target pod that entered Running on the node after fault
  /// onset dies within one sweep of starting.
  double daily_node_crashloop_rate = 0.0;

  // ---- Control-plane faults (require an attached ControlChannel) ----
  /// Node partition: the node's heartbeats / shard reports to the master are
  /// dropped for the fault duration (rate per node per day).
  double daily_node_partition_rate = 0.0;
  /// Cell partition: every master<->brain message is dropped for the fault
  /// duration (rate per cell per day).
  double daily_cell_partition_rate = 0.0;
  /// Master crash: one live registered job master is killed; the channel's
  /// failover machinery restarts it with a bumped epoch (rate per master per
  /// day).
  double daily_master_crash_rate = 0.0;
};

/// Periodically sweeps running pods and injects crashes / stragglers with
/// per-sweep probabilities derived from the configured daily rates, modeling
/// the memoryless failure process of a shared cloud. With any node-scoped
/// rate above zero it also maintains node-level grey faults (flaky, degraded,
/// leaking, crash-looping nodes) with bounded durations, and records every
/// injected fault in a ground-truth audit log.
class FailureInjector {
 public:
  FailureInjector(Simulator* sim, Cluster* cluster,
                  const FailureInjectorOptions& options);

  void Start();
  void Stop();

  /// Attaches the control channel the control-plane fault kinds act on. With
  /// no channel attached (or every control rate at 0) the control sweep never
  /// runs and the injector's RNG sequence is unchanged.
  void set_control_channel(ControlChannel* channel) { channel_ = channel; }

  uint64_t crashes_injected() const { return crashes_; }
  uint64_t stragglers_injected() const { return stragglers_; }
  uint64_t node_faults_injected() const { return node_faults_; }
  uint64_t control_faults_injected() const { return control_faults_; }
  /// Ground-truth audit log, in injection order. Node-fault entries update
  /// their `symptoms` count in place while the fault stays active.
  const std::vector<FaultRecord>& fault_log() const { return fault_log_; }
  /// Hands the audit log over once injection is over, leaving the
  /// injector's empty.
  std::vector<FaultRecord> TakeFaultLog() { return std::move(fault_log_); }

 private:
  /// One active node-scoped fault. `record` indexes fault_log_.
  struct ActiveFault {
    FaultKind kind = FaultKind::kFlakyNode;
    NodeId node = 0;
    SimTime start = 0.0;
    SimTime end = 0.0;
    Bytes leak_bias = 0.0;
    size_t record = 0;
  };

  /// One active control-plane fault being tracked for symptom attribution.
  /// The partition itself lives inside the channel; this entry only follows
  /// the channel's partition-drop counters so the audit record's `symptoms`
  /// reflects messages the partition actually suppressed.
  struct ActiveControlFault {
    FaultKind kind = FaultKind::kNodePartition;
    NodeId node = 0;
    SimTime end = 0.0;
    uint64_t drops_at_start = 0;
    size_t record = 0;
  };

  void Sweep();
  /// Grey-fault pass: expire ended faults, apply active effects, draw new
  /// onsets. Only called when some node rate is > 0, so the base
  /// configuration draws no extra randomness.
  void GreySweep(double dt_days);
  /// Control-plane pass: partitions and master crashes against the attached
  /// channel. Only called when a channel is attached and some control rate is
  /// > 0, so non-control configurations draw no extra randomness.
  void ControlSweep(double dt_days);
  void ExpireFault(const ActiveFault& fault);
  void ApplyFault(ActiveFault& fault);
  bool NodeHasRunningTarget(NodeId node) const;

  Simulator* sim_;
  Cluster* cluster_;
  FailureInjectorOptions options_;
  Rng rng_;
  bool grey_enabled_ = false;
  bool control_enabled_ = false;
  ControlChannel* channel_ = nullptr;
  uint64_t crashes_ = 0;
  uint64_t stragglers_ = 0;
  uint64_t node_faults_ = 0;
  uint64_t control_faults_ = 0;
  /// Victim scratch reused across sweeps (warm sweeps are allocation-free).
  std::vector<PodId> to_crash_;
  std::vector<PodId> to_degrade_;
  std::vector<ActiveFault> active_faults_;
  std::vector<ActiveControlFault> active_control_;
  /// Per-node "has an active grey fault" flags (at most one fault per node).
  std::vector<uint8_t> node_afflicted_;
  std::vector<FaultRecord> fault_log_;
  std::unique_ptr<PeriodicTask> task_;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_FAILURE_INJECTOR_H_
