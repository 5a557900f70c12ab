#ifndef DLROVER_CLUSTER_CLUSTER_H_
#define DLROVER_CLUSTER_CLUSTER_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/commit_log.h"
#include "cluster/node_health.h"
#include "cluster/placement_index.h"
#include "cluster/pod.h"
#include "cluster/resources.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/simulator.h"

namespace dlrover {

class ControlChannel;

/// A physical machine in the simulated cluster.
struct Node {
  NodeId id = 0;
  ResourceSpec capacity;
  ResourceSpec allocated;  // sum of requests of pods placed here
  /// Cordoned: excluded from placement and preemption while resident pods
  /// keep running (the node-health control plane fenced it off).
  bool cordoned = false;
  /// Draining: cordoned *and* the owner wants resident job pods migrated
  /// away (make-before-break, via TrainingJob::EvacuateDrainingPods).
  bool draining = false;
  /// Phantom node-local memory consumption (e.g. a kubelet leak) that is
  /// visible to per-node usage sampling but deliberately not part of the
  /// cluster usage totals: the leak is outside any pod's cgroup.
  Bytes usage_bias = 0.0;
  std::vector<PodId> pods;

  ResourceSpec Available() const { return capacity - allocated; }
};

/// Tunables for the cluster substrate.
struct ClusterOptions {
  int num_nodes = 20;
  ResourceSpec node_capacity{32.0, GiB(192)};
  /// Pod startup = image pull + container boot, sampled uniformly.
  Duration min_pod_startup = Seconds(25);
  Duration max_pod_startup = Seconds(60);
  uint64_t seed = 17;
  /// Checks the placement indexes against the scans they replace, and
  /// aborts on the first mismatch: every best-fit and victim decision is
  /// recomputed by an O(nodes) / O(nodes x pods log pods) reference scan,
  /// and after every index mutation the whole index is compared with a
  /// fresh scan of the node and pod state (O(nodes + pods) per check).
  /// Test builds only; works under NDEBUG since it is a runtime option.
  bool validate_placement_index = false;
  /// Livelock breaker: at most this many pods may be preempted at one
  /// simulated instant. A victim's stop callback can synchronously relaunch
  /// a replacement that steals the freed capacity before the preemptor
  /// claims it; since jobs relaunch immediately, that cycle never leaves the
  /// current instant and the simulation wedges at a frozen clock. Once the
  /// budget is spent, further preemption attempts fail (the preemptor goes
  /// pending) until simulated time advances. The ceiling is far above any
  /// same-instant cascade a terminating scenario produces, so results are
  /// unchanged except where the simulation previously hung forever.
  uint64_t max_preemptions_per_instant = 512;
  /// Enables the evidence-based node-health control plane: a
  /// NodeHealthTracker fed from pod-lifecycle callbacks plus a periodic
  /// classification tick that drains suspect nodes and uncordons recovered
  /// ones. Off by default — when off, no tracker exists, no periodic task is
  /// scheduled, and every sim trace is byte-identical to pre-feature builds.
  bool enable_node_health = false;
};

/// Aggregate utilisation sample used by experiment reporting.
struct ClusterUsage {
  double cpu_allocated_fraction = 0.0;  // allocated / capacity
  double cpu_used_fraction = 0.0;       // usage / capacity
  double mem_allocated_fraction = 0.0;
  double mem_used_fraction = 0.0;
  double cpu_used_of_allocated = 0.0;  // usage / allocated (job efficiency)
  double mem_used_of_allocated = 0.0;
};

/// A Kubernetes-like cluster: owns nodes and pods, places pods by best-fit
/// bin packing, keeps a priority-aware pending queue, and supports
/// preemption of lower-priority pods by higher-priority requests.
///
/// Every placement and victim decision is served by the PlacementIndex
/// (ordered free-capacity treap + per-node priority-bucketed pod
/// aggregates) and the running-pod index (RunningPodIndex). Their
/// contract is the plain scans: best fit is the uncordoned node
/// with the least CPU left after placement (lowest id on ties); victims come
/// from the first node, in id order, where evicting strictly lower-priority
/// pods, lowest priority first, frees enough room. Under
/// ClusterOptions::validate_placement_index each decision is recomputed by
/// those scans where it is made, so placements driven by the pending-queue
/// pump are checked too.
///
/// The DLRM system (per the paper, Section 2.1) has no control over the
/// cluster: it can only request pods and observe their lifecycle, which is
/// exactly the interface exposed here.
///
/// Pods live only in a slab, with the same slot + generation pattern as the
/// Simulator's events: a PodId encodes {slot+1, generation}, and lookup is
/// an O(1) array index that checks the id of the slot's tenant. A slot is
/// re-armed for a new pod, in place, only after its previous tenant
/// terminated. A terminated pod stays resolvable by its id until then; after
/// that the stale id safely resolves to null. So the cluster holds at most
/// the peak number of pods alive at once, not every pod ever created.
class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterOptions& options);

  /// Submits a pod. The pod starts Pending; placement is attempted
  /// immediately and retried periodically. Returns the pod id.
  PodId CreatePod(PodSpec spec, std::function<void(Pod&)> on_running,
                  std::function<void(Pod&, PodStopReason)> on_stopped);

  /// Owner-initiated deletion (scale-down / migration / job completion).
  /// `graceful_success` marks the pod Succeeded instead of Killed.
  void KillPod(PodId id, bool graceful_success = false);

  /// Crashes a running pod (failure injection / OOM). No-op if not running.
  void FailPod(PodId id, PodStopReason reason);

  /// Degrades a running pod's speed factor (straggler injection).
  void DegradePod(PodId id, double speed_factor);

  /// Fences a node off from scheduling: it leaves the placement index while
  /// resident pods keep running. Cordoned
  /// capacity stays in TotalCapacity but is reported through the commit log
  /// (Kind::kCordoned) so the fleet ledger sees it. Safe no-op if already
  /// cordoned.
  void CordonNode(NodeId id);
  /// CordonNode + marks the node draining: job masters migrate resident
  /// pods away make-before-break (see TrainingJob::EvacuateDrainingPods).
  void DrainNode(NodeId id);
  /// Lifts a cordon: the node rejoins placement and the pending
  /// queue gets a pump. Safe no-op if not cordoned.
  void UncordonNode(NodeId id);
  bool IsCordoned(NodeId id) const { return nodes_[id].cordoned; }
  bool IsDraining(NodeId id) const { return nodes_[id].draining; }

  /// Sets the node's phantom memory bias (leak injection). Not part of the
  /// cluster usage totals; only NodeMemUsedFraction sees it.
  void SetNodeUsageBias(NodeId id, Bytes bias) { nodes_[id].usage_bias = bias; }
  /// Fraction of the node's memory capacity consumed by resident pod usage
  /// plus the phantom bias. O(resident pods).
  double NodeMemUsedFraction(NodeId id) const;
  /// Fraction of the node's memory that no resident pod accounts for (node
  /// total minus the cgroup-attributed sum) — the system/kernel share. On a
  /// healthy node this stays flat; a creeping kernel or daemon leak shows up
  /// here without any workload-churn noise, which is what makes it the
  /// node-health leak signal.
  double NodeUnaccountedMemFraction(NodeId id) const;

  /// Evidence hook for job masters: the HeartbeatMonitor holds a straggler
  /// verdict against this pod, so charge its node. No-op unless the
  /// node-health control plane is enabled and the pod is running.
  void ReportStragglerEvidence(PodId id);
  /// Evidence hook for the degraded-PS blind spot (DESIGN §14/§15): `id` is
  /// a parameter-server pod of a job whose whole worker group slowed down
  /// uniformly (so intra-job median comparison stays blind); charge the PS
  /// pod's node with a ps-slowdown observation attributed to `source_job`.
  /// Distinct jobs corroborating the same node is the strong signal.
  void ReportPsSlowdownEvidence(PodId id, uint64_t source_job);
  bool node_health_enabled() const { return health_ != nullptr; }
  /// Node-health tracker, or null when the control plane is disabled.
  const NodeHealthTracker* health() const { return health_.get(); }
  /// Hands the tracker's transition log over (empty when disabled).
  std::vector<NodeHealthEvent> TakeHealthLog() {
    return health_ != nullptr ? health_->TakeLog()
                              : std::vector<NodeHealthEvent>();
  }
  /// Capacity of nodes currently cordoned.
  ResourceSpec CordonedCapacity() const { return cordoned_capacity_; }
  /// Capacity the brain should not propose plans against: cordoned nodes
  /// plus nodes the tracker currently classifies as Suspect.
  ResourceSpec QuarantinedCapacity() const;

  const Pod* GetPod(PodId id) const;
  Pod* GetMutablePod(PodId id);
  /// Visits every pod the slab holds: the live ones and the terminated ones
  /// whose slot has not been re-armed yet, in no particular order. A test
  /// observer; programs use VisitRunningPods.
  void VisitPods(const std::function<void(const Pod&)>& fn) const;
  /// Visits the *running* pods of one priority class in creation order,
  /// served from the running-pod index in O(matching pods).
  void VisitRunningPods(PriorityClass priority,
                        const std::function<void(const Pod&)>& fn) const;
  const Node& GetNode(NodeId id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Records live resource usage for a pod. Writes `pod.usage` and keeps the
  /// cluster-wide usage total in sync; all usage reports must go through
  /// here rather than mutating `pod.usage` directly.
  void ReportUsage(PodId id, const ResourceSpec& usage);

  /// Total cluster capacity across all nodes (cordoned ones included).
  ResourceSpec TotalCapacity() const { return capacity_total_; }
  /// Sum of requests of placed (Starting/Running) pods.
  ResourceSpec TotalAllocated() const { return allocated_total_; }
  /// Sum of live usage reported by running pods.
  ResourceSpec TotalUsage() const { return usage_total_; }
  ClusterUsage Usage() const;

  /// Number of pods waiting in the pending queue.
  size_t PendingCount() const { return pending_.size(); }

  /// True when free CPU is below the scarcity threshold (startup slows down).
  /// A cluster with zero capacity (a fleet cell can own no nodes) reports
  /// false: scarcity only slows down startups, and with no capacity nothing
  /// can start at all.
  bool UnderScarcity() const;

  /// Attaches an accounting commit log: from now on every capacity /
  /// allocated / usage total mutation also appends its delta, and the
  /// current totals are logged as the opening entries so a fold starting
  /// from zero reconstructs them exactly. The log must outlive the cluster
  /// (or be detached with nullptr).
  void set_commit_log(ClusterCommitLog* log);

  /// Attaches the control-plane message channel (null detaches). When set,
  /// job masters and the brain route heartbeats, shard reports, straggler
  /// verdicts, and scaling plans through it instead of direct calls; when
  /// null (the default) every control interaction stays an infallible
  /// in-memory call and traces are byte-identical to pre-channel builds.
  void set_control_channel(ControlChannel* channel) { control_ = channel; }
  ControlChannel* control_channel() const { return control_; }

  /// Monotonic counter bumped on every pod state mutation (placement,
  /// startup, termination, degradation, cordon). Lets callers cache
  /// derived state (e.g. the memoized iteration law in TrainingJob) and
  /// invalidate it precisely when any pod's phase or speed may have changed.
  uint64_t mutation_version() const { return mutation_version_; }

  Simulator* sim() { return sim_; }
  const ClusterOptions& options() const { return options_; }

  /// Lifetime counters for experiment reporting.
  struct Counters {
    uint64_t pods_created = 0;
    uint64_t pods_preempted = 0;
    uint64_t pods_failed = 0;
    uint64_t placements = 0;
    uint64_t nodes_cordoned = 0;
    uint64_t nodes_uncordoned = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  static PodId MakeId(uint32_t slot, uint32_t gen) {
    // slot+1 keeps every valid id nonzero (callers use 0 as "none").
    return (static_cast<uint64_t>(slot) + 1) << 32 | gen;
  }

  /// Appends an accounting delta to the attached commit log, if any.
  void LogDelta(ClusterCommitLog::Kind kind, const ResourceSpec& delta) {
    if (commit_log_ != nullptr && !delta.IsZero()) {
      commit_log_->Append(sim_->Now(), kind, delta);
    }
  }

  bool TryPlace(Pod& pod);
  bool TryPreemptFor(Pod& pod);
  /// Places pending pod `id`, preempting lower-priority pods if it does not
  /// fit, or appends it to `queue` if it is still pending afterwards.
  void PlaceOrQueue(PodId id, std::deque<PodId>* queue);
  /// Indexed victim search: fills `victims` (eviction order) for the first
  /// node that can make room for `pod` and returns true, or returns false.
  bool FindVictims(const Pod& pod, std::vector<PodId>* victims);
  /// Spends the per-instant budget and evicts `victims` in order. Returns
  /// `!victims.empty()`: a node that fits without evictions yields false.
  bool EvictVictims(const std::vector<PodId>& victims);
  /// Reference scans behind validate_placement_index: the O(nodes) best-fit
  /// scan (-1 when nothing fits) and the full victim fold over every node.
  int ScanBestFit(const ResourceSpec& request) const;
  bool ScanVictims(const Pod& pod, std::vector<PodId>* victims) const;
  /// Full cross-check of the placement/running indexes against a fresh scan
  /// (enabled by options_.validate_placement_index; aborts on mismatch).
  void ValidatePlacementIndex() const;
  [[noreturn]] static void DieOutOfSync(const char* what);
  void FinishStartup(PodId id);
  /// Periodic node-health pass: samples per-node memory fractions, ticks the
  /// tracker, and applies its cordon/uncordon actions (cordons drain).
  void HealthTick();
  void Terminate(Pod& pod, PodPhase phase, PodStopReason reason);
  void ReleaseFromNode(Pod& pod);
  void PumpPendingQueue();
  /// Slab lookup without const fuss; shared by GetPod/GetMutablePod.
  Pod* Resolve(PodId id) const;

  Simulator* sim_;
  ClusterOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  /// The pod slab: each slot owns its current tenant, whose id carries the
  /// slot's generation. Pods are heap-allocated once per slot, so pointers
  /// (the running index holds them) survive slab growth.
  std::vector<std::unique_ptr<Pod>> slots_;
  std::vector<uint32_t> free_slots_;
  /// O(log n) scheduling indexes.
  PlacementIndex placement_index_;
  RunningPodIndex running_index_;
  /// Creation ordinal source for Pod::creation_seq.
  uint64_t next_creation_seq_ = 0;
  /// Preemption scratch, reused across calls so the warm victim search does
  /// not allocate. `candidates` is fully consumed before any eviction
  /// callback can re-enter, so a single buffer suffices; the victim list is
  /// still live while callbacks run, so re-entrant preemptions take the next
  /// depth slot. A deque, because growing it at the back never moves the
  /// slots outer frames still hold.
  std::vector<std::pair<int, PodId>> preempt_candidates_;
  std::deque<std::vector<PodId>> victims_pool_;
  size_t preempt_depth_ = 0;
  std::deque<PodId> pending_;
  bool pumping_ = false;
  bool repump_ = false;
  // Per-instant preemption budget (see ClusterOptions). The instant tracker
  // starts negative so the first preemption at t=0 opens a fresh budget.
  SimTime preemption_instant_ = -1.0;
  uint64_t preempted_at_instant_ = 0;
  Counters counters_;
  uint64_t mutation_version_ = 0;
  ClusterCommitLog* commit_log_ = nullptr;
  ControlChannel* control_ = nullptr;
  /// Running totals behind TotalCapacity/TotalAllocated/TotalUsage.
  ResourceSpec capacity_total_;
  ResourceSpec allocated_total_;
  ResourceSpec usage_total_;
  /// Capacity of nodes currently cordoned (mirrors the kCordoned
  /// commit-log stream).
  ResourceSpec cordoned_capacity_;
  std::unique_ptr<PeriodicTask> pump_task_;
  /// Node-health control plane; both null unless enable_node_health (so the
  /// disabled configuration schedules no extra events).
  std::unique_ptr<NodeHealthTracker> health_;
  std::unique_ptr<PeriodicTask> health_task_;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_CLUSTER_H_
