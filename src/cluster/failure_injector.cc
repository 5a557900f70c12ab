#include "cluster/failure_injector.h"

#include <cmath>
#include <vector>

#include "cluster/control_channel.h"

namespace dlrover {
namespace {
/// Speed factor applied to straggler pods (paper: 3% of tuned CPU).
constexpr double kStragglerSpeedFactor = 0.03;
/// Check interval for injection sweeps.
constexpr Duration kSweepInterval = Minutes(1);
/// Injection is restricted to pods of this priority class (training pods).
constexpr PriorityClass kTargetPriority = PriorityClass::kTraining;
/// Flaky node: each resident running target pod crashes with this
/// probability per sweep while the fault is active.
constexpr double kFlakyCrashProb = 0.30;
/// Degraded node: every resident pod is slowed to this factor for the fault
/// duration (speed restored to nominal on expiry).
constexpr double kDegradedSpeedFactor = 0.25;
/// Memory leak: phantom node usage creeps at kLeakRatePerMin until the
/// node's used-memory fraction exceeds kLeakOomFraction, after which one
/// resident target pod is OOM-killed per sweep.
constexpr Bytes kLeakRatePerMin = GiB(4);
constexpr double kLeakOomFraction = 0.92;
/// Grey-fault duration, sampled uniformly at onset.
constexpr Duration kGreyMinDuration = Minutes(20);
constexpr Duration kGreyMaxDuration = Minutes(60);
/// Partition duration, sampled uniformly at onset.
constexpr Duration kPartitionMinDuration = Minutes(2);
constexpr Duration kPartitionMaxDuration = Minutes(8);
}  // namespace

FailureInjector::FailureInjector(Simulator* sim, Cluster* cluster,
                                 const FailureInjectorOptions& options)
    : sim_(sim), cluster_(cluster), options_(options), rng_(options.seed) {
  grey_enabled_ = options_.daily_node_flaky_rate > 0.0 ||
                  options_.daily_node_degraded_rate > 0.0 ||
                  options_.daily_node_leak_rate > 0.0 ||
                  options_.daily_node_crashloop_rate > 0.0;
  control_enabled_ = options_.daily_node_partition_rate > 0.0 ||
                     options_.daily_cell_partition_rate > 0.0 ||
                     options_.daily_master_crash_rate > 0.0;
  task_ = std::make_unique<PeriodicTask>(sim_, kSweepInterval,
                                         [this] { Sweep(); });
}

void FailureInjector::Start() { task_->Start(); }
void FailureInjector::Stop() { task_->Stop(); }

void FailureInjector::Sweep() {
  // Convert daily rates to a per-sweep hazard assuming a Poisson process:
  // p_sweep = 1 - exp(-rate * dt). Valid for any rate >= 0 (rates above
  // 1/day simply mean multiple expected events per pod-day).
  const double dt_days = kSweepInterval / Days(1);
  const double p_fail =
      1.0 - std::exp(-options_.daily_pod_failure_rate * dt_days);
  const double p_straggle =
      1.0 - std::exp(-options_.daily_straggler_rate * dt_days);

  // Collect victims first: injecting inside the visit would mutate the
  // running index mid-iteration (terminations can create replacement pods).
  // The index serves the running target-priority pods in creation order, so
  // the hazard draws land on the same pods in the same RNG sequence, at
  // O(running target pods) per sweep. The victim buffers are members reused
  // across sweeps: warm sweeps allocate nothing.
  to_crash_.clear();
  to_degrade_.clear();
  cluster_->VisitRunningPods(kTargetPriority, [&](const Pod& pod) {
    if (rng_.Bernoulli(p_fail)) {
      to_crash_.push_back(pod.id);
    } else if (p_straggle > 0.0 && pod.speed_factor >= 0.5 &&
               rng_.Bernoulli(p_straggle)) {
      to_degrade_.push_back(pod.id);
    }
  });
  const SimTime now = sim_->Now();
  for (PodId id : to_crash_) {
    ++crashes_;
    const Pod* pod = cluster_->GetPod(id);
    fault_log_.push_back(FaultRecord{
        now, FaultKind::kPodCrash, id,
        pod != nullptr ? static_cast<uint64_t>(pod->node) : 0, 0.0, 1});
    cluster_->FailPod(id, PodStopReason::kCrash);
  }
  for (PodId id : to_degrade_) {
    ++stragglers_;
    const Pod* pod = cluster_->GetPod(id);
    fault_log_.push_back(FaultRecord{
        now, FaultKind::kPodStraggler, id,
        pod != nullptr ? static_cast<uint64_t>(pod->node) : 0, 0.0, 1});
    cluster_->DegradePod(id, kStragglerSpeedFactor);
  }
  // Grey faults ride the same sweep but behind their own guard: with every
  // node rate at 0 no extra RNG is drawn and the sweep above is bit-for-bit
  // the pre-feature sequence.
  if (grey_enabled_) GreySweep(dt_days);
  // Control-plane faults draw last, behind their own guard, so grey-only
  // campaigns keep their historical RNG sequences too.
  if (control_enabled_ && channel_ != nullptr) ControlSweep(dt_days);
}

bool FailureInjector::NodeHasRunningTarget(NodeId node) const {
  for (PodId pid : cluster_->GetNode(node).pods) {
    const Pod* pod = cluster_->GetPod(pid);
    if (pod != nullptr && pod->phase == PodPhase::kRunning &&
        pod->spec.priority == kTargetPriority) {
      return true;
    }
  }
  return false;
}

void FailureInjector::ExpireFault(const ActiveFault& fault) {
  const Node& node = cluster_->GetNode(fault.node);
  switch (fault.kind) {
    case FaultKind::kDegradedNode: {
      // Restore only pods still at the injected factor: a pod independently
      // degraded to straggler speed keeps its straggler factor.
      to_degrade_.clear();
      for (PodId pid : node.pods) {
        const Pod* pod = cluster_->GetPod(pid);
        if (pod != nullptr && !pod->terminal() &&
            pod->speed_factor == kDegradedSpeedFactor) {
          to_degrade_.push_back(pid);
        }
      }
      for (PodId pid : to_degrade_) {
        cluster_->DegradePod(pid, 1.0);
      }
      break;
    }
    case FaultKind::kMemoryLeak:
      cluster_->SetNodeUsageBias(fault.node, 0.0);
      break;
    default:
      break;
  }
}

void FailureInjector::ApplyFault(ActiveFault& fault) {
  const Node& node = cluster_->GetNode(fault.node);
  FaultRecord& record = fault_log_[fault.record];
  switch (fault.kind) {
    case FaultKind::kFlakyNode: {
      to_crash_.clear();
      for (PodId pid : node.pods) {
        const Pod* pod = cluster_->GetPod(pid);
        if (pod == nullptr || pod->phase != PodPhase::kRunning ||
            pod->spec.priority != kTargetPriority) {
          continue;
        }
        if (rng_.Bernoulli(kFlakyCrashProb)) {
          to_crash_.push_back(pid);
        }
      }
      for (PodId pid : to_crash_) {
        ++crashes_;
        ++record.symptoms;
        cluster_->FailPod(pid, PodStopReason::kCrash);
      }
      break;
    }
    case FaultKind::kDegradedNode: {
      to_degrade_.clear();
      for (PodId pid : node.pods) {
        const Pod* pod = cluster_->GetPod(pid);
        if (pod != nullptr && !pod->terminal() &&
            pod->speed_factor > kDegradedSpeedFactor) {
          to_degrade_.push_back(pid);
        }
      }
      for (PodId pid : to_degrade_) {
        ++record.symptoms;
        cluster_->DegradePod(pid, kDegradedSpeedFactor);
      }
      break;
    }
    case FaultKind::kMemoryLeak: {
      fault.leak_bias +=
          kLeakRatePerMin * (kSweepInterval / Minutes(1));
      cluster_->SetNodeUsageBias(fault.node, fault.leak_bias);
      // The creep itself is an observable symptom (node usage slope), even
      // before anything OOMs.
      ++record.symptoms;
      if (cluster_->NodeMemUsedFraction(fault.node) >
          kLeakOomFraction) {
        // The kernel OOM killer takes one resident victim per sweep.
        for (PodId pid : node.pods) {
          const Pod* pod = cluster_->GetPod(pid);
          if (pod != nullptr && pod->phase == PodPhase::kRunning &&
              pod->spec.priority == kTargetPriority) {
            ++crashes_;
            ++record.symptoms;
            cluster_->FailPod(pid, PodStopReason::kOomKill);
            break;
          }
        }
      }
      break;
    }
    case FaultKind::kCrashLoop: {
      // Every target pod that entered Running after onset dies within one
      // sweep of starting — the relaunch churn signature.
      to_crash_.clear();
      for (PodId pid : node.pods) {
        const Pod* pod = cluster_->GetPod(pid);
        if (pod != nullptr && pod->phase == PodPhase::kRunning &&
            pod->spec.priority == kTargetPriority &&
            pod->start_time >= fault.start) {
          to_crash_.push_back(pid);
        }
      }
      for (PodId pid : to_crash_) {
        ++crashes_;
        ++record.symptoms;
        cluster_->FailPod(pid, PodStopReason::kCrash);
      }
      break;
    }
    default:
      break;
  }
}

void FailureInjector::GreySweep(double dt_days) {
  const SimTime now = sim_->Now();
  if (node_afflicted_.size() < cluster_->num_nodes()) {
    node_afflicted_.assign(cluster_->num_nodes(), 0);
    for (const ActiveFault& f : active_faults_) node_afflicted_[f.node] = 1;
  }
  // 1. Expire faults whose window ended (stable erase keeps onset order).
  size_t keep = 0;
  for (size_t i = 0; i < active_faults_.size(); ++i) {
    ActiveFault& fault = active_faults_[i];
    if (fault.end <= now) {
      ExpireFault(fault);
      node_afflicted_[fault.node] = 0;
      continue;
    }
    active_faults_[keep++] = fault;
  }
  active_faults_.resize(keep);
  // 2. Apply the per-sweep effects of every active fault, in onset order.
  for (ActiveFault& fault : active_faults_) ApplyFault(fault);
  // 3. Draw new onsets, kind-major then node-id order, so the RNG sequence
  // is a pure function of deterministic cluster state. A node hosts at most
  // one grey fault at a time, and only nodes actually running target pods
  // are eligible (a fault nobody can observe proves nothing).
  struct KindRate {
    FaultKind kind;
    double rate;
  };
  const KindRate kinds[] = {
      {FaultKind::kFlakyNode, options_.daily_node_flaky_rate},
      {FaultKind::kDegradedNode, options_.daily_node_degraded_rate},
      {FaultKind::kMemoryLeak, options_.daily_node_leak_rate},
      {FaultKind::kCrashLoop, options_.daily_node_crashloop_rate},
  };
  for (const KindRate& kr : kinds) {
    if (kr.rate <= 0.0) continue;
    const double p_onset = 1.0 - std::exp(-kr.rate * dt_days);
    for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
      if (node_afflicted_[node]) continue;
      if (!NodeHasRunningTarget(node)) continue;
      if (!rng_.Bernoulli(p_onset)) continue;
      const Duration duration = rng_.Uniform(kGreyMinDuration,
                                             kGreyMaxDuration);
      ActiveFault fault;
      fault.kind = kr.kind;
      fault.node = node;
      fault.start = now;
      fault.end = now + duration;
      fault.record = fault_log_.size();
      fault_log_.push_back(FaultRecord{now, kr.kind,
                                       static_cast<uint64_t>(node),
                                       static_cast<uint64_t>(node), duration,
                                       0});
      node_afflicted_[node] = 1;
      ++node_faults_;
      // First dose lands immediately; subsequent sweeps keep it going.
      ApplyFault(fault);
      active_faults_.push_back(fault);
    }
  }
}

void FailureInjector::ControlSweep(double dt_days) {
  const SimTime now = sim_->Now();
  // 1. Refresh symptom counts from the channel's partition-drop counters
  // (how many messages the partition actually suppressed) and retire
  // tracking entries whose window ended. The partition itself heals inside
  // the channel; this bookkeeping only serves the audit log.
  size_t keep = 0;
  for (size_t i = 0; i < active_control_.size(); ++i) {
    ActiveControlFault& fault = active_control_[i];
    const uint64_t drops = fault.kind == FaultKind::kCellPartition
                               ? channel_->cell_partition_drops()
                               : channel_->node_partition_drops(fault.node);
    fault_log_[fault.record].symptoms = drops - fault.drops_at_start;
    if (fault.end <= now) continue;
    active_control_[keep++] = fault;
  }
  active_control_.resize(keep);
  // 2. Node partitions, node-id order (one at a time per node).
  if (options_.daily_node_partition_rate > 0.0) {
    const double p_onset =
        1.0 - std::exp(-options_.daily_node_partition_rate * dt_days);
    for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
      if (channel_->NodePartitioned(node)) continue;
      if (!NodeHasRunningTarget(node)) continue;
      if (!rng_.Bernoulli(p_onset)) continue;
      const Duration duration = rng_.Uniform(kPartitionMinDuration,
                                             kPartitionMaxDuration);
      ActiveControlFault fault;
      fault.kind = FaultKind::kNodePartition;
      fault.node = node;
      fault.end = now + duration;
      fault.drops_at_start = channel_->node_partition_drops(node);
      fault.record = fault_log_.size();
      fault_log_.push_back(FaultRecord{now, FaultKind::kNodePartition,
                                       static_cast<uint64_t>(node),
                                       static_cast<uint64_t>(node), duration,
                                       0});
      active_control_.push_back(fault);
      channel_->PartitionNode(node, duration);
      ++control_faults_;
    }
  }
  // 3. Cell partition: one hazard draw per sweep, at most one active.
  if (options_.daily_cell_partition_rate > 0.0 &&
      !channel_->CellPartitioned()) {
    const double p_onset =
        1.0 - std::exp(-options_.daily_cell_partition_rate * dt_days);
    if (rng_.Bernoulli(p_onset)) {
      const Duration duration = rng_.Uniform(kPartitionMinDuration,
                                             kPartitionMaxDuration);
      ActiveControlFault fault;
      fault.kind = FaultKind::kCellPartition;
      fault.end = now + duration;
      fault.drops_at_start = channel_->cell_partition_drops();
      fault.record = fault_log_.size();
      fault_log_.push_back(
          FaultRecord{now, FaultKind::kCellPartition, 0, 0, duration, 0});
      active_control_.push_back(fault);
      channel_->PartitionCell(duration);
      ++control_faults_;
    }
  }
  // 4. Master crashes: per-master hazard, victim chosen uniformly among the
  // masters currently up. The crash is instantaneous (the channel schedules
  // the failover restart itself), so no tracking entry is needed; the crash
  // is its own symptom.
  if (options_.daily_master_crash_rate > 0.0) {
    const size_t up = channel_->MastersUp();
    if (up > 0) {
      const double p_onset = 1.0 - std::exp(-options_.daily_master_crash_rate *
                                            static_cast<double>(up) * dt_days);
      if (rng_.Bernoulli(p_onset)) {
        const size_t ordinal =
            static_cast<size_t>(rng_.UniformInt(static_cast<uint64_t>(up)));
        const int handle = channel_->CrashMasterByOrdinal(ordinal);
        if (handle >= 0) {
          fault_log_.push_back(FaultRecord{now, FaultKind::kMasterCrash,
                                           static_cast<uint64_t>(handle), 0,
                                           0.0, 1});
          ++control_faults_;
        }
      }
    }
  }
}

}  // namespace dlrover
