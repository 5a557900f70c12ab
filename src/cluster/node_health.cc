#include "cluster/node_health.h"

#include <cmath>

namespace dlrover {
namespace {
/// Exponential half-life of the per-node suspicion score.
constexpr Duration kHalfLife = Minutes(8);
/// Evidence weights folded into the EWMA suspicion score.
constexpr double kCrashWeight = 1.0;
constexpr double kOomWeight = 1.2;
/// Extra weight when a pod dies within kChurnUptime of entering Running
/// (relaunch churn: the signature of flaky / crash-looping nodes).
constexpr double kChurnWeight = 1.0;
constexpr Duration kChurnUptime = Seconds(90);
/// Straggler verdicts from the HeartbeatMonitor are tallied per tick by
/// distinct reported pod. Two or more distinct slow pods on one node is
/// the node-level degradation signature and adds kStragglerWeight per
/// pod per tick (cordons within minutes); a lone slow pod is more likely
/// a pod-scoped problem and adds only kStragglerSingleWeight, sized to
/// saturate between the suspect and cordon thresholds — the node turns
/// Suspect but is never cordoned on one pod's word alone.
constexpr double kStragglerWeight = 0.5;
constexpr double kStragglerSingleWeight = 0.08;
/// Degraded-PS evidence (the DESIGN §14 blind spot): a job whose *entire*
/// worker group sustains a throughput collapse relative to its own best —
/// with no intra-job straggler flagged and no recent rescale to explain it
/// — charges the nodes hosting its parameter servers. Tallied per tick by
/// distinct reporting job: two or more jobs corroborating one node is
/// near-certain node degradation (kPsSlowdownWeight per job per tick).
/// One job's verdict cannot say *which* of its PS nodes is slow — it
/// charges all of them alike, so one degraded node puts the job's every PS
/// node under suspicion — and adds only kPsSlowdownSingleWeight, sized like
/// kStragglerSingleWeight to saturate between the suspect and cordon
/// thresholds (steady state ~2.4): a node is never cordoned on one job's
/// word alone, and any second source (a straggler, a crash, a second job)
/// on top of it does cordon.
constexpr double kPsSlowdownWeight = 0.5;
constexpr double kPsSlowdownSingleWeight = 0.1;
/// Leak evidence works on the node's *unaccounted* memory — the share no
/// resident pod's cgroup explains. Slopes of total node memory are useless
/// for this: placement and completion churn swings the used fraction by
/// several percent within minutes, so short-window slopes of the raw
/// signal land in any band all the time, while the system/kernel share
/// stays flat on a healthy node no matter what the workload does. The
/// tracker takes the minimum sample within each kLeakWindow and
/// differences consecutive window minima (the floor — so even a transient
/// spike in the unaccounted share cannot fake creep). A floor slope
/// inside (kLeakSlopeThreshold, kLeakSlopeCeiling] (fraction of node
/// capacity per second) for kLeakStreak consecutive windows adds
/// kLeakWeight per window; the ceiling rejects step jumps (a reserved
/// hugepage pool appearing, say), which also reset the streak — as does
/// any flat or falling window.
constexpr Duration kLeakWindow = Minutes(2);
constexpr double kLeakWeight = 1.2;
constexpr double kLeakSlopeThreshold = 1.0e-4;
constexpr double kLeakSlopeCeiling = 1.0e-3;
constexpr int kLeakStreak = 3;
/// Hysteresis thresholds on the decayed score. The cordon threshold is
/// sized so that a burst of independent background pod crashes landing on
/// one node by coincidence (two or three within minutes, worth ~1-2 each
/// with churn) stays below it, while any repeating per-node pattern —
/// crash-looping relaunches, corroborated stragglers, sustained
/// unaccounted-memory creep — saturates well above it within a few
/// evidence ticks.
constexpr double kSuspectThreshold = 1.2;
constexpr double kCordonThreshold = 3.5;
/// A suspect node returns to healthy below kClearThreshold; a cordoned one
/// also waits out NodeHealthTracker::kMinCordon.
constexpr double kClearThreshold = 0.4;
}  // namespace

NodeHealthTracker::NodeHealthTracker(size_t num_nodes) : entries_(num_nodes) {}

void NodeHealthTracker::Decay(Entry& e, SimTime now) const {
  if (now <= e.score_time) return;
  if (e.score > 0.0) {
    e.score *= std::exp2(-(now - e.score_time) / kHalfLife);
  }
  e.score_time = now;
}

void NodeHealthTracker::AddEvidence(NodeId node, double weight, SimTime now) {
  Entry& e = entries_[node];
  Decay(e, now);
  e.score += weight;
}

void NodeHealthTracker::ObservePodStopped(NodeId node, PodStopReason reason,
                                          Duration uptime, SimTime now) {
  double weight = 0.0;
  switch (reason) {
    case PodStopReason::kCrash:
      weight = kCrashWeight;
      break;
    case PodStopReason::kOomKill:
      weight = kOomWeight;
      break;
    default:
      return;  // completions / preemptions / owner kills are not evidence
  }
  if (uptime >= 0.0 && uptime < kChurnUptime) {
    weight += kChurnWeight;
  }
  AddEvidence(node, weight, now);
}

void NodeHealthTracker::ObserveStraggler(NodeId node, uint64_t source,
                                         SimTime now) {
  (void)now;  // folded into the score at the next Tick
  Entry& e = entries_[node];
  for (uint64_t s : e.straggler_sources) {
    if (s == source) return;
  }
  e.straggler_sources.push_back(source);
}

void NodeHealthTracker::ObservePsSlowdown(NodeId node, uint64_t source,
                                          SimTime now) {
  (void)now;  // folded into the score at the next Tick
  Entry& e = entries_[node];
  for (uint64_t s : e.ps_slowdown_sources) {
    if (s == source) return;
  }
  e.ps_slowdown_sources.push_back(source);
}

void NodeHealthTracker::ObserveNodeMemory(NodeId node, double used_fraction,
                                          SimTime now) {
  Entry& e = entries_[node];
  if (e.window_min < 0.0) {
    e.window_min = used_fraction;
    e.window_start = now;
    return;
  }
  if (used_fraction < e.window_min) e.window_min = used_fraction;
  if (now - e.window_start < kLeakWindow) return;
  // The window closed: difference its floor against the previous window's.
  // The unaccounted share of a healthy node stays flat, so the floor stays
  // put; leaked memory is never given back, so the floor creeps at the
  // leak rate.
  if (e.prev_min >= 0.0) {
    const double slope = (e.window_min - e.prev_min) / (now - e.window_start);
    if (slope > kLeakSlopeThreshold && slope <= kLeakSlopeCeiling) {
      ++e.rising_streak;
      if (e.rising_streak >= kLeakStreak) {
        AddEvidence(node, kLeakWeight, now);
      }
    } else {
      e.rising_streak = 0;
    }
  }
  e.prev_min = e.window_min;
  e.window_start = now;
  e.window_min = used_fraction;
}

void NodeHealthTracker::Transition(Entry& e, NodeId node, NodeHealthState to,
                                   SimTime now) {
  log_.push_back(NodeHealthEvent{now, node, e.state, to, e.score});
  if (to == NodeHealthState::kCordoned) {
    e.cordoned_at = now;
    ++cordons_;
  } else if (e.state == NodeHealthState::kCordoned) {
    ++uncordons_;
  }
  e.state = to;
}

const std::vector<NodeHealthTracker::Action>& NodeHealthTracker::Tick(
    SimTime now) {
  actions_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    const NodeId node = static_cast<NodeId>(i);
    if (!e.straggler_sources.empty()) {
      // >= 2 distinct slow pods corroborate each other (node-level
      // degradation); a single source is weak evidence.
      const double n = static_cast<double>(e.straggler_sources.size());
      AddEvidence(node,
                  n >= 2.0 ? kStragglerWeight * n
                           : kStragglerSingleWeight,
                  now);
      e.straggler_sources.clear();
    }
    if (!e.ps_slowdown_sources.empty()) {
      // A PS-hosting node slowed a whole job uniformly. Cross-job
      // corroboration is near-certain; a single job charges every one of
      // its PS nodes, so alone it is weak evidence, as for stragglers.
      const double n = static_cast<double>(e.ps_slowdown_sources.size());
      AddEvidence(node,
                  n >= 2.0 ? kPsSlowdownWeight * n
                           : kPsSlowdownSingleWeight,
                  now);
      e.ps_slowdown_sources.clear();
    }
    Decay(e, now);
    switch (e.state) {
      case NodeHealthState::kHealthy:
        if (e.score >= kCordonThreshold) {
          Transition(e, node, NodeHealthState::kCordoned, now);
          actions_.push_back(Action{node, /*cordon=*/true});
        } else if (e.score >= kSuspectThreshold) {
          Transition(e, node, NodeHealthState::kSuspect, now);
        }
        break;
      case NodeHealthState::kSuspect:
        if (e.score >= kCordonThreshold) {
          Transition(e, node, NodeHealthState::kCordoned, now);
          actions_.push_back(Action{node, /*cordon=*/true});
        } else if (e.score < kClearThreshold) {
          Transition(e, node, NodeHealthState::kHealthy, now);
        }
        break;
      case NodeHealthState::kCordoned:
        if (now - e.cordoned_at >= kMinCordon && e.score <= kClearThreshold) {
          Transition(e, node, NodeHealthState::kHealthy, now);
          actions_.push_back(Action{node, /*cordon=*/false});
        }
        break;
    }
  }
  return actions_;
}

double NodeHealthTracker::score(NodeId node, SimTime now) const {
  const Entry& e = entries_[node];
  if (now <= e.score_time || e.score <= 0.0) return e.score;
  return e.score * std::exp2(-(now - e.score_time) / kHalfLife);
}

}  // namespace dlrover
