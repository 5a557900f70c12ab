#ifndef DLROVER_CLUSTER_NODE_HEALTH_H_
#define DLROVER_CLUSTER_NODE_HEALTH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/pod.h"
#include "common/units.h"

namespace dlrover {

/// Graded node-health classification (paper Section 5: the job master
/// blacklists nodes behind repeated anomalies instead of treating every
/// fault as an isolated pod event).
enum class NodeHealthState : int {
  kHealthy = 0,
  kSuspect = 1,   // accumulating evidence; brain stops proposing capacity
  kCordoned = 2,  // excluded from placement; resident pods being drained
};

/// One state transition, kept for scorecards and tests.
struct NodeHealthEvent {
  SimTime time = 0.0;
  NodeId node = 0;
  NodeHealthState from = NodeHealthState::kHealthy;
  NodeHealthState to = NodeHealthState::kHealthy;
  /// Decayed suspicion score at the moment of the transition.
  double score = 0.0;

  bool operator==(const NodeHealthEvent&) const = default;
};

/// Folds per-node evidence (pod failures, relaunch churn, straggler
/// verdicts, usage slope) into an exponentially-decayed suspicion score with
/// hysteresis, classifying nodes Healthy -> Suspect -> Cordoned.
///
/// Pure bookkeeping, fully deterministic: the owner (Cluster) feeds
/// observations from its existing pod-lifecycle callbacks and drives time by
/// calling Tick(now); Tick returns the cordon/uncordon actions for the owner
/// to apply. No RNG, no clock reads, no allocation on warm ticks.
///
/// The evidence weights and thresholds are constants in node_health.cc,
/// chosen so that a single isolated pod crash makes a node Suspect at most
/// (one crash decays back to Healthy within a few half-lives) while any
/// repeating per-node pattern — crash bursts, relaunch churn, persistent
/// stragglers, monotone memory growth — crosses the cordon threshold within
/// a few evidence ticks.
class NodeHealthTracker {
 public:
  /// Cadence of the classification tick (decay + state transitions).
  static constexpr Duration kTickInterval = Seconds(30);
  /// A cordoned node is released only after kMinCordon has elapsed AND its
  /// score has decayed below the clear threshold.
  static constexpr Duration kMinCordon = Minutes(15);

  explicit NodeHealthTracker(size_t num_nodes);

  /// Evidence: a placed pod on `node` stopped with `reason` (only crash-like
  /// reasons are worth reporting) after `uptime` seconds in Running
  /// (negative = never ran).
  void ObservePodStopped(NodeId node, PodStopReason reason, Duration uptime,
                         SimTime now);
  /// Evidence: the HeartbeatMonitor holds a straggler verdict against pod
  /// `source` resident on `node`. Reports are tallied by distinct source
  /// and folded into the score at the next Tick.
  void ObserveStraggler(NodeId node, uint64_t source, SimTime now);
  /// Evidence: job `source` reports a sustained uniform slowdown of its
  /// whole worker group and `node` hosts one of its parameter servers.
  /// Tallied by distinct source job and folded in at the next Tick.
  void ObservePsSlowdown(NodeId node, uint64_t source, SimTime now);
  /// Sample of the node's unaccounted used-memory fraction (node total
  /// minus the pod-attributed sum); leak evidence is derived internally
  /// from the rising-floor signal across consecutive sample windows.
  void ObserveNodeMemory(NodeId node, double used_fraction, SimTime now);

  struct Action {
    NodeId node = 0;
    bool cordon = false;  // false = uncordon
  };

  /// Decays every score to `now`, applies the hysteresis state machine, and
  /// returns the transitions the owner must apply. The returned reference is
  /// scratch reused across calls.
  const std::vector<Action>& Tick(SimTime now);

  NodeHealthState state(NodeId node) const { return entries_[node].state; }
  /// Suspicion score decayed to `now` (does not mutate).
  double score(NodeId node, SimTime now) const;
  /// Every state transition, in occurrence order.
  const std::vector<NodeHealthEvent>& log() const { return log_; }
  /// Hands the transition log over, leaving the tracker's empty.
  std::vector<NodeHealthEvent> TakeLog() { return std::move(log_); }
  uint64_t cordons() const { return cordons_; }
  uint64_t uncordons() const { return uncordons_; }

 private:
  struct Entry {
    double score = 0.0;
    SimTime score_time = 0.0;  // time the score was last decayed to
    NodeHealthState state = NodeHealthState::kHealthy;
    SimTime cordoned_at = 0.0;
    // Usage-floor bookkeeping: minimum sample within the current
    // leak window, and the previous window's minimum to difference
    // against (-1 = not yet populated).
    double window_min = -1.0;
    SimTime window_start = 0.0;
    double prev_min = -1.0;
    int rising_streak = 0;
    // Distinct pods reported as stragglers since the last Tick.
    std::vector<uint64_t> straggler_sources;
    // Distinct jobs reporting PS-attributed slowdown since the last Tick.
    std::vector<uint64_t> ps_slowdown_sources;
  };

  /// Decays `e.score` to `now` in place.
  void Decay(Entry& e, SimTime now) const;
  void AddEvidence(NodeId node, double weight, SimTime now);
  void Transition(Entry& e, NodeId node, NodeHealthState to, SimTime now);

  std::vector<Entry> entries_;
  std::vector<Action> actions_;  // Tick scratch
  std::vector<NodeHealthEvent> log_;
  uint64_t cordons_ = 0;
  uint64_t uncordons_ = 0;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_NODE_HEALTH_H_
