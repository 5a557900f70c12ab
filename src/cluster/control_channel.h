#ifndef DLROVER_CLUSTER_CONTROL_CHANNEL_H_
#define DLROVER_CLUSTER_CONTROL_CHANNEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/pod.h"
#include "common/inline_callback.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dlrover {

/// Logical endpoints of the control plane. Workers live on cluster nodes
/// (endpoint == their NodeId); the per-job masters sit together with the
/// cluster API front end (kMaster); the brain is a separate remote service
/// (kBrain). A node-scoped partition severs node <-> master traffic
/// (heartbeats, shard reports from workers on that node); a cell-scoped
/// partition severs master <-> brain traffic (scaling plans, straggler
/// verdicts) — masters then degrade gracefully to their local policies.
using ControlEndpoint = int;

/// What a control message carries; used for the audit/event log only — the
/// channel itself treats every message as an opaque deliverable.
enum class ControlMessageKind : int {
  kHeartbeat = 0,        // worker -> master progress report
  kShardReport = 1,      // worker -> master shard completion (reliable)
  kStragglerVerdict = 2, // master -> brain node-health evidence
  kPlan = 3,             // brain -> master scaling plan (reliable, fenced)
};

/// One entry of the channel's deterministic event trace. `a` and `b` carry
/// kind-specific detail (message kind + sequence for chaos events, node id
/// for partitions, master handle + epoch for failover, plan sequence for
/// fencing). The trace is part of FleetResult and must be byte-identical
/// across reruns and sharded lane counts.
enum class ControlEventKind : uint8_t {
  kDropped = 0,             // a = message kind, b = message seq
  kPartitionDropped = 1,    // a = message kind, b = message seq
  kDuplicated = 2,          // a = message kind, b = message seq
  kReordered = 3,           // a = message kind, b = message seq
  kRetried = 4,             // a = message kind, b = message seq
  kExpired = 5,             // a = message kind, b = message seq
  kAckLost = 6,             // a = message kind, b = message seq
  kNodePartitionStart = 7,  // a = node
  kNodePartitionEnd = 8,    // a = node
  kCellPartitionStart = 9,
  kCellPartitionEnd = 10,
  kMasterCrash = 11,        // a = master handle, b = epoch at crash
  kMasterRestart = 12,      // a = master handle, b = new epoch
  kEpochFenced = 13,        // a = message kind, b = message seq
  kPlanFencedStale = 14,    // a = fencing source id, b = plan seq
  kStalePlanApplied = 15,   // a = fencing source id, b = plan seq
};

/// 24 bytes: a chaotic run records hundreds of thousands of these. `a`
/// keeps all 64 bits (a plan-fence source is a job's 64-bit seed); `b` only
/// ever holds a message sequence, an epoch or a plan sequence, so it shares
/// its word with `kind`. ControlChannel::Record aborts on a `b` above kMaxB
/// rather than truncate it.
struct ControlEvent {
  static constexpr uint64_t kMaxB = (uint64_t{1} << 56) - 1;

  SimTime time = 0.0;
  uint64_t a = 0;
  uint64_t b : 56 = 0;
  ControlEventKind kind : 8 = ControlEventKind::kDropped;

  bool operator==(const ControlEvent&) const = default;
};
static_assert(sizeof(ControlEvent) == 24);

/// Channel-wide counters, merged across cells by the sharded fleet runner.
struct ControlChannelStats {
  uint64_t messages_sent = 0;        // attempts, including retries
  uint64_t messages_delivered = 0;   // copies that executed at the receiver
  uint64_t messages_dropped = 0;     // chaos drops
  uint64_t messages_partition_dropped = 0;
  uint64_t messages_duplicated = 0;
  uint64_t messages_reordered = 0;
  uint64_t retries = 0;
  uint64_t sends_expired = 0;        // reliable sends that hit the deadline
  uint64_t acks_lost = 0;
  uint64_t epoch_fenced = 0;         // deliveries to a crashed/re-epoched master
  uint64_t plans_fenced_stale = 0;   // stale/duplicate plans rejected by seq
  uint64_t stale_plan_applies = 0;   // fencing off: stale plan applied anyway
  uint64_t node_partitions = 0;
  uint64_t cell_partitions = 0;
  uint64_t master_crashes = 0;
  uint64_t master_restarts = 0;

  ControlChannelStats& operator+=(const ControlChannelStats& o);
  bool operator==(const ControlChannelStats&) const = default;
};

/// Tunables for the control-plane channel. Everything defaults to a fully
/// healthy network so that merely *enabling* the channel (routing messages
/// through scheduled deliveries) is separable from injecting chaos; the
/// channel as a whole is absent unless FleetScenario::control.enabled — the
/// disabled configuration constructs no channel, draws no randomness, and
/// schedules no events, so traces are byte-identical to pre-feature builds.
struct ControlChannelOptions {
  bool enabled = false;
  uint64_t seed = 4242;

  /// One-way delivery latency, sampled uniformly per copy.
  Duration min_latency = Seconds(0.05);
  Duration max_latency = Seconds(0.35);
  /// Per-attempt probability the copy is lost in flight.
  double drop_prob = 0.0;
  /// Probability a delivered attempt arrives twice (second copy gets its own
  /// latency draw, so it may land out of order).
  double duplicate_prob = 0.0;
  /// Probability a copy is held ControlChannel::kReorderDelay extra.
  double reorder_prob = 0.0;

  /// Reliable-send policy (plan delivery, shard reports). With retries off
  /// (the unprotected arm) a reliable send degenerates to one attempt and
  /// the expiry callback never fires.
  bool retries_enabled = true;
  Duration retry_base = Seconds(1);
  Duration retry_cap = Seconds(20);
  Duration retry_deadline = Minutes(6);

  /// Epoch/sequence fencing at plan-apply time (the protected arm). With
  /// fencing off, stale and duplicate plans apply and are counted as
  /// `stale_plan_applies` hazards.
  bool fencing_enabled = true;

  /// Master failover: a crashed master restarts from its last tick snapshot
  /// after `master_restart_delay`. With failover off a crashed master stays
  /// down for good.
  bool failover_enabled = true;
  Duration master_restart_delay = Seconds(45);
};

/// Failover interface a job master registers with the channel. The channel
/// owns crash/restart scheduling; the endpoint owns its own state snapshot
/// and what crash/restart mean for its periodic work.
class ControlMasterEndpoint {
 public:
  virtual ~ControlMasterEndpoint() = default;
  /// The master process died: stop all periodic work, lose volatile state.
  virtual void OnMasterCrash() = 0;
  /// A replacement came up (new epoch): restore from the snapshot and
  /// resume periodic work.
  virtual void OnMasterRestart() = 0;
};

/// Deterministic, fault-injectable control-plane message layer. All
/// heartbeats, shard reports, straggler verdicts, and scaling plans of a
/// fleet cell flow through one channel living on the cell's simulator, so
/// every chaos draw happens in event order and sharded runs stay
/// byte-identical at any lane count (cells share no state, so control
/// traffic never crosses them).
///
/// `Send` is fire-and-forget (heartbeats, verdicts). `SendReliable` retries
/// with capped jittered exponential backoff until an acknowledgement makes
/// it back or the deadline passes; acks are themselves lossy, so receivers
/// must treat deliveries as at-least-once and fence duplicates (plan
/// sequence numbers, exactly-once shard queue).
///
/// Callbacks are InlineCallbacks, so a send whose closure fits the inline
/// buffer allocates nothing. A retry timer reaches the simulator only when
/// no scheduled ack lands strictly before it: while a copy of the attempt
/// is still due before the retry time, the retry waits in the message, and
/// that copy's delivery either arms it or, when its ack will land first,
/// drops it (DESIGN.md §15).
class ControlChannel {
 public:
  static constexpr ControlEndpoint kBrain = -2;
  static constexpr ControlEndpoint kMaster = -1;
  /// Extra hold on a reordered copy: enough for later messages to overtake
  /// it.
  static constexpr Duration kReorderDelay = Seconds(2);

  ControlChannel(Simulator* sim, const ControlChannelOptions& options);
  ~ControlChannel();

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Fire-and-forget send. `deliver` runs at the receiver once per arriving
  /// copy (possibly never, possibly twice).
  void Send(ControlMessageKind kind, ControlEndpoint src, ControlEndpoint dst,
            InlineCallback deliver);

  /// Reliable send: re-attempts with backoff until acked or past the
  /// deadline. `deliver` runs once per arriving copy (the receiver must
  /// dedup); `on_expire` (optional) runs once if the deadline passes without
  /// an ack — the sender-side recovery hook (e.g. requeue a shard).
  /// `dst_master` >= 0 pins delivery to a registered master endpoint:
  /// copies arriving while it is down, or after its epoch moved past the
  /// attempt's, are fenced instead of delivered.
  void SendReliable(ControlMessageKind kind, ControlEndpoint src,
                    ControlEndpoint dst, InlineCallback deliver,
                    InlineCallback on_expire = nullptr, int dst_master = -1);

  // ---- Partitions (injector-driven, seeded schedules) ----
  void PartitionNode(NodeId node, Duration duration);
  void PartitionCell(Duration duration);
  bool NodePartitioned(NodeId node) const;
  bool CellPartitioned() const;
  /// Cumulative messages dropped by partitions; the injector differences
  /// these across sweeps to attribute symptoms to its audit records.
  uint64_t node_partition_drops(NodeId node) const;
  uint64_t cell_partition_drops() const { return cell_partition_drops_; }

  // ---- Master failover registry ----
  int RegisterMaster(ControlMasterEndpoint* master);
  void UnregisterMaster(int handle);
  bool MasterUp(int handle) const;
  uint64_t MasterEpoch(int handle) const;
  size_t MastersUp() const;
  /// Crashes the `ordinal`-th currently-up master (injector-driven); with
  /// failover enabled a restart is scheduled after master_restart_delay.
  /// Returns the crashed master's handle, or -1 when none was up.
  int CrashMasterByOrdinal(size_t ordinal);

  // ---- Fencing bookkeeping (receivers report verdicts here) ----
  bool fencing_enabled() const { return options_.fencing_enabled; }
  void NotePlanFenced(uint64_t source, uint64_t plan_seq);
  void NoteStalePlanApplied(uint64_t source, uint64_t plan_seq);

  const ControlChannelOptions& options() const { return options_; }
  const ControlChannelStats& stats() const { return stats_; }
  const std::vector<ControlEvent>& log() const { return log_; }
  /// Hands the event trace over, leaving the channel's empty.
  std::vector<ControlEvent> TakeLog() { return std::move(log_); }

 private:
  struct Message {
    ControlMessageKind kind = ControlMessageKind::kHeartbeat;
    ControlEndpoint src = 0;
    ControlEndpoint dst = 0;
    int dst_master = -1;
    bool reliable = false;
    bool acked = false;
    bool closed = false;  // no further attempts will be made
    uint64_t seq = 0;
    SimTime first_send = 0.0;
    int attempts = 0;
    uint32_t inflight = 0;  // scheduled events (deliveries/acks) alive
    /// The pending retry: its time and its reserved simulator sequence
    /// number, drawn at the attempt. `retry_held` while it waits in the
    /// message; `retry_event` once it is in the simulator.
    bool retry_held = false;
    SimTime retry_at = 0.0;
    uint64_t retry_seq = 0;
    EventId retry_event = 0;
    InlineCallback deliver;
    InlineCallback on_expire;
    uint32_t gen = 1;
    bool armed = false;
  };

  void Record(ControlEventKind kind, uint64_t a, uint64_t b);
  /// True when a message between these endpoints is severed right now;
  /// charges the responsible partition's drop counter when `charge`.
  bool Severed(ControlEndpoint src, ControlEndpoint dst, bool charge);
  uint32_t ArmSlot(ControlMessageKind kind, ControlEndpoint src,
                   ControlEndpoint dst, int dst_master, bool reliable,
                   InlineCallback&& deliver, InlineCallback&& on_expire);
  void MaybeRelease(uint32_t slot);
  void Close(uint32_t slot);
  /// One network attempt: partition/drop/duplicate/latency draws, delivery
  /// scheduling, and (for reliable sends) the retry: drawn and given its
  /// sequence number here, put in the simulator here only when no copy is
  /// due before it.
  void Attempt(uint32_t slot);
  /// Schedules one copy; returns its arrival time.
  SimTime ScheduleDelivery(uint32_t slot);
  void Deliver(uint32_t slot, uint32_t gen, uint64_t attempt_epoch);
  /// Puts a held retry into the simulator at its reserved place.
  void ArmRetry(uint32_t slot);
  void RetryFire(uint32_t slot, uint32_t gen);

  struct MasterSlot {
    ControlMasterEndpoint* endpoint = nullptr;
    bool registered = false;
    bool up = true;
    uint64_t epoch = 0;
  };

  Simulator* sim_;
  ControlChannelOptions options_;
  Rng rng_;
  uint64_t next_seq_ = 0;
  std::vector<Message> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<MasterSlot> masters_;
  std::vector<SimTime> node_partition_until_;
  std::vector<uint64_t> node_partition_drops_;
  SimTime cell_partition_until_ = -1.0;
  uint64_t cell_partition_drops_ = 0;
  ControlChannelStats stats_;
  std::vector<ControlEvent> log_;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_CONTROL_CHANNEL_H_
