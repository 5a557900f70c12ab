#ifndef DLROVER_ELASTIC_HEARTBEAT_H_
#define DLROVER_ELASTIC_HEARTBEAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dlrover {

/// Per-member view the monitor keeps from heartbeat packets.
struct MemberHealth {
  SimTime last_heartbeat = 0.0;
  uint64_t progress_offset = 0;  // samples (or batches) processed
  SimTime first_heartbeat = 0.0;
  bool flagged_straggler = false;
};

struct HeartbeatMonitorOptions {
  /// A member is declared failed after this silence (paper: job master
  /// treats missing heartbeats for "a reasonably long time" as failure).
  Duration failure_timeout = Minutes(2);
  /// Minimum observation window before straggler judgments.
  Duration min_observation = Seconds(60);
};

/// Tracks heartbeat packets carrying progress offsets (paper Section 5.1)
/// and classifies members as failed (silence) or stragglers (progress rate
/// far below peers). Pure bookkeeping: the owner drives time by calling
/// Check(now) and reacts to the returned verdicts.
///
/// Member ids are small dense indices (a job's worker indices): the monitor
/// keeps one slot per id in a flat table sized by the largest id it was
/// told about, so a heartbeat is an index, not a tree lookup. Every scan
/// visits members in ascending id order.
class HeartbeatMonitor {
 public:
  explicit HeartbeatMonitor(const HeartbeatMonitorOptions& options)
      : options_(options) {}

  /// Registers a member (worker or PS). Progress starts at zero. Clears any
  /// fence on the id: an explicit re-add is a new incarnation.
  void AddMember(uint64_t member_id, SimTime now);
  /// Removes a member (scale-down or confirmed failure).
  void RemoveMember(uint64_t member_id);
  /// Removes a member AND remembers the id as fenced: late heartbeat packets
  /// still in flight for a worker the master already gave up on must not
  /// auto-register a ghost member. Only AddMember lifts the fence.
  void FenceMember(uint64_t member_id);
  bool IsFenced(uint64_t member_id) const {
    return member_id < slots_.size() && slots_[member_id].fenced;
  }

  /// Records a heartbeat packet with the member's cumulative progress.
  /// Delivery hardening for a lossy control plane: packets with a timestamp
  /// older than the member's last accepted one are ignored (out-of-order
  /// delivery must not rewind liveness), progress only ever moves forward
  /// (duplicates are harmless), and packets for fenced ids are dropped.
  void Heartbeat(uint64_t member_id, SimTime now, uint64_t progress_offset);

  /// Members silent beyond the failure timeout.
  std::vector<uint64_t> DetectFailures(SimTime now) const;

  /// Members whose progress rate is far below the group's median rate.
  /// Already-flagged members are not re-reported unless `include_flagged`.
  std::vector<uint64_t> DetectStragglers(SimTime now,
                                         bool include_flagged = false);

  /// Progress rate (units per second) of one member; 0 if unknown.
  double ProgressRate(uint64_t member_id, SimTime now) const;

  size_t member_count() const { return member_count_; }
  /// The member's record, or nullptr when `member_id` is not a member.
  const MemberHealth* member(uint64_t member_id) const {
    return member_id < slots_.size() && slots_[member_id].present
               ? &slots_[member_id].health
               : nullptr;
  }
  /// Calls `fn(member_id, health)` for every member, in ascending id order.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].present) fn(static_cast<uint64_t>(id), slots_[id].health);
    }
  }

  /// Out-of-order packets discarded by the monotonic-timestamp guard.
  uint64_t stale_heartbeats_ignored() const {
    return stale_heartbeats_ignored_;
  }
  /// Packets for fenced (already given-up-on) members discarded.
  uint64_t fenced_heartbeats_ignored() const {
    return fenced_heartbeats_ignored_;
  }

 private:
  struct Slot {
    MemberHealth health;
    bool present = false;  // a member right now
    bool fenced = false;   // given up on until AddMember
  };

  /// The slot for `member_id`, growing the table to reach it.
  Slot& SlotFor(uint64_t member_id);
  static double Rate(const MemberHealth& h, SimTime now);

  HeartbeatMonitorOptions options_;
  std::vector<Slot> slots_;
  size_t member_count_ = 0;
  std::vector<double> rates_;  // DetectStragglers scratch
  uint64_t stale_heartbeats_ignored_ = 0;
  uint64_t fenced_heartbeats_ignored_ = 0;
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_HEARTBEAT_H_
