#include "elastic/heartbeat.h"

#include <algorithm>
#include <cstddef>

namespace dlrover {

namespace {
// A member is a straggler when its progress rate falls below this fraction
// of the group median rate.
constexpr double kStragglerRateFraction = 0.5;
}  // namespace

HeartbeatMonitor::Slot& HeartbeatMonitor::SlotFor(uint64_t member_id) {
  if (member_id >= slots_.size()) slots_.resize(member_id + 1);
  return slots_[member_id];
}

double HeartbeatMonitor::Rate(const MemberHealth& h, SimTime now) {
  const double window = now - h.first_heartbeat;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(h.progress_offset) / window;
}

void HeartbeatMonitor::AddMember(uint64_t member_id, SimTime now) {
  Slot& slot = SlotFor(member_id);
  slot.health = MemberHealth{};
  slot.health.last_heartbeat = now;
  slot.health.first_heartbeat = now;
  if (!slot.present) ++member_count_;
  slot.present = true;
  slot.fenced = false;
}

void HeartbeatMonitor::RemoveMember(uint64_t member_id) {
  if (member_id >= slots_.size() || !slots_[member_id].present) return;
  slots_[member_id].present = false;
  --member_count_;
}

void HeartbeatMonitor::FenceMember(uint64_t member_id) {
  RemoveMember(member_id);
  SlotFor(member_id).fenced = true;
}

void HeartbeatMonitor::Heartbeat(uint64_t member_id, SimTime now,
                                 uint64_t progress_offset) {
  if (IsFenced(member_id)) {
    ++fenced_heartbeats_ignored_;
    return;
  }
  Slot& slot = SlotFor(member_id);
  if (!slot.present) AddMember(member_id, now);
  MemberHealth& h = slot.health;
  if (now < h.last_heartbeat) {
    // Out-of-order delivery: an older packet carries no new liveness
    // evidence and must not rewind the silence clock.
    ++stale_heartbeats_ignored_;
    h.progress_offset = std::max(h.progress_offset, progress_offset);
    return;
  }
  h.last_heartbeat = now;
  h.progress_offset = std::max(h.progress_offset, progress_offset);
}

std::vector<uint64_t> HeartbeatMonitor::DetectFailures(SimTime now) const {
  std::vector<uint64_t> failed;
  ForEachMember([&](uint64_t id, const MemberHealth& h) {
    if (now - h.last_heartbeat > options_.failure_timeout) {
      failed.push_back(id);
    }
  });
  return failed;
}

double HeartbeatMonitor::ProgressRate(uint64_t member_id, SimTime now) const {
  const MemberHealth* h = member(member_id);
  return h != nullptr ? Rate(*h, now) : 0.0;
}

std::vector<uint64_t> HeartbeatMonitor::DetectStragglers(
    SimTime now, bool include_flagged) {
  std::vector<uint64_t> stragglers;
  if (member_count_ < 3) return stragglers;  // need peers to compare

  rates_.clear();
  for (const Slot& slot : slots_) {
    if (!slot.present) continue;
    if (now - slot.health.first_heartbeat < options_.min_observation) {
      return stragglers;
    }
    rates_.push_back(Rate(slot.health, now));
  }
  const auto mid =
      rates_.begin() + static_cast<std::ptrdiff_t>(rates_.size() / 2);
  std::nth_element(rates_.begin(), mid, rates_.end());
  const double median = *mid;
  if (median <= 0.0) return stragglers;

  for (size_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.present) continue;
    if (slot.health.flagged_straggler && !include_flagged) continue;
    if (Rate(slot.health, now) < kStragglerRateFraction * median) {
      slot.health.flagged_straggler = true;
      stragglers.push_back(static_cast<uint64_t>(id));
    }
  }
  return stragglers;
}

}  // namespace dlrover
