#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace dlrover {

uint32_t Simulator::ArmSlot(Callback&& cb) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  EventSlot& s = slots_[slot];
  s.cb = std::move(cb);
  s.armed = true;
  ++live_events_;
  return slot;
}

void Simulator::ReleaseSlot(uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.armed = false;
  s.cb = nullptr;
  ++s.gen;  // any heap entry or EventId carrying the old generation is stale
  --live_events_;
  free_slots_.push_back(slot);
}

EventId Simulator::Push(SimTime at, uint64_t seq, Callback&& cb) {
  const SimTime when = std::max(at, now_);
  const uint32_t slot = ArmSlot(std::move(cb));
  const uint32_t gen = slots_[slot].gen;
  queue_.push(HeapEntry{when, seq, slot, gen});
  return MakeId(slot, gen);
}

EventId Simulator::ScheduleAt(SimTime at, Callback cb) {
  return Push(at, next_seq_++, std::move(cb));
}

EventId Simulator::ScheduleReserved(SimTime at, uint64_t seq, Callback cb) {
  return Push(at, seq, std::move(cb));
}

EventId Simulator::ScheduleAfter(Duration delay, Callback cb) {
  return Push(now_ + std::max(0.0, delay), next_seq_++, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  const uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return false;
  const uint32_t slot = static_cast<uint32_t>(slot_plus_one - 1);
  const uint32_t gen = static_cast<uint32_t>(id & kGenMask);
  EventSlot& s = slots_[slot];
  // A fired, cancelled, or recycled slot carries a newer generation: the
  // handle is stale and cancelling it is a no-op reporting false.
  if (!s.armed || s.gen != gen) return false;
  ReleaseSlot(slot);
  return true;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    const HeapEntry top = queue_.top();
    queue_.pop();
    EventSlot& s = slots_[top.slot];
    if (!s.armed || s.gen != top.gen) continue;  // cancelled: skip lazily
    // Move the callback out and recycle the slot *before* invoking: the
    // callback may schedule new events (growing or reusing the slab) or
    // Cancel its own now-stale id.
    Callback cb = std::move(s.cb);
    ReleaseSlot(top.slot);
    now_ = top.at;
    ++executed_events_;
    cb();
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty()) {
    const HeapEntry& top = queue_.top();
    const EventSlot& s = slots_[top.slot];
    if (!s.armed || s.gen != top.gen) {
      queue_.pop();
      continue;
    }
    if (top.at > deadline) break;
    Step();
  }
  now_ = std::max(now_, deadline);
}

void Simulator::RunToCompletion() {
  while (Step()) {
  }
}

PeriodicTask::PeriodicTask(Simulator* sim, Duration interval,
                           Simulator::Callback cb)
    : sim_(sim), interval_(interval), cb_(std::move(cb)) {}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() {
  if (running_) return;
  running_ = true;
  pending_ = sim_->ScheduleAfter(interval_, [this] { Tick(); });
}

void PeriodicTask::Stop() {
  if (!running_) return;
  running_ = false;
  sim_->Cancel(pending_);
  pending_ = 0;
}

void PeriodicTask::Tick() {
  if (!running_) return;
  // Re-arm before the callback so the callback may Stop() us.
  pending_ = sim_->ScheduleAfter(interval_, [this] { Tick(); });
  cb_();
}

}  // namespace dlrover
