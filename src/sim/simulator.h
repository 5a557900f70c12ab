#ifndef DLROVER_SIM_SIMULATOR_H_
#define DLROVER_SIM_SIMULATOR_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/inline_callback.h"
#include "common/status.h"
#include "common/units.h"

namespace dlrover {

/// Opaque handle identifying a scheduled event; usable to cancel it. Encodes
/// a slab slot plus a generation tag, so a handle becomes stale the moment
/// its event fires or is cancelled — cancelling a stale handle is a safe
/// O(1) no-op even after the slot has been recycled for a newer event.
/// 0 is never a valid id (PeriodicTask and friends use it as "none").
using EventId = uint64_t;

/// Discrete-event simulation engine. Single-threaded: all entities (cluster,
/// jobs, schedulers) schedule callbacks on one shared timeline. Events firing
/// at the same timestamp run in scheduling order (stable FIFO tie-break) so
/// runs are fully deterministic.
///
/// Storage layout: callbacks live in a slab of recycled slots (no per-event
/// heap allocation beyond what the callback's own captures need), and the
/// time-ordered heap holds only small {time, seq, slot, generation} entries.
/// Cancellation bumps the slot's generation, which both invalidates the
/// heap entry lazily (popped entries with a stale generation are skipped)
/// and frees the slot for immediate reuse — there is no tombstone set to
/// grow, and Cancel of an already-fired event correctly reports false.
class Simulator {
 public:
  /// Small-buffer-optimized: closures up to InlineCallback::kInlineBytes are
  /// stored inline in the event slab, so steady-state scheduling never
  /// touches the heap.
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (>= Now()). Returns an id
  /// that can be passed to Cancel(). Scheduling in the past is clamped to
  /// Now() and the event fires on the next Step.
  EventId ScheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now.
  EventId ScheduleAfter(Duration delay, Callback cb);

  /// Takes the FIFO tie-break number the next ScheduleAt would use, without
  /// scheduling anything. Passing it to ScheduleReserved later gives the
  /// event the place in equal-time order it would have had if it had been
  /// scheduled now: an event that may turn out unneeded can be held back
  /// without moving any other event.
  uint64_t ReserveSeq() { return next_seq_++; }

  /// ScheduleAt with a number from ReserveSeq in place of a fresh one. Each
  /// reserved number is used at most once, and while the simulator has not
  /// yet run past (`at`, `seq`).
  EventId ScheduleReserved(SimTime at, uint64_t seq, Callback cb);

  /// Cancels a pending event. Returns true only if the event existed and
  /// had not yet fired; ids of already-fired (or never-scheduled, or
  /// already-cancelled) events return false.
  bool Cancel(EventId id);

  /// Runs a single event. Returns false if the queue is empty.
  bool Step();

  /// Runs events until the queue is empty or `deadline` is passed. Events
  /// scheduled exactly at the deadline still run. Time is advanced to
  /// `deadline` if the queue drains earlier (so periodic observers see a
  /// consistent end time).
  ///
  /// Deadline-edge contract (the sharded engine's windows depend on it):
  /// a periodic tick firing exactly at `deadline` runs inside this call and
  /// re-arms an event strictly past the deadline, which then fires in the
  /// next RunUntil window — never twice, never from a stale clock. Chaining
  /// RunUntil(w1), RunUntil(w2), ... is byte-identical to one
  /// RunUntil(wN) for any window cut points (regression-pinned in
  /// simulator_test.cc).
  void RunUntil(SimTime deadline);

  /// Runs until the event queue is fully drained.
  void RunToCompletion();

  /// Number of events executed so far (for tests and microbenches).
  uint64_t executed_events() const { return executed_events_; }
  /// Number of events currently scheduled and not yet fired or cancelled.
  size_t pending_events() const { return live_events_; }

 private:
  /// Heap entry: 24 bytes, trivially copyable. The callback stays in the
  /// slab; stale entries (generation mismatch) are skipped on pop.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;  // FIFO tie-break for equal timestamps.
    uint32_t slot;
    uint32_t gen;
    bool operator>(const HeapEntry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  /// One slab slot. `gen` counts how many times the slot has been armed or
  /// disarmed; an EventId carries the generation at scheduling time, so any
  /// later fire/cancel bumps `gen` and invalidates the id.
  struct EventSlot {
    Callback cb;
    uint32_t gen = 1;
    bool armed = false;
  };

  static constexpr uint32_t kGenMask = 0xffffffffu;

  EventId MakeId(uint32_t slot, uint32_t gen) const {
    // slot+1 keeps every valid id nonzero (slot 0, any generation).
    return (static_cast<uint64_t>(slot) + 1) << 32 | gen;
  }

  /// Pops a free slot (or grows the slab) and arms it with `cb`.
  uint32_t ArmSlot(Callback&& cb);
  /// Arms a slot and queues it at (`at`, `seq`). Callbacks travel by
  /// reference down to the slab: each move of an InlineCallback is an
  /// indirect relocate call.
  EventId Push(SimTime at, uint64_t seq, Callback&& cb);
  /// Disarms a slot after fire/cancel: bumps the generation and recycles it.
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_events_ = 0;
  size_t live_events_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      queue_;
  std::vector<EventSlot> slots_;
  std::vector<uint32_t> free_slots_;
};

/// Repeats a callback at a fixed interval until stopped or the owner is
/// destroyed. Used for profiler ticks, heartbeats, and scheduler rounds.
class PeriodicTask {
 public:
  /// Does not start automatically; call Start().
  PeriodicTask(Simulator* sim, Duration interval, Simulator::Callback cb);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Schedules the first tick `interval` from now. No-op if running.
  void Start();
  /// Cancels the pending tick. Safe to call repeatedly.
  void Stop();
  bool running() const { return running_; }

 private:
  void Tick();

  Simulator* sim_;
  Duration interval_;
  Simulator::Callback cb_;
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace dlrover

#endif  // DLROVER_SIM_SIMULATOR_H_
