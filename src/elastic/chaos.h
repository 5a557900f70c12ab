#ifndef DLROVER_ELASTIC_CHAOS_H_
#define DLROVER_ELASTIC_CHAOS_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace dlrover {

/// Fault kinds the threaded trainer knows how to suffer. Each maps to a
/// specific hook in the runtime:
///   kCrashBeforePush  — worker dies after computing a batch, before its
///                       gradients reach the PS (the batch must be redone);
///   kCrashAfterPush   — worker dies right after committing a batch (the
///                       batch must NOT be redone);
///   kStallWorker      — worker goes silent without dying (heartbeat
///                       timeout is the only way to notice);
///   kLoseShardReport  — a finished shard's completion report is dropped
///                       (supervisor must reap it or the queue never
///                       drains);
///   kFailCheckpointWrite — the next checkpoint write is corrupted (a
///                       payload bit flips after checksumming; vault must
///                       fall back to an older generation on restore);
///   kPsFailure        — parameter state is lost; the trainer restores
///                       from the latest valid checkpoint;
///   kTornCheckpointWrite — the next checkpoint write is cut short
///                       mid-stream (payload truncated after checksumming
///                       — the classic torn write, distinct from the
///                       bit-flip corruption above; the vault must reject
///                       the short read and fall back).
enum class ChaosFaultKind : int {
  kCrashBeforePush = 0,
  kCrashAfterPush = 1,
  kStallWorker = 2,
  kLoseShardReport = 3,
  kFailCheckpointWrite = 4,
  kPsFailure = 5,
  kTornCheckpointWrite = 6,
};

/// One scheduled fault: fires when the trainer's committed-batch counter
/// reaches `at_batches`. Keying on committed progress (not wall-clock)
/// makes schedules reproducible across machines and run speeds.
struct ChaosFault {
  uint64_t at_batches = 0;
  ChaosFaultKind kind = ChaosFaultKind::kCrashBeforePush;
};

/// Audit record of a fault that actually fired.
struct ChaosFiredRecord {
  ChaosFault fault;
  /// Committed count observed at the hook that consumed the fault (>=
  /// fault.at_batches; the overshoot measures hook polling granularity).
  uint64_t fired_at_batches = 0;
};

/// Knobs for the seeded schedule generator. A seeded schedule holds
/// ChaosInjector::kFaultsPerKind faults of each of the first six kinds,
/// spread over the window [kWindowBegin, kWindowEnd) of the run.
struct ChaosScheduleOptions {
  uint64_t seed = 1;
  uint64_t total_batches = 0;
  /// Torn writes are off by default, and their draws come last in
  /// FromSeed, so every other fault keeps its trigger when they are added.
  /// No program sets this: it is the seam through which tests reach the
  /// trainer's torn-write recovery path.
  int torn_checkpoint_writes = 0;
};

/// Deterministic chaos injector. The schedule is fixed up front — either
/// handed in explicitly or generated from a seed — and every fault fires
/// exactly once, when a runtime hook of the matching kind observes the
/// committed-batch counter at or past the fault's trigger. Same seed, same
/// options => same schedule, always; the fired log records what actually
/// happened for post-run audit.
///
/// Thread-safe: hooks call Take() concurrently from worker and supervisor
/// threads.
class ChaosInjector {
 public:
  ChaosInjector() = default;
  explicit ChaosInjector(std::vector<ChaosFault> schedule);

  /// Generates a seeded schedule per `options`.
  static ChaosInjector FromSeed(const ChaosScheduleOptions& options);

  /// Consumes the next due fault of `kind`: returns true iff a scheduled
  /// fault of that kind has trigger <= committed_batches and has not fired
  /// yet. Faults of one kind fire in trigger order, independently of other
  /// kinds (each runtime hook polls only the kinds it implements).
  bool Take(ChaosFaultKind kind, uint64_t committed_batches);

  /// True if any fault of `kind` is still pending at or before
  /// `committed_batches` (without consuming it).
  bool Due(ChaosFaultKind kind, uint64_t committed_batches) const;

  /// The full schedule, sorted by (trigger, kind). Stable across the run.
  const std::vector<ChaosFault>& schedule() const { return schedule_; }

  /// Faults fired so far, in firing order. Take a copy while threads run.
  std::vector<ChaosFiredRecord> fired() const;

  size_t remaining() const;

  /// Faults of each kind but kTornCheckpointWrite in a seeded schedule.
  static constexpr int kFaultsPerKind = 1;
  /// Seeded faults land uniformly in [kWindowBegin, kWindowEnd) *
  /// total_batches: after warmup (so there is progress to lose) and before
  /// the tail (so recovery has batches left to prove itself on).
  static constexpr double kWindowBegin = 0.05;
  static constexpr double kWindowEnd = 0.85;

 private:
  static constexpr int kNumKinds = 7;

  std::vector<ChaosFault> schedule_;
  mutable std::mutex mu_;
  /// Per-kind sorted trigger lists + firing cursors.
  std::vector<uint64_t> triggers_[kNumKinds];
  size_t cursor_[kNumKinds] = {};
  std::vector<ChaosFiredRecord> fired_;
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_CHAOS_H_
