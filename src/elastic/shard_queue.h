#ifndef DLROVER_ELASTIC_SHARD_QUEUE_H_
#define DLROVER_ELASTIC_SHARD_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace dlrover {

/// A contiguous slice of the training data measured in batches
/// [start_batch, end_batch). Shards carry a unique index so completions and
/// re-queues can be audited.
struct DataShard {
  uint64_t index = 0;
  uint64_t start_batch = 0;
  uint64_t end_batch = 0;

  uint64_t batches() const { return end_batch - start_batch; }
};

/// A consistent cut of the queue's data-consumption state, suitable for
/// embedding in a model checkpoint. `pending` holds every batch range that
/// still needs serving (re-queued remainders plus the unprocessed suffix of
/// each outstanding shard); shard indices are not preserved — restore
/// assigns fresh ones so stale reports from pre-restore workers are
/// rejected rather than double-counted.
struct ShardQueueSnapshot {
  uint64_t cursor = 0;
  uint64_t completed_batches = 0;
  std::vector<DataShard> pending;
};

/// Options for the dynamic data sharding service (paper Section 5.1).
struct ShardQueueOptions {
  /// Total number of batches in the training job (its step budget).
  uint64_t total_batches = 200000;
  /// Default shard size in batches (paper uses 64 / 128 / 256).
  uint64_t default_shard_batches = 128;
  /// Lower bound when shrinking shards for stragglers.
  uint64_t min_shard_batches = 16;
};

/// The shards queue: partitions training data into numerous small
/// variably-sized shards served on demand. Guarantees exactly-once
/// consumption: every batch is delivered to completion exactly once even
/// across worker failures (unfinished shards are re-queued) and scale
/// events (new workers just pull from the queue; no re-partitioning).
///
/// Thread-safe: all methods may be called concurrently from worker threads
/// (ExecMode::kThreads). Every dispatch — including the re-serve of a
/// failed shard's remainder — gets a fresh shard index, so a stale report
/// from a worker that was already presumed dead (the report-after-timeout
/// double-dispatch hazard) names a retired index and is rejected instead of
/// double-counting the re-served data.
///
/// Each outstanding shard carries its committed prefix (paper §5.1: the
/// master tracks every shard's progress offset). A trainer records each
/// batch with RecordProgress before it pushes the batch's update; snapshots,
/// failure reports and reclaims all read that prefix, so the queue is the
/// only record of in-flight work.
class ShardQueue {
 public:
  explicit ShardQueue(const ShardQueueOptions& options);

  /// Hands out the next shard, at most `max_batches` long (0 = default
  /// size). Re-queued shards are served before fresh data. Returns
  /// kNotFound when all data has been handed out and nothing was re-queued
  /// (workers should then drain and exit).
  StatusOr<DataShard> NextShard(uint64_t max_batches = 0);

  /// Blocking NextShard for multi-threaded workers: when the queue is
  /// momentarily empty but other workers still hold outstanding shards
  /// (which may fail and be re-queued), waits instead of returning. Returns
  /// kNotFound only when no data can ever be served again — everything is
  /// completed or held by nobody — and kDeadlineExceeded after
  /// `timeout_seconds` without a servable shard. A blocked worker would
  /// otherwise wait forever when the holder of the last outstanding shard
  /// dies without reporting — the timeout hands control back so a
  /// supervisor (or the worker itself) can decide to retry or give up.
  StatusOr<DataShard> WaitNextShardFor(double timeout_seconds,
                                       uint64_t max_batches = 0);

  /// Marks a previously delivered shard fully processed.
  Status ReportCompleted(const DataShard& shard);

  /// Returns a shard delivered to a failed worker back to the queue.
  /// max(`processed_batches`, recorded prefix) batches of its prefix are
  /// counted as done (they were reflected in committed gradients before the
  /// failure); the remainder is re-served. A caller that records progress
  /// passes 0; one that does not (the simulated job) passes its own count.
  Status ReportFailed(const DataShard& shard, uint64_t processed_batches = 0);

  /// Adds one batch to the committed prefix of outstanding shard
  /// `shard_index`. Returns kNotFound once the index is retired (completed,
  /// failed, or dropped by a restore): the caller's shard is stale and its
  /// update must not be applied. FailedPrecondition when every batch of the
  /// shard is already recorded.
  Status RecordProgress(uint64_t shard_index);

  /// Credits every outstanding shard whose batches are all recorded as
  /// completed, as if its report had arrived (a lost or late completion
  /// report). Returns how many shards it completed.
  uint64_t CompleteFullyRecorded();

  /// Batches fully processed so far.
  uint64_t completed_batches() const;
  /// Batches currently assigned to workers.
  uint64_t outstanding_batches() const;
  /// True when every batch of the dataset has been completed.
  bool AllDone() const;

  uint64_t total_batches() const { return options_.total_batches; }

  /// Resets the queue to a checkpoint: the first `batches` are considered
  /// completed, everything else (including outstanding and re-queued work)
  /// is fresh again. Used when model parameters roll back to a checkpoint:
  /// data consumption must roll back with them to stay consistent.
  void FastForwardTo(uint64_t batches);

  /// Captures a consistent cut of data consumption for checkpointing. Each
  /// outstanding shard's recorded prefix counts as completed; batches
  /// beyond it — and every re-queued range — land in `pending` so they are
  /// re-served after a restore. The snapshot satisfies
  ///   completed + sum(pending) + (total - cursor) == total.
  ShardQueueSnapshot SnapshotState() const;

  /// Resets the queue to a snapshot taken by SnapshotState. Outstanding
  /// shards are dropped (their unprocessed suffixes are in `pending`);
  /// pending ranges get fresh indices, so reports naming pre-restore
  /// indices return kNotFound instead of corrupting the audit. The index
  /// allocator is never rewound.
  void RestoreState(const ShardQueueSnapshot& snapshot);

  /// Audit: asserts internal bookkeeping is consistent (used by tests).
  Status CheckInvariants() const;

 private:
  /// A dispatched shard and how many of its prefix batches are recorded.
  struct Outstanding {
    DataShard shard;
    uint64_t recorded = 0;
  };

  StatusOr<DataShard> NextShardLocked(uint64_t max_batches);
  std::vector<Outstanding>::iterator FindLocked(uint64_t shard_index);
  /// Credits `done` batches of the outstanding entry at `it` (requeueing
  /// the rest under a fresh index), removes the entry and wakes waiters.
  void RetireLocked(std::vector<Outstanding>::iterator it, uint64_t done);
  uint64_t OutstandingBatchesLocked() const;
  bool ServableLocked() const;

  ShardQueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled when data or terminal state appears
  uint64_t cursor_ = 0;          // first fresh batch not yet handed out
  uint64_t next_index_ = 0;      // shard index allocator
  uint64_t completed_batches_ = 0;
  std::deque<DataShard> requeued_;
  /// Outstanding shards (at most one per active worker, so a handful).
  /// A flat vector with linear find + swap-pop beats a map here and — the
  /// real point — reuses its capacity, so the steady-state dispatch path
  /// stops allocating a map node per served shard.
  std::vector<Outstanding> outstanding_;
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_SHARD_QUEUE_H_
