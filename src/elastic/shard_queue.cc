#include "elastic/shard_queue.h"

#include <algorithm>
#include <chrono>

namespace dlrover {

ShardQueue::ShardQueue(const ShardQueueOptions& options) : options_(options) {}

bool ShardQueue::ServableLocked() const {
  return !requeued_.empty() || cursor_ < options_.total_batches;
}

StatusOr<DataShard> ShardQueue::NextShardLocked(uint64_t max_batches) {
  uint64_t want = max_batches == 0 ? options_.default_shard_batches
                                   : std::max(max_batches,
                                              options_.min_shard_batches);

  // Serve re-queued data first so failed workers' batches are not starved.
  if (!requeued_.empty()) {
    DataShard shard = requeued_.front();
    requeued_.pop_front();
    if (shard.batches() > want) {
      // Split: hand out a prefix, keep the suffix queued.
      DataShard rest;
      rest.index = next_index_++;
      rest.start_batch = shard.start_batch + want;
      rest.end_batch = shard.end_batch;
      requeued_.push_front(rest);
      shard.end_batch = shard.start_batch + want;
    }
    // Fresh index per dispatch: a late report from the worker that failed
    // this range earlier must not be able to complete the re-served copy.
    shard.index = next_index_++;
    outstanding_.push_back({shard, 0});
    return shard;
  }

  if (cursor_ >= options_.total_batches) {
    return NotFoundError("shard queue exhausted");
  }
  DataShard shard;
  shard.index = next_index_++;
  shard.start_batch = cursor_;
  shard.end_batch = std::min(cursor_ + want, options_.total_batches);
  cursor_ = shard.end_batch;
  outstanding_.push_back({shard, 0});
  return shard;
}

StatusOr<DataShard> ShardQueue::NextShard(uint64_t max_batches) {
  std::lock_guard<std::mutex> lock(mu_);
  return NextShardLocked(max_batches);
}

StatusOr<DataShard> ShardQueue::WaitNextShardFor(double timeout_seconds,
                                                 uint64_t max_batches) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout_seconds)));
  for (;;) {
    if (ServableLocked()) return NextShardLocked(max_batches);
    if (outstanding_.empty()) {
      return NotFoundError("shard queue exhausted");
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Re-check once: the wakeup may have raced with the deadline.
      if (ServableLocked()) return NextShardLocked(max_batches);
      if (outstanding_.empty()) return NotFoundError("shard queue exhausted");
      return DeadlineExceededError("timed out waiting for a shard");
    }
  }
}

std::vector<ShardQueue::Outstanding>::iterator ShardQueue::FindLocked(
    uint64_t shard_index) {
  return std::find_if(
      outstanding_.begin(), outstanding_.end(),
      [&](const Outstanding& o) { return o.shard.index == shard_index; });
}

void ShardQueue::RetireLocked(std::vector<Outstanding>::iterator it,
                              uint64_t done) {
  const DataShard owned = it->shard;
  *it = outstanding_.back();
  outstanding_.pop_back();
  done = std::min(done, owned.batches());
  completed_batches_ += done;
  if (done < owned.batches()) {
    DataShard rest;
    rest.index = next_index_++;
    rest.start_batch = owned.start_batch + done;
    rest.end_batch = owned.end_batch;
    requeued_.push_back(rest);
  }
  // Wake blocked workers: the remainder is servable, or the run may be
  // over — notify_all keeps the logic simple and exits are cheap.
  cv_.notify_all();
}

Status ShardQueue::ReportCompleted(const DataShard& shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindLocked(shard.index);
  if (it == outstanding_.end()) {
    return NotFoundError("completion for unknown shard");
  }
  RetireLocked(it, it->shard.batches());
  return Status::OK();
}

Status ShardQueue::ReportFailed(const DataShard& shard,
                                uint64_t processed_batches) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindLocked(shard.index);
  if (it == outstanding_.end()) {
    return NotFoundError("failure report for unknown shard");
  }
  RetireLocked(it, std::max(processed_batches, it->recorded));
  return Status::OK();
}

Status ShardQueue::RecordProgress(uint64_t shard_index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = FindLocked(shard_index);
  if (it == outstanding_.end()) {
    return NotFoundError("progress for unknown shard");
  }
  if (it->recorded >= it->shard.batches()) {
    return FailedPreconditionError("every batch of the shard is recorded");
  }
  ++it->recorded;
  return Status::OK();
}

uint64_t ShardQueue::CompleteFullyRecorded() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t completed = 0;
  for (size_t i = 0; i < outstanding_.size();) {
    if (outstanding_[i].recorded == outstanding_[i].shard.batches()) {
      // Swap-pop moves the last entry into slot i; look at it next.
      RetireLocked(outstanding_.begin() + i, outstanding_[i].recorded);
      ++completed;
    } else {
      ++i;
    }
  }
  return completed;
}

uint64_t ShardQueue::completed_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_batches_;
}

uint64_t ShardQueue::OutstandingBatchesLocked() const {
  uint64_t total = 0;
  for (const Outstanding& o : outstanding_) total += o.shard.batches();
  return total;
}

uint64_t ShardQueue::outstanding_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OutstandingBatchesLocked();
}

bool ShardQueue::AllDone() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_batches_ == options_.total_batches;
}

void ShardQueue::FastForwardTo(uint64_t batches) {
  std::lock_guard<std::mutex> lock(mu_);
  batches = std::min(batches, options_.total_batches);
  cursor_ = batches;
  completed_batches_ = batches;
  requeued_.clear();
  outstanding_.clear();
  cv_.notify_all();
}

ShardQueueSnapshot ShardQueue::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardQueueSnapshot snap;
  snap.cursor = cursor_;
  snap.completed_batches = completed_batches_;
  snap.pending.assign(requeued_.begin(), requeued_.end());
  for (const Outstanding& o : outstanding_) {
    snap.completed_batches += o.recorded;
    if (o.recorded < o.shard.batches()) {
      DataShard rest = o.shard;
      rest.start_batch += o.recorded;
      snap.pending.push_back(rest);
    }
  }
  return snap;
}

void ShardQueue::RestoreState(const ShardQueueSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  cursor_ = std::min(snapshot.cursor, options_.total_batches);
  completed_batches_ = snapshot.completed_batches;
  requeued_.clear();
  outstanding_.clear();
  for (const DataShard& range : snapshot.pending) {
    if (range.end_batch <= range.start_batch) continue;
    DataShard shard = range;
    shard.index = next_index_++;
    requeued_.push_back(shard);
  }
  cv_.notify_all();
}

Status ShardQueue::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t requeued = 0;
  for (const DataShard& s : requeued_) {
    if (s.end_batch <= s.start_batch) {
      return InternalError("empty shard in requeue buffer");
    }
    requeued += s.batches();
  }
  const uint64_t accounted =
      completed_batches_ + OutstandingBatchesLocked() + requeued +
      (options_.total_batches - cursor_);
  if (accounted != options_.total_batches) {
    return InternalError("shard accounting leak: batches lost or duplicated");
  }
  return Status::OK();
}

}  // namespace dlrover
