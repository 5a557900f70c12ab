#ifndef DLROVER_ELASTIC_CHECKPOINT_H_
#define DLROVER_ELASTIC_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"

namespace dlrover {

/// Abstract checkpoint tier. Implementations model the time it takes to
/// persist / restore a model of a given size; the simulation charges these
/// durations to the job's critical path.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  /// Time to persist `bytes` of model state.
  virtual Duration WriteTime(Bytes bytes) const = 0;
  /// Time to restore `bytes` of model state.
  virtual Duration ReadTime(Bytes bytes) const = 0;
  virtual std::string name() const = 0;
};

/// Remote disk storage (RDS): shared service with limited per-job bandwidth
/// and a fixed coordination overhead. Paper: checkpointing a job to RDS
/// takes 5-10 minutes.
class RdsStore : public CheckpointStore {
 public:
  static constexpr Bandwidth kWriteBandwidth = MiBps(64);
  static constexpr Bandwidth kReadBandwidth = MiBps(96);
  static constexpr Duration kFixedOverhead = Seconds(45);

  Duration WriteTime(Bytes bytes) const override {
    return kFixedOverhead + bytes / kWriteBandwidth;
  }
  Duration ReadTime(Bytes bytes) const override {
    return kFixedOverhead + bytes / kReadBandwidth;
  }
  std::string name() const override { return "rds"; }
};

/// Flash-checkpoint tier (paper Section 5.2): a distributed in-memory cache.
/// Writes are near-instant (<1s for a 20GB model) and data is flushed to RDS
/// asynchronously off the critical path. `flushed_bytes` tracks the async
/// persistence so tests can assert it happens.
class CacheStore : public CheckpointStore {
 public:
  static constexpr Bandwidth kBandwidth = GiBps(24);
  static constexpr Duration kFixedOverhead = Seconds(0.2);

  Duration WriteTime(Bytes bytes) const override {
    return kFixedOverhead + bytes / kBandwidth;
  }
  Duration ReadTime(Bytes bytes) const override {
    return kFixedOverhead + bytes / kBandwidth;
  }
  std::string name() const override { return "flash-cache"; }

  /// Records an asynchronous flush of cached state to RDS. Does not block
  /// the caller; the simulation can query total flushed bytes.
  void AsyncFlushToRds(Bytes bytes) { flushed_bytes_ += bytes; }
  Bytes flushed_bytes() const { return flushed_bytes_; }

 private:
  Bytes flushed_bytes_ = 0;
};

/// A recorded checkpoint: what was saved, when, where.
struct CheckpointRecord {
  SimTime saved_at = 0.0;
  Bytes bytes = 0.0;
  uint64_t trained_batches = 0;  // training progress captured by the ckpt
  std::string store;
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_CHECKPOINT_H_
