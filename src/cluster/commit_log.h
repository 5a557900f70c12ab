#ifndef DLROVER_CLUSTER_COMMIT_LOG_H_
#define DLROVER_CLUSTER_COMMIT_LOG_H_

#include <cstdint>
#include <vector>

#include "cluster/resources.h"
#include "common/units.h"

namespace dlrover {

/// One cluster's append-only log of accounting deltas for a synchronization
/// window. A sharded fleet gives each shard-local Cluster its own log, so
/// capacity bookkeeping stays O(1) and entirely race-free while shards run
/// in parallel: a shard only ever appends to its own log, and the fleet
/// coordinator folds all logs at the window barrier.
class ClusterCommitLog {
 public:
  /// Which running total the delta applies to.
  enum class Kind : uint8_t {
    kCapacity = 0,   // node capacity joined the fleet
    kAllocated = 1,  // pod requests placed/released
    kUsage = 2,      // live usage reported by running pods
    kCordoned = 3,   // capacity cordoned off / released from cordon
  };

  /// One delta. (time, seq) orders entries within the log; seq is the log's
  /// own append counter, so the key is unique and execution-independent.
  struct Entry {
    SimTime time = 0.0;
    uint64_t seq = 0;
    Kind kind = Kind::kAllocated;
    ResourceSpec delta;
  };

  /// Appends a delta at simulated time `time`. O(1) amortized; with
  /// Reserve() it never allocates on the warm path.
  void Append(SimTime time, Kind kind, const ResourceSpec& delta) {
    entries_.push_back(Entry{time, next_seq_++, kind, delta});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// Drops the entries but keeps capacity (called after each barrier fold).
  void Clear() {
    entries_.clear();
    next_seq_ = 0;
  }

  void Reserve(size_t n) { entries_.reserve(n); }

 private:
  std::vector<Entry> entries_;
  uint64_t next_seq_ = 0;
};

/// Fleet-wide accounting folded out of per-shard commit logs at window
/// barriers, in canonical (time, seq, shard) order. The fold is a k-way
/// cursor merge over logs whose entries are already (time, seq)-sorted by
/// construction, so it allocates nothing once the cursor scratch is sized.
class FleetLedger {
 public:
  struct Totals {
    ResourceSpec capacity;
    ResourceSpec allocated;
    ResourceSpec usage;
    /// Capacity currently cordoned (still counted in `capacity`,
    /// but unschedulable — the node-health control plane fenced it off).
    ResourceSpec cordoned;
  };

  /// Folds every log's entries (in canonical order) into the running
  /// totals, then clears the logs. `logs[i]` is shard i's log; the shard
  /// index is the fold's final tie-break.
  void Fold(const std::vector<ClusterCommitLog*>& logs);

  const Totals& totals() const { return totals_; }
  /// Peak fleet-wide allocated CPU observed at any fold point.
  double peak_allocated_cpu() const { return peak_allocated_cpu_; }
  uint64_t entries_folded() const { return entries_folded_; }

 private:
  Totals totals_;
  double peak_allocated_cpu_ = 0.0;
  uint64_t entries_folded_ = 0;
  /// Per-log cursor scratch, reused across folds.
  std::vector<size_t> cursors_;
};

}  // namespace dlrover

#endif  // DLROVER_CLUSTER_COMMIT_LOG_H_
