#ifndef DLROVER_HARNESS_SHARDED_FLEET_H_
#define DLROVER_HARNESS_SHARDED_FLEET_H_

#include <cstdint>

#include "harness/experiment.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_simulator.h"

namespace dlrover {

/// How to run a FleetScenario on the sharded engine.
struct ShardedFleetOptions {
  /// Number of fleet cells — independent slices of the cluster, each with
  /// its own event queue, cluster slice, brain, background load, and
  /// failure injector. Cells share no state; the window barriers only fold
  /// their ledgers. Part of the scenario shape: different cell counts
  /// simulate different fleets.
  /// cells == 1 reproduces the sequential RunFleet byte for byte.
  int cells = 1;
  /// Execution lanes the cells are advanced on. NEVER affects results —
  /// only wall-clock. 0 picks the hardware concurrency.
  int shards = 1;
  /// Synchronization window: the ledger is folded at every barrier.
  Duration window = Minutes(2);
  /// Pool for multi-lane execution; defaults to SharedThreadPool() when
  /// more than one lane is requested.
  ThreadPool* pool = nullptr;
};

struct ShardedFleetResult {
  /// Merged per-job outcomes in the original trace order; counters are
  /// summed across cells.
  FleetResult fleet;
  int cells = 1;
  int shards = 1;
  uint64_t windows = 0;
  /// Always 0: cells exchange nothing. Kept because the fleet fingerprints
  /// hash it.
  uint64_t cross_shard_sends = 0;
  /// Accounting deltas folded into the fleet ledger.
  uint64_t ledger_entries = 0;
  /// Peak fleet-wide allocated CPU the ledger observed at any barrier.
  double fleet_peak_allocated_cpu = 0.0;
  /// Always 0: there is no node-failure storm. Kept because the fleet
  /// fingerprints hash it.
  uint64_t storm_strikes = 0;
};

/// Runs `scenario` partitioned across `options.cells` fleet cells on the
/// sharded engine. Jobs are dealt round-robin to cells (job i lives in cell
/// i % cells) and nodes are split as evenly as the division allows; cell 0
/// keeps the scenario seed so a 1-cell run is the sequential RunFleet,
/// while further cells fork deterministic per-cell seeds. Every cell's
/// ClusterCommitLog is folded into one fleet-wide ledger at each barrier
/// (O(entries), allocation-free when warm).
///
/// Guarantees: for a fixed `cells`, the result is byte-identical at every
/// `shards` value (1, 2, hw, ...), pool or no pool — parity is pinned in
/// sharded_sim_test.cc; and with cells == 1 it is byte-identical to
/// RunFleet(scenario).
ShardedFleetResult RunFleetSharded(const FleetScenario& scenario,
                                   const ShardedFleetOptions& options);

}  // namespace dlrover

#endif  // DLROVER_HARNESS_SHARDED_FLEET_H_
