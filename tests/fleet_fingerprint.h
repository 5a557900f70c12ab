// Outcome fingerprint of a fleet run, shared by the fleet tests: FNV-1a over
// the exact bit patterns of every per-job result, the fleet counters, the
// sharded-engine counters, and the fault/health/control logs, so two
// fingerprints match only when every hashed field is bit-identical.
//
// It hashes the same fields, in the same order, as perfbench's
// FleetFingerprint (perfbench/main.cc), so a run hashed here and a run
// hashed by perfbench agree. The two copies are meant to merge into one
// implementation under src/harness.

#ifndef DLROVER_TESTS_FLEET_FINGERPRINT_H_
#define DLROVER_TESTS_FLEET_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "fnv1a.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"

namespace dlrover {

inline std::string FleetFingerprint(const ShardedFleetResult& r) {
  const FleetResult& f = r.fleet;
  Fnv1a h;
  h.Add(static_cast<uint64_t>(f.jobs.size()));
  for (const FleetJobOutcome& j : f.jobs) {
    h.Add(j.name);
    h.Add(static_cast<uint64_t>(j.completed));
    h.Add(j.fail_reason);
    h.Add(j.jct);
    h.Add(j.pending_time);
    h.Add(j.batches_done);
    h.Add(j.avg_worker_cpu_util);
    h.Add(j.avg_ps_cpu_util);
    h.Add(j.avg_worker_mem_util);
    h.Add(j.avg_ps_mem_util);
    h.Add(static_cast<uint64_t>(j.stats.worker_failures));
    h.Add(static_cast<uint64_t>(j.stats.oom_events));
    h.Add(static_cast<uint64_t>(j.stats.migrations));
    h.Add(static_cast<uint64_t>(j.stats.scale_operations));
    h.Add(static_cast<uint64_t>(j.stats.drain_migrations));
  }
  for (uint64_t v :
       {f.pods_preempted, f.crashes_injected, f.stragglers_injected,
        f.node_faults_injected, f.nodes_cordoned, f.nodes_uncordoned,
        f.control_faults_injected, f.plans_fenced, f.stale_plan_applies,
        f.shard_reports_rejected, f.shard_reports_expired, f.executed_events,
        r.windows, r.cross_shard_sends, r.ledger_entries, r.storm_strikes}) {
    h.Add(v);
  }
  h.Add(r.fleet_peak_allocated_cpu);
  for (const FaultRecord& e : f.fault_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.kind));
    h.Add(e.target);
    h.Add(e.node);
    h.Add(e.duration);
    h.Add(e.symptoms);
  }
  for (const NodeHealthEvent& e : f.health_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.node));
    h.Add(static_cast<uint64_t>(e.from));
    h.Add(static_cast<uint64_t>(e.to));
    h.Add(e.score);
  }
  for (const ControlEvent& e : f.control_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.kind));
    h.Add(e.a);
    h.Add(e.b);
  }
  const ControlChannelStats& c = f.control_stats;
  for (uint64_t v :
       {c.messages_sent, c.messages_delivered, c.messages_dropped,
        c.messages_partition_dropped, c.messages_duplicated,
        c.messages_reordered, c.retries, c.sends_expired, c.acks_lost,
        c.epoch_fenced, c.plans_fenced_stale, c.stale_plan_applies,
        c.node_partitions, c.cell_partitions, c.master_crashes,
        c.master_restarts}) {
    h.Add(v);
  }
  return h.Hex();
}

/// A sequential RunFleet result, hashed as a sharded result whose engine
/// counters are all zero.
inline std::string FleetFingerprint(const FleetResult& fleet) {
  ShardedFleetResult r;
  r.fleet = fleet;
  return FleetFingerprint(r);
}

}  // namespace dlrover

#endif  // DLROVER_TESTS_FLEET_FINGERPRINT_H_
