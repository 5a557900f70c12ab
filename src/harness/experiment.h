#ifndef DLROVER_HARNESS_EXPERIMENT_H_
#define DLROVER_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/manual.h"
#include "brain/brain.h"
#include "cluster/background_load.h"
#include "cluster/cluster.h"
#include "cluster/control_channel.h"
#include "cluster/failure_injector.h"
#include "common/stats.h"
#include "ps/training_job.h"
#include "trace/workload_gen.h"

namespace dlrover {

/// Which control plane manages the job(s) in a scenario.
enum class SchedulerKind : int {
  kManualTuned = 0,    // static hand-tuned config (Kubeflow well-tuned)
  kManualUser = 1,     // static user misconfiguration (Kubeflow typical)
  kDlrover = 2,        // full DLRover-RM (brain + master + mechanisms)
  kEs = 3,             // Elastic Scheduler baseline
  kOptimus = 4,        // Optimus baseline
  kNoIntervention = 5, // tuned config, faults left unhandled
  kTraditional = 6,    // tuned config, stop-and-restart fault handling
};

std::string SchedulerKindName(SchedulerKind kind);

/// Scripted fault injection for single-job scenarios (Figs 12/13).
struct ScenarioInjection {
  enum class Kind : int { kNone = 0, kHotPs = 1, kWorkerStraggler = 2 };
  Kind kind = Kind::kNone;
  Duration at = Minutes(10);
  double speed = 0.03;  // paper: degraded to 3% of tuned CPU
};

struct SingleJobScenario {
  SchedulerKind scheduler = SchedulerKind::kDlrover;
  ModelKind model = ModelKind::kWideDeep;
  uint64_t total_steps = 200000;
  uint64_t batch_size = 512;
  /// Initial allocation; defaults per scheduler (well-tuned for manual
  /// kinds, a deliberately small cold-start config for auto-scalers).
  std::optional<JobConfig> initial;
  ScenarioInjection injection;
  /// When true (the default), auto-scalers start from a configuration
  /// warm-started out of seeded production history (the paper's stage 1);
  /// when false they cold-start from ColdStartConfig (the Fig 10 ablation).
  bool warm_start = true;
  Duration horizon = Hours(24);
  Duration round_interval = Minutes(3);
  ClusterOptions cluster;
  uint64_t seed = 1;
};

struct SingleJobResult {
  JobStats stats;
  JobState final_state = JobState::kFailed;
  JobConfig final_config;
  std::vector<ThroughputSample> history;
  Duration jct = 0.0;
  /// Wall-clock time from injection to recovery of >= 80% of pre-fault
  /// throughput; < 0 when not applicable / never recovered.
  Duration recovery_time = -1.0;
  /// Simulator events executed by this scenario (throughput accounting for
  /// sweep benches).
  uint64_t executed_events = 0;
};

/// Runs one training job under the given control plane on a fresh
/// simulated cluster. The workhorse behind Figs 7, 10, 12, 13.
SingleJobResult RunSingleJob(const SingleJobScenario& scenario);

/// Per-job outcome of a fleet run.
struct FleetJobOutcome {
  std::string name;
  ModelKind model = ModelKind::kWideDeep;
  bool used_dlrover = false;
  bool hot_ps = false;
  MisconfigKind misconfig = MisconfigKind::kOverProvisioned;
  bool completed = false;
  std::string fail_reason;
  Duration jct = 0.0;
  Duration pending_time = 0.0;
  int requested_cpus = 0;
  uint64_t total_steps = 0;
  int max_workers_quota = 40;
  double avg_worker_cpu_util = 0.0;
  double avg_ps_cpu_util = 0.0;
  double avg_worker_mem_util = 0.0;
  double avg_ps_mem_util = 0.0;
  /// Batches actually committed by the horizon (equals total_steps when
  /// completed); the fleet's goodput basis for the resilience bench.
  uint64_t batches_done = 0;
  JobStats stats;
};

struct FleetScenario {
  /// Fraction of jobs managed by DLRover-RM; the rest run manual-user
  /// static configs (models the paper's progressive migration, Fig 14).
  double dlrover_fraction = 1.0;
  WorkloadOptions workload;
  /// Production-like nodes (the paper's fleet runs on large hosts, which
  /// is what makes heavy CPU over-provisioning schedulable at all).
  ClusterOptions cluster{/*num_nodes=*/60, {64.0, GiB(384)}};
  FailureInjectorOptions failures;
  /// Control-plane channel model. Disabled by default: with
  /// `control.enabled == false` no channel is constructed and every run is
  /// byte-identical to the direct-call control plane.
  ControlChannelOptions control;
  BackgroundLoadOptions background;
  bool enable_background = true;
  Duration horizon = Hours(36);
  uint64_t seed = 99;
};

struct FleetResult {
  std::vector<FleetJobOutcome> jobs;
  uint64_t pods_preempted = 0;
  uint64_t crashes_injected = 0;
  uint64_t stragglers_injected = 0;
  uint64_t node_faults_injected = 0;
  /// Ground-truth fault audit log from the injector (sharded runs append
  /// per-cell logs in cell order, independent of lane count).
  std::vector<FaultRecord> fault_log;
  /// Node-health state transitions observed by the detector (empty unless
  /// ClusterOptions::enable_node_health); same cell-order merge rule.
  std::vector<NodeHealthEvent> health_log;
  uint64_t nodes_cordoned = 0;
  uint64_t nodes_uncordoned = 0;
  /// Control-plane telemetry; all zero/empty unless the scenario enables the
  /// channel. Sharded runs sum the stats and append per-cell event logs in
  /// cell order (independent of lane count).
  ControlChannelStats control_stats;
  std::vector<ControlEvent> control_log;
  uint64_t control_faults_injected = 0;
  /// Fencing / exactly-once counters aggregated over all jobs.
  uint64_t plans_fenced = 0;
  uint64_t stale_plan_applies = 0;
  uint64_t shard_reports_rejected = 0;
  uint64_t shard_reports_expired = 0;
  /// Simulator events executed by this scenario (throughput accounting for
  /// sweep benches).
  uint64_t executed_events = 0;

  int Completed() const;
  double CompletionRate() const;
  Distribution JctDistribution(bool dlrover_only, bool manual_only) const;
};

/// Runs a whole synthetic production trace on a shared cluster with
/// background load and failure injection. The workhorse behind Table 4 and
/// Figs 3, 14, 15.
FleetResult RunFleet(const FleetScenario& scenario);

class JobMaster;

/// One fleet's worth of simulation state bound to an externally-owned
/// Simulator: the cluster, background load, failure injector, brain, and
/// the arrival schedule for a generated trace. RunFleet is exactly
/// {construct; sim.RunUntil(horizon); Collect()}; the sharded fleet runner
/// builds one FleetSimulation per shard, each on its shard-local simulator,
/// which is what lets the whole scenario stack run inside the sharded
/// engine unchanged.
///
/// Construction replicates the historical RunFleet setup order event for
/// event (cluster pump, background, injector, brain round, arrivals) and
/// RNG stream for RNG stream, so a single FleetSimulation driven to the
/// horizon produces byte-identical results to the pre-refactor monolith.
class FleetSimulation {
 public:
  /// `trace` is the slice of generated jobs this fleet owns; RunFleet
  /// passes the full trace. The scenario's workload options are not
  /// re-generated here — the caller controls slicing.
  FleetSimulation(Simulator* sim, const FleetScenario& scenario,
                  std::vector<GeneratedJob> trace);
  /// Stops the brain, then unwinds members in the same order the
  /// monolithic RunFleet unwound its locals.
  ~FleetSimulation();

  FleetSimulation(const FleetSimulation&) = delete;
  FleetSimulation& operator=(const FleetSimulation&) = delete;

  Cluster& cluster() { return cluster_; }
  ClusterBrain& brain() { return *brain_; }
  FailureInjector* injector() { return injector_.get(); }
  ControlChannel* channel() { return channel_.get(); }
  Simulator* sim() { return sim_; }
  const std::vector<GeneratedJob>& trace() const { return trace_; }

  /// Harvests per-job outcomes after the horizon has run. Call once: it
  /// hands the fault, health and control logs over to the result instead of
  /// copying them, leaving the fleet's own logs empty.
  FleetResult Collect();

 private:
  void ScheduleArrivals();

  Simulator* sim_;
  FleetScenario scenario_;
  std::vector<GeneratedJob> trace_;
  /// Declared before cluster_ (and therefore destroyed after it, and after
  /// the masters that unregister from it on destruction). Null unless the
  /// scenario enables the channel.
  std::unique_ptr<ControlChannel> channel_;
  Cluster cluster_;
  std::unique_ptr<BackgroundLoad> background_;
  std::unique_ptr<FailureInjector> injector_;
  std::unique_ptr<ClusterBrain> brain_;
  std::vector<std::unique_ptr<TrainingJob>> jobs_;
  std::vector<std::unique_ptr<JobMaster>> masters_;
  std::vector<FleetJobOutcome> outcomes_;
};

/// The deliberately small configuration auto-scalers cold-start from.
JobConfig ColdStartConfig(ModelKind kind);

/// Populates `db` with historical job records whose final configurations
/// sit near (but not exactly at) the well-tuned optimum for each model —
/// the kind of history a production config DB accumulates, and what the
/// warm-start ablation (Fig 9) draws on.
void SeedHistoricalRecords(ConfigDb* db, uint64_t seed,
                           int records_per_model = 8);

/// The seeded historical database for `seed` (default records_per_model),
/// built once per seed and cached for the lifetime of the process.
/// Scenario runs share it read-only: rebuilding it per scenario used to
/// dominate InitialConfigFor, and the cache is mutex-guarded so concurrent
/// sweep workers can warm-start without re-deriving history.
const ConfigDb& SeededHistoryFor(uint64_t seed);

/// The JobMetadata a scenario's job would be submitted with.
JobMetadata MetadataFor(ModelKind model, uint64_t batch_size,
                        uint64_t total_steps);

}  // namespace dlrover

#endif  // DLROVER_HARNESS_EXPERIMENT_H_
