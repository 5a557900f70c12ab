#ifndef DLROVER_PS_TRAINING_JOB_H_
#define DLROVER_PS_TRAINING_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/status.h"
#include "elastic/checkpoint.h"
#include "elastic/heartbeat.h"
#include "elastic/oom_predictor.h"
#include "elastic/shard_queue.h"
#include "ps/iteration_model.h"
#include "ps/job_config.h"
#include "ps/model_profile.h"
#include "sim/simulator.h"

namespace dlrover {

/// How training data is served to workers.
enum class DataMode : int {
  /// DLRover's dynamic data sharding (paper Section 5.1): a central shards
  /// queue serves small variably-sized shards on demand; failures re-queue,
  /// new workers just pull.
  kDynamicSharding = 0,
  /// Conventional static partitioning: each worker owns 1/w of the data.
  /// Worker loss or scale events force a stop-and-restart with
  /// re-partitioning (the baseline behaviour).
  kStaticPartition = 1,
};

/// How resource plans are applied (paper Section 5.2).
enum class MigrationMode : int {
  /// Checkpoint to storage, kill everything, recreate, reload, resume.
  kStopAndRestart = 0,
  /// Start replacement pods while training continues; pause only for the
  /// (flash) checkpoint handoff.
  kSeamless = 1,
};

/// High-level lifecycle of a training job.
enum class JobState : int {
  kInitializing = 0,  // pods starting, training not yet begun
  kRunning = 1,
  kMigrating = 2,  // applying a resource plan
  kRestoring = 3,  // recovering from a PS loss
  kCompleted = 4,
  kFailed = 5,
};

std::string JobStateName(JobState state);

/// Static description of a training job.
struct JobSpec {
  std::string name = "job";
  ModelKind model = ModelKind::kWideDeep;
  uint64_t batch_size = 512;
  uint64_t total_steps = 200000;  // total batches across all workers
  DataMode data_mode = DataMode::kDynamicSharding;

  /// Use the in-memory flash-checkpoint tier (vs. RDS) for migrations and
  /// PS recovery.
  bool use_flash_checkpoint = true;
  /// Interval of the periodic fault-tolerance checkpoint.
  Duration checkpoint_interval = Minutes(10);
  /// Job gives up after this many full restarts.
  int max_restarts = 5;
  /// Initial imbalance of parameter shares across PSes (empty = balanced).
  /// Models TensorFlow's tensor-granularity placement (paper: hot PSes).
  std::vector<double> ps_shares;
  uint64_t seed = 1234;
  /// Pre-reserve this many ThroughputSample slots (0 = grow on demand).
  /// Long-horizon runs that must stay allocation-free in steady state set
  /// this to cover the whole horizon's profile ticks.
  size_t history_reserve = 0;
};

/// One profiling snapshot; consumed by the optimizer's model fitter and by
/// experiment reporting.
struct ThroughputSample {
  SimTime time = 0.0;
  JobConfig config;
  int active_workers = 0;
  double samples_per_sec = 0.0;
  /// Effective observed iteration time (w * m / throughput); what a real
  /// profiler would derive. 0 when no progress happened in the window.
  double observed_iter_time = 0.0;
  uint64_t batches_done = 0;
  Bytes max_ps_memory = 0.0;
  double worker_cpu_util = 0.0;  // used / allocated across workers
  double ps_cpu_util = 0.0;
  double worker_mem_util = 0.0;  // used / allocated across workers
  double ps_mem_util = 0.0;
};

/// Lifetime accounting for experiment reporting.
struct JobStats {
  SimTime submit_time = 0.0;
  SimTime first_training_time = -1.0;  // all pods up, first shard dispatched
  SimTime finish_time = -1.0;
  Duration downtime_checkpoint = 0.0;  // save+load on the critical path
  Duration downtime_waiting_pods = 0.0;  // paused waiting for new pods
  Duration downtime_repartition = 0.0;   // static-mode data redistribution
  int worker_failures = 0;
  int ps_failures = 0;
  int oom_events = 0;
  int full_restarts = 0;
  int migrations = 0;
  int scale_operations = 0;
  int stragglers_mitigated = 0;
  /// Make-before-break evacuations off draining nodes (completed handoffs
  /// plus whole-deployment drain migrations).
  int drain_migrations = 0;
  /// Drains that fell back to stop-and-restart under scarcity.
  int drain_fallbacks = 0;
  /// Control-plane resilience counters (all zero unless a ControlChannel is
  /// attached to the cluster). Stale/duplicate plans rejected by sequence
  /// fencing; stale plans applied anyway (fencing disabled — the hazard the
  /// unprotected bench arm measures); duplicate/late shard reports the
  /// exactly-once queue rejected; reliable shard reports that expired
  /// undelivered and were requeued.
  int plans_fenced = 0;
  int stale_plan_applies = 0;
  int shard_reports_rejected = 0;
  int shard_reports_expired = 0;
  /// Degraded-PS evidence reports sent to the node-health tracker.
  int ps_slowdown_reports = 0;
  /// Seamless migrations whose staged pods were not all Running within the
  /// watchdog window and were reverted onto the old deployment.
  int seamless_aborts = 0;
  std::string fail_reason;

  /// Job completion time; only meaningful once finished.
  Duration Jct() const { return finish_time - submit_time; }
};

/// A PS-architecture DLRM training job simulated at shard granularity.
///
/// The job owns its pods (created through the Cluster), a shards queue (or
/// static partitions), a heartbeat monitor, checkpoint state, and the
/// ground-truth iteration model. Schedulers (DLRover-RM brain or baselines)
/// steer it exclusively through ApplyPlan()/shard-size knobs and observe it
/// through profiling snapshots — the same control surface the real system
/// has.
class TrainingJob {
 public:
  TrainingJob(Simulator* sim, Cluster* cluster, const JobSpec& spec,
              const JobConfig& initial_config,
              const EnvironmentProfile& env = {});
  ~TrainingJob();

  TrainingJob(const TrainingJob&) = delete;
  TrainingJob& operator=(const TrainingJob&) = delete;

  /// Submits pods and begins training once they are up.
  void Start();

  /// Applies a new resource allocation. Worker-count-only changes under
  /// dynamic sharding are applied incrementally (no pause); anything else
  /// triggers a migration in the requested mode. Returns
  /// kFailedPrecondition while another transition is in flight.
  Status ApplyPlan(const JobConfig& new_config, MigrationMode mode);

  /// Sequence-fenced plan application for the control-plane channel: every
  /// plan the brain emits carries a strictly increasing sequence number, and
  /// a delayed duplicate or reordered stale plan (seq <= the last applied
  /// one) is rejected here — at apply time, the last line of defence — when
  /// fencing is enabled. With fencing disabled the stale plan applies anyway
  /// and is counted as a `stale_plan_applies` hazard. Without a channel
  /// attached this is exactly ApplyPlan plus sequence tracking.
  Status ApplyPlanFenced(const JobConfig& new_config, MigrationMode mode,
                         uint64_t plan_seq);

  /// Plan delivery entry point for the brain's channel messages: routes
  /// through the job master's plan gate when one is attached (so master-side
  /// fencing and crash/failover epochs apply), else falls through to
  /// ApplyPlanFenced directly.
  Status DeliverPlanFromBrain(const JobConfig& new_config, MigrationMode mode,
                              uint64_t plan_seq);

  /// Master-side plan gate (set by JobMaster when a control channel is
  /// live): receives every plan delivery before the job applies it.
  using PlanGate =
      std::function<Status(const JobConfig&, MigrationMode, uint64_t)>;
  void set_master_plan_gate(PlanGate gate) {
    master_plan_gate_ = std::move(gate);
  }
  /// The job master's registration handle with the ControlChannel (or -1):
  /// the brain pins reliable plan sends to it so deliveries to a crashed or
  /// re-epoched master are fenced at the channel.
  void set_master_channel_handle(int handle) {
    master_channel_handle_ = handle;
  }
  int master_channel_handle() const { return master_channel_handle_; }

  /// Shrinks the shard size served to `worker_index` (straggler mitigation,
  /// paper Section 5.1). 0 restores the default size.
  Status SetWorkerShardLimit(int worker_index, uint64_t max_batches);

  /// Detects stragglers via the heartbeat monitor, applies shard-size
  /// mitigation to each, and returns how many were newly mitigated.
  int MitigateStragglers();

  /// Runs the OOM predictor against the hottest PS; if an OOM is predicted
  /// before job completion, migrates to PSes with the recommended memory.
  /// Returns true if a pre-scaling migration was initiated.
  bool MaybePreventOom();

  /// Make-before-break evacuation of pods on draining (cordoned) nodes. A
  /// draining PS triggers a whole-deployment seamless migration (staged pods
  /// land off the node because placement excludes cordoned nodes); draining
  /// workers each get a staged replacement that must reach Running — image
  /// pulled, container up — before the victim is stopped. Under scarcity
  /// (replacement unschedulable within the drain fallback timeout, or repeated
  /// seamless aborts) the drain falls back to stop-and-restart. Returns how
  /// many evacuations were initiated. No-op when nothing is draining.
  int EvacuateDrainingPods();

  // --- Observers -----------------------------------------------------------
  JobState state() const { return state_; }
  const JobSpec& spec() const { return spec_; }
  const JobConfig& config() const { return config_; }
  const JobStats& stats() const { return stats_; }
  const std::vector<ThroughputSample>& history() const { return history_; }
  const EnvironmentProfile& environment() const { return env_; }
  const ModelProfile& model_profile() const { return profile_; }
  /// The in-memory flash-checkpoint tier; tests assert its async RDS flush
  /// accounting (flushed_bytes) on the migration/restart paths.
  const CacheStore& flash_cache() const { return cache_; }

  uint64_t batches_done() const;
  uint64_t total_batches() const { return spec_.total_steps; }
  double Progress() const {
    return static_cast<double>(batches_done()) /
           static_cast<double>(total_batches());
  }
  uint64_t RemainingSamples() const {
    return (total_batches() - batches_done()) * spec_.batch_size;
  }

  /// Measured throughput over the last profiling window (samples/sec).
  double MeasuredThroughput() const { return last_throughput_; }
  /// Mean of the last `samples` non-zero profiling windows: shard-level
  /// completion quantization makes single windows noisy (+-15%), so
  /// schedulers should decide on this.
  double SmoothedThroughput(size_t samples = 6) const;
  /// Number of workers actively processing shards.
  int ActiveWorkerCount() const;
  /// Current memory usage of the most loaded PS.
  Bytes MaxPsMemory() const;
  /// Workers and PSes the job holds, staged ones included. Each holds a pod
  /// that has not stopped: a member leaves its set when its pod stops.
  size_t member_count() const {
    return workers_.size() + ps_.size() + transition_.staged_workers.size() +
           transition_.staged_ps.size();
  }
  /// Current model size (dense + embeddings), i.e., checkpoint payload.
  Bytes ModelBytes() const;

  /// True once the job reached a terminal state.
  bool finished() const {
    return state_ == JobState::kCompleted || state_ == JobState::kFailed;
  }

 private:
  struct WorkerState {
    int index = 0;
    PodId pod = 0;
    bool pod_running = false;
    bool retired = false;  // the job is killing it: its stop is no loss
    bool processing = false;
    std::optional<DataShard> shard;
    EventId completion_event = 0;
    SimTime shard_start = 0.0;
    Duration shard_duration = 0.0;
    uint64_t samples_done = 0;
    uint64_t shard_limit = 0;  // 0 = default size
    // Make-before-break drain bookkeeping: a replacement carries its
    // victim's index until the handoff; a victim is marked evacuating while
    // its replacement is staged.
    int replace_victim = -1;
    bool evacuating = false;
    // Static-partition mode: owned range.
    uint64_t part_cursor = 0;
    uint64_t part_end = 0;
  };
  struct PsState {
    int index = 0;
    PodId pod = 0;
    bool pod_running = false;
    bool retired = false;
    double share = 0.0;
  };

  // A member is in a set iff it is live. A lost worker leaves its set in its
  // pod's stop handler (a lost PS gets a new pod or restarts the job); a
  // member the job retires leaves before its kill and is destroyed after it,
  // since pod callbacks hold raw member pointers.
  using WorkerSet = std::vector<std::unique_ptr<WorkerState>>;
  using PsSet = std::vector<std::unique_ptr<PsState>>;

  // Pod lifecycle plumbing. AddWorker and AddPs are the only places a member
  // is constructed; each appends a fresh index to `set` and submits its pod
  // with `config`'s request. The member is live on return: creating a
  // training pod preempts only best-effort pods, so it stops no member.
  WorkerState& AddWorker(const JobConfig& config, WorkerSet* set);
  void AddPs(const JobConfig& config, double share, PsSet* set);
  void CreateWorkerPod(WorkerState& worker, const JobConfig& config);
  void CreatePsPod(PsState& ps, const JobConfig& config);
  /// Appends `config`'s whole deployment to `workers` and `ps`: every
  /// worker first, then every PS with the matching entry of `shares`
  /// (empty = 1/num_ps each).
  void BuildDeployment(const JobConfig& config,
                       const std::vector<double>& shares, WorkerSet* workers,
                       PsSet* ps);
  /// Takes every member out of `members`, marks them all retired, kills
  /// their pods in order and destroys them once the last kill has returned.
  template <typename Member>
  void RetireMembers(std::vector<std::unique_ptr<Member>>* members,
                     bool graceful);
  void OnWorkerRunning(WorkerState& worker);
  void OnWorkerStopped(WorkerState& worker, PodStopReason reason);
  void OnPsRunning(PsState& ps);
  void OnPsStopped(PsState& ps, PodStopReason reason);
  bool AllPsRunning() const;
  WorkerState* FindWorkerByIndex(int index);
  /// Moves the worker with `index` out of workers_ or the staged workers
  /// (null when neither holds it).
  std::unique_ptr<WorkerState> TakeWorker(int index);
  /// Scarcity fallback for a stuck make-before-break handoff (see
  /// EvacuateDrainingPods).
  void DrainFallback(int victim_index, int replacement_index);

  // Training loop.
  void TryDispatchAll();
  void StartNextShard(WorkerState& worker);
  void OnShardComplete(WorkerState& worker);
  void InterruptWorker(WorkerState& worker);  // requeue with partial credit
  double WorkerIterTime(const WorkerState& worker) const;
  /// Memoized ComputeIteration. The cache key is (cluster mutation version,
  /// job mutation version, active worker count); worker speed selects an
  /// entry within the cached generation. Any pod phase/speed change bumps
  /// the cluster version and any config/PS-set change bumps the job version,
  /// so a hit is guaranteed to be byte-identical to recomputing.
  IterationBreakdown CachedIteration(int active_workers,
                                     double worker_speed) const;
  /// Invalidates CachedIteration after job-side mutations (config change,
  /// PS set rebuilt, pods retired).
  void InvalidateIterationCache() { ++job_version_; }

  // Data accounting (mode-dependent).
  StatusOr<DataShard> NextShardFor(WorkerState& worker);
  void CommitShard(WorkerState& worker, const DataShard& shard);
  void ReturnShard(WorkerState& worker, uint64_t processed_batches);
  // Control-channel shard accounting: a completed shard's report arrives at
  // the master as an at-least-once message (the exactly-once queue rejects
  // duplicates); an expired reliable report requeues the shard.
  void DeliverShardReport(int worker_index, DataShard shard,
                          uint64_t samples_at_send);
  void ReclaimLostShard(DataShard shard);
  /// The worker's node id as a channel endpoint (0 if the pod is gone).
  int WorkerNodeEndpoint(const WorkerState& worker) const;
  /// Degraded-PS detector (DESIGN §15): when the whole worker group
  /// sustains a collapse vs the job's own best smoothed throughput — with
  /// no straggler flagged and no recent rescale — charge the PS nodes.
  void MaybeReportPsSlowdown();
  bool AllDataDone() const;
  void RepartitionStatic(uint64_t completed_prefix);

  // Transitions.
  void PauseTraining();
  void ResumeTraining();
  void BeginStopAndRestart(const JobConfig& new_config);
  void BeginSeamless(const JobConfig& new_config);
  void FinishMigrationIfReady();
  void AbortSeamlessIfStuck();
  /// Every deferred step of a transition: runs `fn` after `delay` unless the
  /// job finished or the epoch moved (that transition ended) meanwhile.
  template <typename Fn>
  void ScheduleInTransition(Duration delay, Fn fn);
  /// Ends the in-flight transition: retires the staged members, clears the
  /// kind and the pending config, and bumps the epoch.
  void EndTransition();
  void RecoverFromPsLoss(PsState& ps, bool was_oom);
  /// Replaces, as a transition ends, the workers lost while it ran.
  void ReplaceLostWorkers();
  void RestartFromCheckpoint(const std::string& why);
  void Complete();
  void FailJob(const std::string& reason);
  void KillAllPods(bool graceful);
  /// The one writer of last_checkpoint_ after construction: a checkpoint of
  /// `batches` trained batches and `bytes` of model, durable now.
  void RecordCheckpoint(uint64_t batches, Bytes bytes);
  /// A disruption moved the job's throughput: the degraded-PS detector
  /// re-learns its baseline (see MaybeReportPsSlowdown).
  void ResetThroughputBaseline();

  // Periodic work.
  void ProfileTick();
  void CheckpointTick();
  void UpdateMemoryAndUsage();
  Duration CheckpointWriteTime() const;
  Duration CheckpointReadTime() const;

  Simulator* sim_;
  Cluster* cluster_;
  JobSpec spec_;
  JobConfig config_;
  EnvironmentProfile env_;
  ModelProfile profile_;
  Rng rng_;

  JobState state_ = JobState::kInitializing;
  WorkerSet workers_;
  PsSet ps_;
  std::unique_ptr<ShardQueue> shard_queue_;  // dynamic mode
  uint64_t static_completed_ = 0;            // static mode: finished batches
  HeartbeatMonitor monitor_;
  OomPredictor oom_predictor_;
  RdsStore rds_;
  CacheStore cache_;
  CheckpointRecord last_checkpoint_;
  JobStats stats_;
  std::vector<ThroughputSample> history_;

  // Transition bookkeeping (DESIGN.md, "Job transitions").
  enum class TransitionKind : int {
    kNone = 0,
    kStopRestart = 1,  // stop-and-restart migration or full restart
    kSeamless = 2,     // staged pods coming up while training continues
    kPsRecovery = 3,   // replacing a single lost PS
  };
  /// Everything an in-flight transition owns. `epoch` is the staleness
  /// token of ScheduleInTransition: it bumps when a seamless migration
  /// begins or completes its staged set, when a PS recovery begins, and in
  /// every EndTransition.
  struct Transition {
    TransitionKind kind = TransitionKind::kNone;
    uint64_t epoch = 0;
    /// The migration's target config (seamless or stop-and-restart).
    std::optional<JobConfig> pending;
    /// The seamless migration's replacement deployment.
    WorkerSet staged_workers;
    PsSet staged_ps;
    /// When a stop-and-restart killed the old pods (pod-wait accounting).
    SimTime restart_kill_time = 0.0;
  };
  Transition transition_;
  bool paused_ = false;
  /// Last OOM-prevention scale-up; throttles repeated bumps.
  SimTime last_oom_scale_ = -1.0e18;
  int next_worker_index_ = 0;
  int next_ps_index_ = 0;
  /// Consecutive seamless drain attempts that did not complete; after two,
  /// EvacuateDrainingPods falls back to stop-and-restart.
  int drain_attempts_ = 0;

  // Control-plane plan fencing + master routing (see ApplyPlanFenced).
  uint64_t last_plan_seq_ = 0;
  int master_channel_handle_ = -1;
  PlanGate master_plan_gate_;

  // Degraded-PS detector state: the job's best smoothed throughput since
  // the last disruption, and how many consecutive profile ticks the rate
  // has been collapsed below it (see MaybeReportPsSlowdown).
  double best_smoothed_ = 0.0;
  int ps_slowdown_streak_ = 0;
  SimTime last_disruption_ = 0.0;

  // Profiling window.
  uint64_t window_batches_ = 0;
  SimTime window_start_ = 0.0;
  double last_throughput_ = 0.0;

  // Iteration-law memoization (see CachedIteration). The group cache holds
  // the live PS shares and speeds for the cached generation; entries map a
  // worker speed to its precomputed breakdown.
  struct IterCacheEntry {
    double speed = 0.0;
    IterationBreakdown iter;
  };
  uint64_t job_version_ = 0;
  mutable uint64_t iter_cache_cluster_version_ = ~uint64_t{0};
  mutable uint64_t iter_cache_job_version_ = ~uint64_t{0};
  mutable int iter_cache_active_ = -1;
  mutable PsGroupState group_cache_;
  mutable std::vector<IterCacheEntry> iter_cache_;
  // Reused scratch for UpdateMemoryAndUsage (avoids a per-tick allocation).
  mutable std::vector<PsState*> live_ps_scratch_;

  std::unique_ptr<PeriodicTask> profile_task_;
  std::unique_ptr<PeriodicTask> checkpoint_task_;
};

}  // namespace dlrover

#endif  // DLROVER_PS_TRAINING_JOB_H_
