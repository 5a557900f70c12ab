#include "ps/training_job.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "cluster/control_channel.h"
#include "common/logging.h"

namespace dlrover {

namespace {
// Chunk size for static-partition processing events (same granularity as
// dynamic shards so the two modes are comparable in simulation cost).
constexpr uint64_t kStaticChunkBatches = 128;
// Time to re-partition and redistribute training data among workers after a
// static-mode restart (baseline frameworks re-shard the input pipeline).
constexpr Duration kRepartitionTime = Seconds(75);
// Profiling/reporting tick.
constexpr Duration kProfileInterval = Seconds(30);
// A job that cannot get all its pods scheduled within this window fails
// with a scheduling error (the "Scheduling" failure class of Table 4).
constexpr Duration kPendingTimeout = Minutes(90);
// Make-before-break drain: when a staged replacement for a worker on a
// draining node is still not Running after this long, give up waiting
// (scarcity) and stop-and-restart the victim through the crash path.
constexpr Duration kDrainFallbackTimeout = Minutes(6);
}  // namespace

std::string JobStateName(JobState state) {
  switch (state) {
    case JobState::kInitializing:
      return "Initializing";
    case JobState::kRunning:
      return "Running";
    case JobState::kMigrating:
      return "Migrating";
    case JobState::kRestoring:
      return "Restoring";
    case JobState::kCompleted:
      return "Completed";
    case JobState::kFailed:
      return "Failed";
  }
  return "Unknown";
}

std::string JobConfig::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{w=%d, ps=%d, cpu_w=%.1f, cpu_ps=%.1f, mem_w=%.1fG, "
                "mem_ps=%.1fG}",
                num_workers, num_ps, worker_cpu, ps_cpu, ToGiB(worker_memory),
                ToGiB(ps_memory));
  return buf;
}

TrainingJob::TrainingJob(Simulator* sim, Cluster* cluster, const JobSpec& spec,
                         const JobConfig& initial_config,
                         const EnvironmentProfile& env)
    : sim_(sim),
      cluster_(cluster),
      spec_(spec),
      config_(initial_config),
      env_(env),
      profile_(GetModelProfile(spec.model)),
      rng_(spec.seed),
      monitor_(HeartbeatMonitorOptions{}) {
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    ShardQueueOptions options;
    options.total_batches = spec_.total_steps;
    shard_queue_ = std::make_unique<ShardQueue>(options);
  }
  if (spec_.history_reserve > 0) history_.reserve(spec_.history_reserve);
  stats_.submit_time = sim_->Now();
  last_checkpoint_.trained_batches = 0;
  last_checkpoint_.saved_at = sim_->Now();
  profile_task_ = std::make_unique<PeriodicTask>(
      sim_, kProfileInterval, [this] { ProfileTick(); });
  checkpoint_task_ = std::make_unique<PeriodicTask>(
      sim_, spec_.checkpoint_interval, [this] { CheckpointTick(); });
}

TrainingJob::~TrainingJob() {
  if (!finished()) {
    state_ = JobState::kFailed;
    stats_.fail_reason = "destroyed";
  }
  // Every member's pod is live, so each kill runs its worker's stop handler,
  // which cancels the pending shard completion.
  KillAllPods(false);
}

void TrainingJob::Start() {
  // The initial deployment honours the spec's PS imbalance (normalised);
  // every later deployment balances its PSes.
  std::vector<double> shares;
  if (static_cast<int>(spec_.ps_shares.size()) == config_.num_ps) {
    shares = spec_.ps_shares;
    double total = 0.0;
    for (double s : shares) total += s;
    for (double& s : shares) s /= total;
  }
  BuildDeployment(config_, shares, &workers_, &ps_);
  if (spec_.data_mode == DataMode::kStaticPartition) {
    RepartitionStatic(0);
  }
  InvalidateIterationCache();
  profile_task_->Start();
  checkpoint_task_->Start();
}

TrainingJob::WorkerState& TrainingJob::AddWorker(const JobConfig& config,
                                                 WorkerSet* set) {
  set->push_back(std::make_unique<WorkerState>());
  WorkerState& worker = *set->back();
  worker.index = next_worker_index_++;
  CreateWorkerPod(worker, config);
  return worker;
}

void TrainingJob::AddPs(const JobConfig& config, double share, PsSet* set) {
  set->push_back(std::make_unique<PsState>());
  PsState& ps = *set->back();
  ps.index = next_ps_index_++;
  ps.share = share;
  CreatePsPod(ps, config);
}

void TrainingJob::BuildDeployment(const JobConfig& config,
                                  const std::vector<double>& shares,
                                  WorkerSet* workers, PsSet* ps) {
  for (int i = 0; i < config.num_workers; ++i) AddWorker(config, workers);
  for (int i = 0; i < config.num_ps; ++i) {
    AddPs(config,
          shares.empty() ? 1.0 / config.num_ps
                         : shares[static_cast<size_t>(i)],
          ps);
  }
}

void TrainingJob::CreateWorkerPod(WorkerState& worker,
                                  const JobConfig& config) {
  PodSpec pod_spec;
  pod_spec.name = spec_.name + "-worker-" + std::to_string(worker.index);
  pod_spec.request = config.WorkerRequest();
  pod_spec.priority = PriorityClass::kTraining;
  WorkerState* w = &worker;
  worker.pod = cluster_->CreatePod(
      std::move(pod_spec), [this, w](Pod&) { OnWorkerRunning(*w); },
      [this, w](Pod&, PodStopReason reason) { OnWorkerStopped(*w, reason); });
}

void TrainingJob::CreatePsPod(PsState& ps, const JobConfig& config) {
  PodSpec pod_spec;
  pod_spec.name = spec_.name + "-ps-" + std::to_string(ps.index);
  pod_spec.request = config.PsRequest();
  pod_spec.priority = PriorityClass::kTraining;
  PsState* p = &ps;
  ps.pod = cluster_->CreatePod(
      std::move(pod_spec), [this, p](Pod&) { OnPsRunning(*p); },
      [this, p](Pod&, PodStopReason reason) { OnPsStopped(*p, reason); });
}

bool TrainingJob::AllPsRunning() const {
  for (const auto& ps : ps_) {
    if (!ps->pod_running) return false;
  }
  return !ps_.empty();
}

void TrainingJob::OnWorkerRunning(WorkerState& worker) {
  worker.pod_running = true;
  monitor_.AddMember(static_cast<uint64_t>(worker.index), sim_->Now());
  if (worker.replace_victim >= 0) {
    // Make-before-break handoff: the replacement is up (image pulled,
    // container running), so only now is the drain victim stopped.
    // Its stop handler requeues the shard with partial credit.
    const std::unique_ptr<WorkerState> victim =
        TakeWorker(worker.replace_victim);
    worker.replace_victim = -1;
    if (victim != nullptr) {
      victim->retired = true;
      cluster_->KillPod(victim->pod);
      ++stats_.drain_migrations;
      InvalidateIterationCache();
    }
  }
  if (transition_.kind == TransitionKind::kSeamless) {
    FinishMigrationIfReady();
    // Old workers keep training; a staged worker does not dispatch yet.
    return;
  }
  TryDispatchAll();
}

void TrainingJob::OnPsRunning(PsState& ps) {
  ps.pod_running = true;
  if (transition_.kind == TransitionKind::kSeamless) {
    FinishMigrationIfReady();
    return;
  }
  if (transition_.kind == TransitionKind::kPsRecovery && AllPsRunning()) {
    // Replacement PS is up: load the checkpoint, then resume.
    const Duration load = CheckpointReadTime();
    stats_.downtime_checkpoint += load;
    ScheduleInTransition(load, [this] {
      transition_.kind = TransitionKind::kNone;
      state_ = JobState::kRunning;
      ResumeTraining();
    });
    return;
  }
  TryDispatchAll();
}

void TrainingJob::TryDispatchAll() {
  if (finished()) return;
  if (!AllPsRunning()) return;

  if (state_ == JobState::kInitializing ||
      transition_.kind == TransitionKind::kStopRestart) {
    // Stop-and-restart (or first start) waits for *all* workers as well.
    bool all_workers = !workers_.empty();
    for (const auto& w : workers_) {
      if (!w->pod_running) all_workers = false;
    }
    if (!all_workers) return;

    if (state_ == JobState::kInitializing) {
      stats_.first_training_time = sim_->Now();
      state_ = JobState::kRunning;
    } else {
      // Pods are up after a restart: charge the wait, load the checkpoint,
      // re-partition if static, then resume.
      stats_.downtime_waiting_pods +=
          sim_->Now() - transition_.restart_kill_time;
      Duration resume_delay = CheckpointReadTime();
      stats_.downtime_checkpoint += resume_delay;
      if (spec_.data_mode == DataMode::kStaticPartition) {
        resume_delay += kRepartitionTime;
        stats_.downtime_repartition += kRepartitionTime;
      }
      transition_.kind = TransitionKind::kNone;
      ScheduleInTransition(resume_delay, [this] {
        state_ = JobState::kRunning;
        ResumeTraining();
      });
      return;
    }
  }

  if (paused_) return;
  // A dispatch can complete the job, whose KillAllPods empties workers_.
  for (size_t i = 0; i < workers_.size() && !finished(); ++i) {
    WorkerState& worker = *workers_[i];
    if (worker.pod_running && !worker.processing) StartNextShard(worker);
  }
}

StatusOr<DataShard> TrainingJob::NextShardFor(WorkerState& worker) {
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    return shard_queue_->NextShard(worker.shard_limit);
  }
  if (worker.part_cursor >= worker.part_end) {
    return NotFoundError("partition exhausted");
  }
  DataShard shard;
  shard.index = 0;  // synthetic; static mode does not audit indices
  shard.start_batch = worker.part_cursor;
  shard.end_batch =
      std::min(worker.part_cursor + kStaticChunkBatches, worker.part_end);
  return shard;
}

void TrainingJob::StartNextShard(WorkerState& worker) {
  if (finished() || paused_ || !worker.pod_running) return;
  auto shard_or = NextShardFor(worker);
  if (!shard_or.ok()) {
    worker.processing = false;
    if (AllDataDone()) Complete();
    return;
  }
  worker.shard = *shard_or;
  worker.processing = true;
  worker.shard_start = sim_->Now();
  const double iter = WorkerIterTime(worker);
  const double noise = rng_.LogNormal(1.0, env_.timing_noise_sigma);
  worker.shard_duration =
      static_cast<double>(worker.shard->batches()) * iter * noise;
  WorkerState* w = &worker;
  worker.completion_event = sim_->ScheduleAfter(
      worker.shard_duration, [this, w] { OnShardComplete(*w); });
}

double TrainingJob::WorkerIterTime(const WorkerState& worker) const {
  const Pod* pod = cluster_->GetPod(worker.pod);
  const double speed = pod != nullptr ? pod->speed_factor : 1.0;
  return CachedIteration(ActiveWorkerCount(), speed).Total();
}

IterationBreakdown TrainingJob::CachedIteration(int active_workers,
                                                double worker_speed) const {
  const uint64_t cluster_version = cluster_->mutation_version();
  if (cluster_version != iter_cache_cluster_version_ ||
      job_version_ != iter_cache_job_version_ ||
      active_workers != iter_cache_active_) {
    // New generation: rebuild the PS-group snapshot (live PS shares and pod
    // speeds, reusing the vectors' capacity) and drop the per-speed entries.
    group_cache_.shares.clear();
    group_cache_.speeds.clear();
    for (const auto& ps : ps_) {
      const Pod* pod = cluster_->GetPod(ps->pod);
      group_cache_.shares.push_back(ps->share);
      group_cache_.speeds.push_back(pod != nullptr ? pod->speed_factor : 1.0);
    }
    if (group_cache_.shares.empty()) {
      group_cache_.shares.push_back(1.0);
      group_cache_.speeds.push_back(1.0);
    }
    iter_cache_.clear();
    iter_cache_cluster_version_ = cluster_version;
    iter_cache_job_version_ = job_version_;
    iter_cache_active_ = active_workers;
  }
  for (const IterCacheEntry& entry : iter_cache_) {
    if (entry.speed == worker_speed) return entry.iter;
  }
  // A generation rarely sees more than a couple of distinct speeds (healthy
  // 1.0 plus a straggler or two); cap the linear scan regardless.
  if (iter_cache_.size() >= 64) iter_cache_.clear();
  iter_cache_.push_back(IterCacheEntry{
      worker_speed,
      ComputeIteration(profile_, env_, spec_.batch_size, active_workers,
                       config_, worker_speed, group_cache_)});
  return iter_cache_.back().iter;
}

void TrainingJob::OnShardComplete(WorkerState& worker) {
  worker.completion_event = 0;
  if (!worker.shard.has_value()) return;
  const DataShard shard = *worker.shard;
  worker.shard.reset();
  worker.processing = false;
  ControlChannel* ch = cluster_->control_channel();
  if (ch != nullptr && spec_.data_mode == DataMode::kDynamicSharding) {
    // Channel path: the completion report (which doubles as the liveness
    // heartbeat) rides the lossy control plane as a reliable at-least-once
    // send; the worker moves on to its next shard immediately, the way the
    // real worker does not wait for the master's bookkeeping. If every
    // copy is lost past the deadline, the sender-side recovery hook
    // requeues the shard (exactly-once is held by the queue either way).
    worker.samples_done += shard.batches() * spec_.batch_size;
    const int wi = worker.index;
    const uint64_t samples = worker.samples_done;
    ch->SendReliable(
        ControlMessageKind::kShardReport, WorkerNodeEndpoint(worker),
        ControlChannel::kMaster,
        [this, wi, shard, samples] { DeliverShardReport(wi, shard, samples); },
        [this, shard] { ReclaimLostShard(shard); });
    StartNextShard(worker);
    return;
  }
  CommitShard(worker, shard);
  worker.samples_done += shard.batches() * spec_.batch_size;
  monitor_.Heartbeat(static_cast<uint64_t>(worker.index), sim_->Now(),
                     worker.samples_done);
  if (AllDataDone()) {
    Complete();
    return;
  }
  StartNextShard(worker);
}

void TrainingJob::DeliverShardReport(int worker_index, DataShard shard,
                                     uint64_t samples_at_send) {
  if (finished()) return;
  // Every arriving copy is fresh liveness evidence; the monitor's
  // monotonic-timestamp and fence guards absorb duplicates and packets for
  // workers the master already gave up on.
  monitor_.Heartbeat(static_cast<uint64_t>(worker_index), sim_->Now(),
                     samples_at_send);
  if (spec_.data_mode != DataMode::kDynamicSharding) return;
  const Status status = shard_queue_->ReportCompleted(shard);
  if (!status.ok()) {
    // Duplicate copy, or a report for an index the master already retired
    // (requeued after expiry, restored from checkpoint, ...). The
    // exactly-once queue rejected it; nothing double-counts.
    ++stats_.shard_reports_rejected;
    return;
  }
  if (AllDataDone()) Complete();
}

void TrainingJob::ReclaimLostShard(DataShard shard) {
  if (finished() || spec_.data_mode != DataMode::kDynamicSharding) return;
  // The report's retry deadline passed with no acknowledgement. Requeue the
  // whole shard; if a copy did land (only the acks were lost), the index is
  // already retired and this is a safe rejected no-op.
  const Status status = shard_queue_->ReportFailed(shard, 0);
  if (!status.ok()) return;
  ++stats_.shard_reports_expired;
  if (!paused_ && state_ == JobState::kRunning) TryDispatchAll();
}

int TrainingJob::WorkerNodeEndpoint(const WorkerState& worker) const {
  const Pod* pod = cluster_->GetPod(worker.pod);
  return pod != nullptr ? static_cast<int>(pod->node) : 0;
}

void TrainingJob::CommitShard(WorkerState& worker, const DataShard& shard) {
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    const Status status = shard_queue_->ReportCompleted(shard);
    if (!status.ok()) {
      DLROVER_LOG_STREAM(Warning)
          << spec_.name << ": shard completion rejected: " << status;
    }
  } else {
    static_completed_ += shard.batches();
    worker.part_cursor = shard.end_batch;
  }
}

void TrainingJob::ReturnShard(WorkerState& worker,
                              uint64_t processed_batches) {
  if (!worker.shard.has_value()) return;
  const DataShard shard = *worker.shard;
  worker.shard.reset();
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    const Status status = shard_queue_->ReportFailed(shard, processed_batches);
    if (!status.ok()) {
      DLROVER_LOG_STREAM(Warning)
          << spec_.name << ": shard return rejected: " << status;
    }
  } else {
    static_completed_ += processed_batches;
    worker.part_cursor = shard.start_batch + processed_batches;
  }
  worker.samples_done += processed_batches * spec_.batch_size;
}

void TrainingJob::InterruptWorker(WorkerState& worker) {
  if (worker.completion_event != 0) {
    sim_->Cancel(worker.completion_event);
    worker.completion_event = 0;
  }
  if (worker.processing && worker.shard.has_value()) {
    const double elapsed = sim_->Now() - worker.shard_start;
    const double frac =
        worker.shard_duration > 0.0
            ? std::clamp(elapsed / worker.shard_duration, 0.0, 1.0)
            : 0.0;
    const uint64_t processed = static_cast<uint64_t>(
        frac * static_cast<double>(worker.shard->batches()));
    ReturnShard(worker, processed);
  }
  worker.processing = false;
}

bool TrainingJob::AllDataDone() const {
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    return shard_queue_->AllDone();
  }
  return static_completed_ >= spec_.total_steps;
}

uint64_t TrainingJob::batches_done() const {
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    return shard_queue_->completed_batches();
  }
  return static_completed_;
}

void TrainingJob::RepartitionStatic(uint64_t completed_prefix) {
  static_completed_ = completed_prefix;
  const uint64_t remaining = spec_.total_steps - completed_prefix;
  if (workers_.empty()) return;
  const uint64_t per = remaining / workers_.size();
  uint64_t extra = remaining % workers_.size();
  uint64_t cursor = completed_prefix;
  for (auto& w : workers_) {
    const uint64_t span = per + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    w->part_cursor = cursor;
    w->part_end = cursor + span;
    cursor += span;
  }
}

void TrainingJob::OnWorkerStopped(WorkerState& worker, PodStopReason reason) {
  InterruptWorker(worker);
  worker.pod_running = false;
  // Fence the id so a late heartbeat cannot resurrect a ghost member: a lossy
  // control plane can deliver this worker's in-flight packets after the
  // master gave up on it (worker indices are never reused).
  monitor_.FenceMember(static_cast<uint64_t>(worker.index));
  // An owner-kill on a member we did NOT retire is an *external* deletion
  // (another controller / operator) — handle it like a crash. Every
  // job-initiated kill marks the member retired first.
  if (worker.retired || reason == PodStopReason::kCompleted || finished()) {
    return;
  }
  ++stats_.worker_failures;

  if (spec_.data_mode == DataMode::kStaticPartition) {
    // Static partitioning cannot absorb a lost worker: full restart.
    RestartFromCheckpoint("worker loss under static partitioning");
    return;
  }
  // The unfinished shard is already back in the queue; peers keep going.
  // The lost worker leaves its set now and is destroyed as this returns.
  const std::unique_ptr<WorkerState> lost = TakeWorker(worker.index);
  if (worker.replace_victim >= 0) {
    // A make-before-break replacement died before its handoff. If the
    // victim is still alive, clear its evacuating mark so a later drain
    // tick retries, and do not auto-replace (the victim is still
    // training). If the victim died meanwhile, this replacement *was* its
    // relaunch — fall through to the normal auto-replace path.
    WorkerState* victim = FindWorkerByIndex(worker.replace_victim);
    if (victim != nullptr) {
      victim->evacuating = false;
      return;
    }
  } else if (worker.evacuating) {
    // A staged replacement is already on its way for this worker; it
    // becomes the relaunch, so skip the normal auto-replace (otherwise
    // the job would grow a worker).
    return;
  }
  if (transition_.kind == TransitionKind::kNone) {  // else ReplaceLostWorkers
    AddWorker(config_, &workers_).shard_limit = worker.shard_limit;
  }
}

void TrainingJob::OnPsStopped(PsState& ps, PodStopReason reason) {
  ps.pod_running = false;
  if (ps.retired || reason == PodStopReason::kCompleted || finished()) {
    return;
  }
  ++stats_.ps_failures;
  const bool was_oom = reason == PodStopReason::kOomKill;
  if (was_oom) ++stats_.oom_events;

  if (spec_.data_mode == DataMode::kDynamicSharding &&
      transition_.kind == TransitionKind::kNone) {
    RecoverFromPsLoss(ps, was_oom);
  } else {
    RestartFromCheckpoint(was_oom ? "ps oom" : "ps loss");
  }
}

void TrainingJob::RecoverFromPsLoss(PsState& ps, bool was_oom) {
  state_ = JobState::kRestoring;
  transition_.kind = TransitionKind::kPsRecovery;
  ++transition_.epoch;  // a restart's pending resume ends here
  PauseTraining();
  // Parameters on the lost PS are gone: training rolls back to the last
  // checkpoint (flash-checkpoint keeps this window tiny).
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    shard_queue_->FastForwardTo(last_checkpoint_.trained_batches);
  }
  if (was_oom) {
    // Reactive vertical scale so the replacement does not die again.
    config_.ps_memory =
        std::max(config_.ps_memory * 1.5, MaxPsMemory() * 1.3);
  }
  CreatePsPod(ps, config_);  // reuse the same logical PS (same share)
  InvalidateIterationCache();
}

void TrainingJob::RestartFromCheckpoint(const std::string& why) {
  if (finished()) return;
  ++stats_.full_restarts;
  if (stats_.full_restarts > spec_.max_restarts) {
    FailJob("restart budget exhausted: " + why);
    return;
  }
  state_ = JobState::kRestoring;
  PauseTraining();

  // Roll data consumption back to the checkpoint.
  if (spec_.data_mode == DataMode::kDynamicSharding) {
    shard_queue_->FastForwardTo(last_checkpoint_.trained_batches);
  } else {
    static_completed_ = last_checkpoint_.trained_batches;
  }

  // Every member goes, a seamless migration's staged ones included, so they
  // cannot wedge a future migration.
  KillAllPods(false);
  // Whatever transition this restart interrupts ends here. (Nothing reads
  // the kind before this line: pods report Running only from a scheduled
  // event, and the kills above reach only retired members, whose stop
  // handlers return first.)
  EndTransition();
  transition_.kind = TransitionKind::kStopRestart;
  transition_.restart_kill_time = sim_->Now();

  // Fresh pod sets with the current configuration.
  BuildDeployment(config_, {}, &workers_, &ps_);
  if (spec_.data_mode == DataMode::kStaticPartition) {
    RepartitionStatic(static_completed_);
  }
  InvalidateIterationCache();
}

Status TrainingJob::ApplyPlan(const JobConfig& new_config,
                              MigrationMode mode) {
  if (finished()) return FailedPreconditionError("job already finished");
  if (state_ != JobState::kRunning) {
    return FailedPreconditionError("job is not in a steady running state");
  }
  if (new_config.num_workers < 1 || new_config.num_ps < 1) {
    return InvalidArgumentError("plan must keep at least 1 worker and 1 ps");
  }

  const bool worker_count_only =
      new_config.num_ps == config_.num_ps &&
      new_config.worker_cpu == config_.worker_cpu &&
      new_config.ps_cpu == config_.ps_cpu &&
      new_config.worker_memory == config_.worker_memory &&
      new_config.ps_memory == config_.ps_memory &&
      new_config.num_workers != config_.num_workers;

  if (worker_count_only && mode == MigrationMode::kSeamless &&
      spec_.data_mode == DataMode::kDynamicSharding) {
    // Fast elasticity: workers join/leave the shards queue with no pause.
    ++stats_.scale_operations;
    const int delta = new_config.num_workers - config_.num_workers;
    if (delta > 0) {
      for (int i = 0; i < delta; ++i) AddWorker(config_, &workers_);
    } else {
      // The newest workers leave, newest first.
      WorkerSet leaving;
      for (int i = delta; i < 0 && !workers_.empty(); ++i) {
        leaving.push_back(std::move(workers_.back()));
        workers_.pop_back();
      }
      RetireMembers(&leaving, false);
    }
    config_.num_workers = new_config.num_workers;
    InvalidateIterationCache();
    // The worker group just changed size: the throughput baseline moves.
    ResetThroughputBaseline();
    return Status::OK();
  }

  if (mode == MigrationMode::kStopAndRestart) {
    BeginStopAndRestart(new_config);
  } else {
    BeginSeamless(new_config);
  }
  return Status::OK();
}

Status TrainingJob::ApplyPlanFenced(const JobConfig& new_config,
                                    MigrationMode mode, uint64_t plan_seq) {
  ControlChannel* ch = cluster_->control_channel();
  if (ch != nullptr && plan_seq <= last_plan_seq_ && last_plan_seq_ != 0) {
    if (ch->fencing_enabled()) {
      ++stats_.plans_fenced;
      ch->NotePlanFenced(spec_.seed, plan_seq);
      return FailedPreconditionError(
          "stale plan fenced: seq <= last applied plan");
    }
    // Fencing off (the unprotected arm): the stale plan applies like any
    // other, and each successful stale apply is counted as a hazard.
    const Status status = ApplyPlan(new_config, mode);
    if (status.ok()) {
      ++stats_.stale_plan_applies;
      ch->NoteStalePlanApplied(spec_.seed, plan_seq);
    }
    return status;
  }
  const Status status = ApplyPlan(new_config, mode);
  if (status.ok()) last_plan_seq_ = std::max(last_plan_seq_, plan_seq);
  return status;
}

Status TrainingJob::DeliverPlanFromBrain(const JobConfig& new_config,
                                         MigrationMode mode,
                                         uint64_t plan_seq) {
  if (master_plan_gate_) return master_plan_gate_(new_config, mode, plan_seq);
  return ApplyPlanFenced(new_config, mode, plan_seq);
}

void TrainingJob::BeginStopAndRestart(const JobConfig& new_config) {
  ++stats_.migrations;
  state_ = JobState::kMigrating;
  transition_.kind = TransitionKind::kStopRestart;
  transition_.pending = new_config;
  PauseTraining();

  // Save a checkpoint on the critical path (paper: 5-10 min to RDS).
  const Duration save = CheckpointWriteTime();
  stats_.downtime_checkpoint += save;
  ScheduleInTransition(save, [this] {
    RecordCheckpoint(batches_done(), ModelBytes());
    // The flash tier persists to RDS off the critical path; without this
    // the migration checkpoint would exist only in volatile memory.
    if (spec_.use_flash_checkpoint) {
      cache_.AsyncFlushToRds(last_checkpoint_.bytes);
    }
    KillAllPods(false);
    transition_.restart_kill_time = sim_->Now();
    config_ = *transition_.pending;
    transition_.pending.reset();
    InvalidateIterationCache();
    BuildDeployment(config_, {}, &workers_, &ps_);
    if (spec_.data_mode == DataMode::kStaticPartition) {
      RepartitionStatic(static_completed_);
    }
  });
}

void TrainingJob::BeginSeamless(const JobConfig& new_config) {
  state_ = JobState::kMigrating;
  transition_.kind = TransitionKind::kSeamless;
  transition_.pending = new_config;
  // Watchdog: if the staged deployment cannot be scheduled (capacity,
  // oversized pods), abort and keep training on the old pods rather than
  // wedging the job in kMigrating forever.
  ++transition_.epoch;
  ScheduleInTransition(Minutes(12), [this] { AbortSeamlessIfStuck(); });
  // Stage the full replacement deployment; old pods keep training.
  BuildDeployment(new_config, {}, &transition_.staged_workers,
                  &transition_.staged_ps);
}

void TrainingJob::AbortSeamlessIfStuck() {
  ++stats_.seamless_aborts;
  EndTransition();
  state_ = JobState::kRunning;
  ReplaceLostWorkers();
}

void TrainingJob::FinishMigrationIfReady() {
  if (transition_.kind != TransitionKind::kSeamless) return;
  // A staged worker that died left its set, so wait for the whole set (or
  // the watchdog). A staged PS cannot go missing: its loss restarts the job.
  if (static_cast<int>(transition_.staged_workers.size()) !=
      transition_.pending->num_workers) {
    return;
  }
  for (const auto& w : transition_.staged_workers) {
    if (!w->pod_running) return;
  }
  for (const auto& p : transition_.staged_ps) {
    if (!p->pod_running) return;
  }
  // Everything staged is up: pause, hand over state via flash-checkpoint,
  // swap pod sets, resume. Only the checkpoint handoff pauses training.
  ++transition_.epoch;  // disarms the watchdog
  PauseTraining();
  const Duration save = CheckpointWriteTime();
  const Duration load = CheckpointReadTime();
  stats_.downtime_checkpoint += save + load;
  if (spec_.use_flash_checkpoint) {
    cache_.AsyncFlushToRds(ModelBytes());
  }
  ScheduleInTransition(save + load, [this] {
    RecordCheckpoint(batches_done(), ModelBytes());
    RetireMembers(&workers_, false);
    RetireMembers(&ps_, false);
    workers_.swap(transition_.staged_workers);
    ps_.swap(transition_.staged_ps);
    config_ = *transition_.pending;
    EndTransition();
    InvalidateIterationCache();
    ++stats_.migrations;
    state_ = JobState::kRunning;
    ResumeTraining();
  });
}

template <typename Fn>
void TrainingJob::ScheduleInTransition(Duration delay, Fn fn) {
  sim_->ScheduleAfter(delay, [this, epoch = transition_.epoch, fn] {
    if (!finished() && epoch == transition_.epoch) fn();
  });
}

void TrainingJob::EndTransition() {
  RetireMembers(&transition_.staged_workers, false);
  RetireMembers(&transition_.staged_ps, false);
  transition_.pending.reset();
  transition_.kind = TransitionKind::kNone;
  ++transition_.epoch;
}

void TrainingJob::PauseTraining() {
  if (paused_) return;
  paused_ = true;
  for (auto& w : workers_) InterruptWorker(*w);
}

void TrainingJob::ResumeTraining() {
  if (!paused_) return;
  paused_ = false;
  ReplaceLostWorkers();
  // Any pause (migration, recovery, restart) legitimately moves the job's
  // throughput baseline: re-learn the best rate before trusting the
  // degraded-PS collapse detector again.
  ResetThroughputBaseline();
  TryDispatchAll();
}

void TrainingJob::ReplaceLostWorkers() {
  // A staged drain replacement stands in for its victim, so it is not counted.
  int live = static_cast<int>(std::count_if(
      workers_.begin(), workers_.end(),
      [](const auto& w) { return w->replace_victim < 0; }));
  for (; live < config_.num_workers; ++live) AddWorker(config_, &workers_);
}

void TrainingJob::ResetThroughputBaseline() {
  last_disruption_ = sim_->Now();
  best_smoothed_ = 0.0;
  ps_slowdown_streak_ = 0;
}

Status TrainingJob::SetWorkerShardLimit(int worker_index,
                                        uint64_t max_batches) {
  WorkerState* w = FindWorkerByIndex(worker_index);
  if (w == nullptr) return NotFoundError("no active worker with that index");
  w->shard_limit = max_batches;
  return Status::OK();
}

int TrainingJob::MitigateStragglers() {
  // Straggler *detection* is heartbeat bookkeeping and works in every data
  // mode; only the shard-limit *mitigation* below needs dynamic sharding.
  // Static-partition jobs still feed node-health evidence — a degraded node
  // must not go unnoticed just because its resident jobs cannot rebalance.
  const bool can_mitigate = spec_.data_mode == DataMode::kDynamicSharding;
  if (!can_mitigate && !cluster_->node_health_enabled()) return 0;
  const std::vector<uint64_t> stragglers =
      monitor_.DetectStragglers(sim_->Now());
  int mitigated = 0;
  if (can_mitigate) {
    for (uint64_t id : stragglers) {
      ShardQueueOptions defaults;
      const uint64_t small = std::max<uint64_t>(
          defaults.min_shard_batches, defaults.default_shard_batches / 8);
      if (SetWorkerShardLimit(static_cast<int>(id), small).ok()) {
        ++mitigated;
        ++stats_.stragglers_mitigated;
      }
    }
  }
  // Node-health evidence: every member the monitor currently holds a
  // straggler verdict against charges its node each tick, so a degraded
  // node keeps accumulating suspicion until it is cordoned. Gated on the
  // cluster's control plane so the default configuration is untouched.
  if (cluster_->node_health_enabled()) {
    ControlChannel* ch = cluster_->control_channel();
    monitor_.ForEachMember([&](uint64_t member, const MemberHealth& health) {
      if (!health.flagged_straggler) return;
      for (auto& w : workers_) {
        if (static_cast<uint64_t>(w->index) != member) continue;
        if (w->pod_running) {
          if (ch != nullptr) {
            // Verdicts cross the master -> brain hop, so a cell partition
            // (brain unreachable) delays or loses them; the per-tick
            // re-report from this loop makes the evidence self-healing.
            const PodId pod = w->pod;
            ch->Send(ControlMessageKind::kStragglerVerdict,
                     ControlChannel::kMaster, ControlChannel::kBrain,
                     [this, pod] { cluster_->ReportStragglerEvidence(pod); });
          } else {
            cluster_->ReportStragglerEvidence(w->pod);
          }
        }
        break;
      }
    });
  }
  return mitigated;
}

TrainingJob::WorkerState* TrainingJob::FindWorkerByIndex(int index) {
  for (auto& w : workers_) {
    if (w->index == index) return w.get();
  }
  return nullptr;
}

std::unique_ptr<TrainingJob::WorkerState> TrainingJob::TakeWorker(int index) {
  for (WorkerSet* set : {&workers_, &transition_.staged_workers}) {
    for (auto it = set->begin(); it != set->end(); ++it) {
      if ((*it)->index != index) continue;
      std::unique_ptr<WorkerState> worker = std::move(*it);
      set->erase(it);
      return worker;
    }
  }
  return nullptr;
}

int TrainingJob::EvacuateDrainingPods() {
  if (finished() || paused_ || state_ != JobState::kRunning ||
      transition_.kind != TransitionKind::kNone) {
    return 0;
  }
  // A draining PS cannot be replaced one-for-one (its parameter shard must
  // move), so the whole deployment migrates seamlessly: staged pods land off
  // the node because placement excludes cordoned nodes, and training pauses
  // only for the checkpoint handoff.
  bool ps_draining = false;
  for (const auto& ps : ps_) {
    const Pod* pod = cluster_->GetPod(ps->pod);
    if (pod != nullptr && !pod->terminal() && cluster_->IsDraining(pod->node)) {
      ps_draining = true;
      break;
    }
  }
  if (ps_draining) {
    if (drain_attempts_ >= 2) {
      // Two seamless attempts aborted (staged pods unschedulable under
      // scarcity): stop-and-restart frees the job's capacity first, so the
      // rebuild cannot be starved by the job's own footprint.
      drain_attempts_ = 0;
      ++stats_.drain_fallbacks;
      if (ApplyPlan(config_, MigrationMode::kStopAndRestart).ok()) {
        ++stats_.drain_migrations;
        return 1;
      }
      return 0;
    }
    ++drain_attempts_;
    if (ApplyPlan(config_, MigrationMode::kSeamless).ok()) return 1;
    return 0;
  }
  drain_attempts_ = 0;
  // Workers evacuate one-for-one, make-before-break: stage a replacement
  // now, stop the victim only when it reaches Running (see OnWorkerRunning).
  int staged = 0;
  const size_t count = workers_.size();  // replacements append; skip them
  for (size_t i = 0; i < count; ++i) {
    WorkerState& victim = *workers_[i];
    if (!victim.pod_running || victim.evacuating ||
        victim.replace_victim >= 0) {
      continue;
    }
    const Pod* pod = cluster_->GetPod(victim.pod);
    if (pod == nullptr || pod->terminal()) continue;
    if (!cluster_->IsDraining(pod->node)) continue;
    victim.evacuating = true;
    WorkerState& replacement = AddWorker(config_, &workers_);
    replacement.shard_limit = victim.shard_limit;
    replacement.replace_victim = victim.index;
    // Scarcity fallback: if the replacement has not reached Running by the
    // deadline, give up on make-before-break for this worker.
    const int victim_index = victim.index;
    const int repl_index = replacement.index;
    sim_->ScheduleAfter(kDrainFallbackTimeout,
                        [this, victim_index, repl_index] {
                          DrainFallback(victim_index, repl_index);
                        });
    ++staged;
  }
  return staged;
}

void TrainingJob::DrainFallback(int victim_index, int replacement_index) {
  if (finished() || transition_.kind != TransitionKind::kNone) return;
  WorkerState* replacement = FindWorkerByIndex(replacement_index);
  // Handoff already happened, the replacement died (its stop handler reset
  // the victim), or a restart rebuilt the worker set: nothing to do.
  if (replacement == nullptr || replacement->pod_running ||
      replacement->replace_victim < 0) {
    return;
  }
  // Still pending after the deadline: scarcity. Abandon make-before-break —
  // retire the stuck replacement and stop-and-restart the victim through the
  // normal crash path (auto-replace, off-node placement).
  ++stats_.drain_fallbacks;
  const std::unique_ptr<WorkerState> stuck = TakeWorker(replacement_index);
  stuck->retired = true;
  cluster_->KillPod(stuck->pod);
  WorkerState* victim = FindWorkerByIndex(victim_index);
  if (victim != nullptr) {
    victim->evacuating = false;
    cluster_->KillPod(victim->pod);
  }
}

bool TrainingJob::MaybePreventOom() {
  if (state_ != JobState::kRunning) return false;
  // Each scale-up must buy a quiet period: without a cooldown the trigger
  // threshold (0.9x limit) catches up with the fresh headroom within a few
  // ticks and the job churns through migrations.
  if (sim_->Now() - last_oom_scale_ < Minutes(12)) return false;
  const double throughput = MeasuredThroughput();
  if (throughput <= 0.0) return false;
  const double remaining_sec =
      static_cast<double>(RemainingSamples()) / throughput;
  // Size for the nearer of job completion and a fixed lookahead window:
  // seamless flash-checkpoint migrations are cheap, so growing memory in
  // steps keeps the allocation tracking actual usage (high MUR) instead of
  // paying the whole end-of-job footprint up front.
  const Duration lookahead = Minutes(45);
  const SimTime horizon = sim_->Now() + std::min(remaining_sec, lookahead);
  const auto recommended =
      oom_predictor_.RecommendLimit(config_.ps_memory, horizon);
  if (!recommended.has_value()) return false;

  // No node can host a pod bigger than itself: when the projected per-PS
  // footprint exceeds what a node offers, scale the PS group *out* so the
  // rebalanced shares shrink each server's slice (paper Section 5.3:
  // "scales the PSes with larger memory capacity").
  const Bytes pod_cap = cluster_->options().node_capacity.memory * 0.85;
  JobConfig new_config = config_;
  Bytes per_ps = *recommended;
  if (per_ps > pod_cap) {
    const int new_p = static_cast<int>(
        std::ceil(static_cast<double>(config_.num_ps) * per_ps / pod_cap));
    new_config.num_ps = std::min(new_p, 16);
    per_ps = std::min(
        pod_cap, per_ps * static_cast<double>(config_.num_ps) /
                     static_cast<double>(new_config.num_ps) * 1.2);
  }
  new_config.ps_memory = per_ps;
  const bool applied = ApplyPlan(new_config, MigrationMode::kSeamless).ok();
  if (applied) last_oom_scale_ = sim_->Now();
  return applied;
}

void TrainingJob::Complete() {
  if (finished()) return;
  state_ = JobState::kCompleted;
  stats_.finish_time = sim_->Now();
  profile_task_->Stop();
  checkpoint_task_->Stop();
  KillAllPods(true);
}

void TrainingJob::FailJob(const std::string& reason) {
  if (finished()) return;
  state_ = JobState::kFailed;
  stats_.finish_time = sim_->Now();
  stats_.fail_reason = reason;
  profile_task_->Stop();
  checkpoint_task_->Stop();
  KillAllPods(false);
}

void TrainingJob::KillAllPods(bool graceful) {
  // Two passes: killing a pod can cascade (freed capacity -> placements ->
  // preemptions) into stop callbacks for *this job's other pods*. Marking
  // everything retired first makes those callbacks no-ops, so the kill loop
  // cannot re-enter restart/recovery logic mid-iteration. Every set is empty
  // afterwards.
  auto retire_all = [](auto& members) {
    for (auto& m : members) m->retired = true;
  };
  retire_all(workers_);
  retire_all(ps_);
  retire_all(transition_.staged_workers);
  retire_all(transition_.staged_ps);
  InvalidateIterationCache();
  RetireMembers(&workers_, graceful);
  RetireMembers(&ps_, graceful);
  RetireMembers(&transition_.staged_workers, graceful);
  RetireMembers(&transition_.staged_ps, graceful);
}

template <typename Member>
void TrainingJob::RetireMembers(
    std::vector<std::unique_ptr<Member>>* members, bool graceful) {
  // The members leave the set before the first kill, so a kill that cascades
  // into another member's stop handler never erases under this loop. A
  // worker's stop handler requeues its shard.
  const std::vector<std::unique_ptr<Member>> leaving =
      std::exchange(*members, {});
  for (const auto& m : leaving) m->retired = true;
  // A member whose pod a cascade already stopped is killed again as a no-op:
  // Cluster::KillPod returns early on a terminal pod and a recycled id.
  for (const auto& m : leaving) cluster_->KillPod(m->pod, graceful);
}

int TrainingJob::ActiveWorkerCount() const {
  int count = 0;
  for (const auto& w : workers_) {
    if (w->pod_running) ++count;
  }
  return count;
}

Bytes TrainingJob::MaxPsMemory() const {
  // Memory is spread evenly across PSes: a "hot" PS is a *compute*
  // hotspot (frequently accessed tensors), not necessarily a larger slice
  // of rows; OOM pressure comes from table growth and undersized limits.
  const Bytes emb = profile_.EmbeddingBytesAt(
      static_cast<double>(batches_done()) *
      static_cast<double>(spec_.batch_size));
  if (ps_.empty()) return profile_.ps_static_bytes;
  return profile_.ps_static_bytes + emb / static_cast<double>(ps_.size());
}

Bytes TrainingJob::ModelBytes() const {
  return profile_.dense_param_bytes +
         profile_.EmbeddingBytesAt(static_cast<double>(batches_done()) *
                                   static_cast<double>(spec_.batch_size));
}

double TrainingJob::SmoothedThroughput(size_t samples) const {
  double sum = 0.0;
  size_t count = 0;
  for (auto it = history_.rbegin(); it != history_.rend() && count < samples;
       ++it) {
    if (it->samples_per_sec <= 0.0) continue;
    sum += it->samples_per_sec;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

Duration TrainingJob::CheckpointWriteTime() const {
  return spec_.use_flash_checkpoint ? cache_.WriteTime(ModelBytes())
                                    : rds_.WriteTime(ModelBytes());
}

Duration TrainingJob::CheckpointReadTime() const {
  return spec_.use_flash_checkpoint ? cache_.ReadTime(ModelBytes())
                                    : rds_.ReadTime(ModelBytes());
}

void TrainingJob::CheckpointTick() {
  if (finished()) return;
  // Training continues during a seamless migration, so checkpoints must
  // too; only hard transitions (restart / PS recovery) skip ticks.
  const bool training_live =
      state_ == JobState::kRunning ||
      (state_ == JobState::kMigrating &&
       transition_.kind == TransitionKind::kSeamless);
  if (!training_live) return;
  // Periodic fault-tolerance checkpoints run asynchronously (snapshot is
  // consistent as of now, becomes durable after the write completes).
  const uint64_t batches = batches_done();
  const Bytes bytes = ModelBytes();
  const Duration write = CheckpointWriteTime();
  sim_->ScheduleAfter(write, [this, batches, bytes] {
    if (finished()) return;
    if (batches >= last_checkpoint_.trained_batches) {
      RecordCheckpoint(batches, bytes);
    }
  });
  if (spec_.use_flash_checkpoint) cache_.AsyncFlushToRds(bytes);
}

void TrainingJob::RecordCheckpoint(uint64_t batches, Bytes bytes) {
  last_checkpoint_.saved_at = sim_->Now();
  last_checkpoint_.trained_batches = batches;
  last_checkpoint_.bytes = bytes;
  last_checkpoint_.store =
      spec_.use_flash_checkpoint ? cache_.name() : rds_.name();
}

void TrainingJob::UpdateMemoryAndUsage() {
  const Bytes emb = profile_.EmbeddingBytesAt(
      static_cast<double>(batches_done()) *
      static_cast<double>(spec_.batch_size));
  const int active = std::max(1, ActiveWorkerCount());
  const IterationBreakdown healthy = CachedIteration(active, 1.0);
  const double t_iter = std::max(1e-9, healthy.Total());

  // Parameter servers: memory tracks embedding growth; CPU tracks the share
  // of the iteration spent in updates + lookups, scaled by each PS's load
  // relative to a balanced peer. group_cache_ is this tick's PS-group
  // snapshot: CachedIteration above brought it up to date.
  const double balanced_inv_p =
      1.0 / std::max<size_t>(1, group_cache_.shares.size());
  std::vector<PsState*>& live_ps = live_ps_scratch_;
  live_ps.clear();
  for (auto& ps : ps_) {
    if (ps->pod_running) live_ps.push_back(ps.get());
  }
  for (PsState* ps : live_ps) {
    Pod* pod = cluster_->GetMutablePod(ps->pod);
    if (pod == nullptr) continue;
    const double speed = std::max(1e-3, pod->speed_factor);
    const double relative_load =
        (ps->share / speed) / std::max(1e-9, balanced_inv_p);
    const double busy =
        std::clamp((healthy.t_upd + healthy.t_emb) / t_iter * relative_load,
                   0.0, 1.0);
    ResourceSpec usage;
    usage.cpu = std::min(config_.ps_cpu, profile_.max_ps_parallelism) * busy;
    usage.memory =
        profile_.ps_static_bytes + emb / static_cast<double>(live_ps.size());
    cluster_->ReportUsage(ps->pod, usage);
  }

  // Workers: CPU busy during gradient computation; memory is a working set.
  for (auto& w : workers_) {
    if (!w->pod_running) continue;
    Pod* pod = cluster_->GetMutablePod(w->pod);
    if (pod == nullptr) continue;
    const IterationBreakdown mine =
        CachedIteration(active, pod->speed_factor);
    const double t_mine = std::max(1e-9, mine.Total());
    ResourceSpec usage;
    usage.cpu =
        std::min(config_.worker_cpu, profile_.max_worker_parallelism) *
        std::clamp(mine.t_grad / t_mine, 0.0, 1.0);
    usage.memory = profile_.worker_static_bytes * 0.85;
    cluster_->ReportUsage(w->pod, usage);
  }

  // OOM semantics: a PS whose usage exceeds its limit is OOM-killed.
  for (PsState* ps : live_ps) {
    Pod* pod = cluster_->GetMutablePod(ps->pod);
    if (pod == nullptr) continue;
    if (pod->usage.memory > config_.ps_memory) {
      cluster_->FailPod(ps->pod, PodStopReason::kOomKill);
      break;  // one OOM per tick; recovery handles the rest
    }
  }
}

void TrainingJob::ProfileTick() {
  if (finished()) return;
  if (state_ == JobState::kInitializing &&
      sim_->Now() - stats_.submit_time > kPendingTimeout) {
    FailJob("scheduling: pods pending beyond timeout");
    return;
  }
  UpdateMemoryAndUsage();
  if (finished()) return;  // OOM handling above may have killed the job

  const SimTime now = sim_->Now();
  const uint64_t batches = batches_done();
  ThroughputSample sample;
  sample.time = now;
  sample.config = config_;
  sample.active_workers = ActiveWorkerCount();
  sample.batches_done = batches;
  sample.max_ps_memory = MaxPsMemory();
  const double dt = now - window_start_;
  if (dt > 0.0 && batches >= window_batches_) {
    sample.samples_per_sec =
        static_cast<double>(batches - window_batches_) *
        static_cast<double>(spec_.batch_size) / dt;
  }
  if (sample.samples_per_sec > 0.0 && sample.active_workers > 0) {
    sample.observed_iter_time = static_cast<double>(sample.active_workers) *
                                static_cast<double>(spec_.batch_size) /
                                sample.samples_per_sec;
  }
  // Utilisation of our own pods (used / allocated).
  auto utilisation = [this](const auto& members, double* cpu, double* mem) {
    double cpu_used = 0.0, cpu_alloc = 0.0, mem_used = 0.0, mem_alloc = 0.0;
    for (const auto& m : members) {
      if (!m->pod_running) continue;
      const Pod* pod = cluster_->GetPod(m->pod);
      if (pod == nullptr) continue;
      cpu_used += pod->usage.cpu;
      cpu_alloc += pod->spec.request.cpu;
      mem_used += pod->usage.memory;
      mem_alloc += pod->spec.request.memory;
    }
    *cpu = cpu_alloc > 0.0 ? cpu_used / cpu_alloc : 0.0;
    *mem = mem_alloc > 0.0 ? mem_used / mem_alloc : 0.0;
  };
  utilisation(workers_, &sample.worker_cpu_util, &sample.worker_mem_util);
  utilisation(ps_, &sample.ps_cpu_util, &sample.ps_mem_util);
  history_.push_back(sample);
  last_throughput_ = sample.samples_per_sec;
  window_start_ = now;
  window_batches_ = batches;

  oom_predictor_.Observe(now, MaxPsMemory());

  if (cluster_->node_health_enabled()) MaybeReportPsSlowdown();
}

void TrainingJob::MaybeReportPsSlowdown() {
  // The blind spot this closes (DESIGN §14): a degraded node whose only
  // residents are parameter servers slows *every* worker of the jobs it
  // serves uniformly, so the intra-job median straggler comparison never
  // fires. The uniform collapse itself — against the job's own best
  // steady-state rate — is the signal, and the PS nodes are the suspects.
  if (state_ != JobState::kRunning || paused_ ||
      transition_.kind != TransitionKind::kNone) {
    return;
  }
  const double smoothed = SmoothedThroughput();
  if (smoothed <= 0.0) return;
  if (smoothed > best_smoothed_) best_smoothed_ = smoothed;
  // Settling window after any rescale/recovery: the baseline is re-learned
  // and no verdicts are issued, so legitimate plan-driven throughput moves
  // can never be mistaken for node degradation.
  if (sim_->Now() - last_disruption_ < 5.0 * kProfileInterval ||
      best_smoothed_ <= 0.0) {
    return;
  }
  // Any flagged straggler means the slowdown is *not* uniform — that is the
  // ordinary straggler evidence path's job, not this one.
  bool any_flagged = false;
  monitor_.ForEachMember([&](uint64_t, const MemberHealth& health) {
    any_flagged = any_flagged || health.flagged_straggler;
  });
  if (any_flagged) {
    ps_slowdown_streak_ = 0;
    return;
  }
  if (smoothed >= 0.6 * best_smoothed_) {
    ps_slowdown_streak_ = 0;
    return;
  }
  if (++ps_slowdown_streak_ < 3) return;
  ControlChannel* ch = cluster_->control_channel();
  for (const auto& p : ps_) {
    if (!p->pod_running) continue;
    const PodId pod = p->pod;
    if (ch != nullptr) {
      ch->Send(ControlMessageKind::kStragglerVerdict, ControlChannel::kMaster,
               ControlChannel::kBrain, [this, pod] {
                 cluster_->ReportPsSlowdownEvidence(pod, spec_.seed);
               });
    } else {
      cluster_->ReportPsSlowdownEvidence(pod, spec_.seed);
    }
    ++stats_.ps_slowdown_reports;
  }
}

}  // namespace dlrover
