#include "master/job_master.h"

#include <algorithm>

namespace dlrover {

namespace {
// Local instability-handling tick (drain, straggler mitigation, OOM guard).
constexpr Duration kTickInterval = Seconds(30);
}  // namespace

JobMaster::JobMaster(Simulator* sim, TrainingJob* job,
                     const JobMasterOptions& options)
    : sim_(sim), job_(job), options_(options) {
  task_ = std::make_unique<PeriodicTask>(sim_, kTickInterval,
                                         [this] { Tick(); });
}

JobMaster::~JobMaster() {
  if (channel_ != nullptr) {
    job_->set_master_plan_gate(nullptr);
    job_->set_master_channel_handle(-1);
    channel_->UnregisterMaster(channel_handle_);
  }
}

void JobMaster::Start() {
  started_ = true;
  if (up_) task_->Start();
}

void JobMaster::Stop() {
  started_ = false;
  task_->Stop();
}

void JobMaster::AttachChannel(ControlChannel* channel) {
  channel_ = channel;
  channel_handle_ = channel_->RegisterMaster(this);
  job_->set_master_channel_handle(channel_handle_);
  job_->set_master_plan_gate(
      [this](const JobConfig& config, MigrationMode mode, uint64_t seq) {
        return GatePlan(config, mode, seq);
      });
}

void JobMaster::OnMasterCrash() {
  up_ = false;
  ++crashes_;
  // The process died: periodic local policies (straggler mitigation, OOM
  // guard, reaping, drain migration) stop until failover. Workers keep
  // processing their current shards under the last-known plan — nothing
  // about the data plane depends on the master being alive.
  task_->Stop();
}

void JobMaster::OnMasterRestart() {
  up_ = true;
  ++restarts_;
  // Deterministic restart from the tick snapshot: anything the dead
  // incarnation applied after its last snapshot is forgotten here, and the
  // job-level sequence fence absorbs the resulting replays.
  volatile_last_plan_seq_ = snapshot_last_plan_seq_;
  if (started_ && !job_->finished()) task_->Start();
}

Status JobMaster::GatePlan(const JobConfig& config, MigrationMode mode,
                           uint64_t seq) {
  if (!up_) {
    // Channel epoch fencing normally prevents deliveries to a down master;
    // this is the defensive backstop for direct callers.
    return UnavailableError("job master is down");
  }
  if (channel_ != nullptr && channel_->fencing_enabled() &&
      seq <= volatile_last_plan_seq_ && volatile_last_plan_seq_ != 0) {
    ++plans_gated_stale_;
    channel_->NotePlanFenced(job_->spec().seed, seq);
    return FailedPreconditionError("stale plan fenced at master");
  }
  const Status status = job_->ApplyPlanFenced(config, mode, seq);
  if (status.ok()) {
    volatile_last_plan_seq_ = std::max(volatile_last_plan_seq_, seq);
  }
  return status;
}

void JobMaster::Tick() {
  if (job_->finished()) {
    task_->Stop();
    return;
  }
  // Persist the master snapshot (what a real master would write to etcd):
  // everything a replacement needs to take over is the plan watermark; the
  // rest of the master's working state is rebuilt from the job itself.
  snapshot_last_plan_seq_ = volatile_last_plan_seq_;
  job_->EvacuateDrainingPods();
  job_->MitigateStragglers();
  if (options_.oom_prevention) job_->MaybePreventOom();
}

PolicyDriver::PolicyDriver(Simulator* sim, ScalingPolicy* policy,
                           Duration round_interval)
    : sim_(sim), policy_(policy) {
  task_ = std::make_unique<PeriodicTask>(sim_, round_interval,
                                         [this] { Round(); });
}

void PolicyDriver::AddJob(TrainingJob* job) { jobs_.push_back(job); }

void PolicyDriver::Start() { task_->Start(); }
void PolicyDriver::Stop() { task_->Stop(); }

void PolicyDriver::Round() {
  for (TrainingJob* job : jobs_) {
    if (job->finished()) continue;
    auto plan = policy_->Propose(*job);
    if (plan.has_value() && job->ApplyPlan(plan->config, plan->mode).ok()) {
      ++plans_applied_;
    }
  }
}

}  // namespace dlrover
