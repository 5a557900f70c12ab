#ifndef DLROVER_MASTER_JOB_MASTER_H_
#define DLROVER_MASTER_JOB_MASTER_H_

#include <memory>
#include <vector>

#include "brain/scaling_policy.h"
#include "cluster/control_channel.h"
#include "ps/training_job.h"
#include "sim/simulator.h"

namespace dlrover {

struct JobMasterOptions {
  bool oom_prevention = true;
};

/// The job-level agent (paper Fig 4): owns the profiler/executor loop for
/// one training job. Cluster-level decisions come from the brain; the
/// master handles everything that must react fast and locally — straggler
/// shard-resizing, the OOM pre-scaling guard, and make-before-break
/// evacuation off draining nodes (TrainingJob::EvacuateDrainingPods; with
/// no node ever cordoned the pass only inspects placements).
///
/// With a ControlChannel attached, the master is a crashable process: an
/// injected crash stops its periodic loop and loses its volatile state
/// (plan-sequence watermark past the last tick snapshot); workers keep
/// processing their current shards under the last-known plan, and local
/// policies simply stop until failover. The deterministic restart bumps the
/// master's channel epoch (in-flight plan deliveries addressed to the dead
/// incarnation are fenced), restores the snapshot, and resumes the loop.
/// The job-level sequence fence is the backstop for anything the snapshot
/// missed.
class JobMaster : public ControlMasterEndpoint {
 public:
  JobMaster(Simulator* sim, TrainingJob* job,
            const JobMasterOptions& options = {});
  ~JobMaster() override;

  void Start();
  void Stop();

  /// Registers this master with the control channel: crash/restart
  /// injection reaches it, the brain pins plan deliveries to its handle,
  /// and the job routes every plan through the master-side fence.
  void AttachChannel(ControlChannel* channel);

  // ControlMasterEndpoint (invoked by the channel's failover machinery).
  void OnMasterCrash() override;
  void OnMasterRestart() override;

  TrainingJob* job() { return job_; }
  bool up() const { return up_; }
  int channel_handle() const { return channel_handle_; }
  uint64_t crashes() const { return crashes_; }
  uint64_t restarts() const { return restarts_; }
  /// Plans fenced by the master-side sequence check (before the job's own).
  uint64_t plans_gated_stale() const { return plans_gated_stale_; }
  uint64_t snapshot_last_plan_seq() const { return snapshot_last_plan_seq_; }

 private:
  void Tick();
  /// Master-side plan gate: every brain plan delivery passes through here
  /// when a channel is attached (TrainingJob::set_master_plan_gate).
  Status GatePlan(const JobConfig& config, MigrationMode mode, uint64_t seq);

  Simulator* sim_;
  TrainingJob* job_;
  JobMasterOptions options_;
  std::unique_ptr<PeriodicTask> task_;
  ControlChannel* channel_ = nullptr;
  int channel_handle_ = -1;
  /// Owner intent (Start/Stop) vs process liveness (crash/failover): a
  /// restart resumes the loop only if the owner still wants it running.
  bool started_ = false;
  bool up_ = true;
  /// The master's in-memory plan-sequence watermark, and the durable
  /// snapshot persisted at each tick. A crash rolls the watermark back to
  /// the snapshot — deliberately lossy, so the restarted master can accept
  /// a sequence number the dead incarnation already applied; the job-level
  /// fence (which never crashes with the master) is what keeps that replay
  /// from double-applying.
  uint64_t volatile_last_plan_seq_ = 0;
  uint64_t snapshot_last_plan_seq_ = 0;
  uint64_t crashes_ = 0;
  uint64_t restarts_ = 0;
  uint64_t plans_gated_stale_ = 0;
};

/// Drives a plug-in ScalingPolicy (ES, Optimus, ...) on a fixed round
/// interval across a set of jobs — the baseline counterpart of the
/// ClusterBrain's scheduling loop. Plans apply directly to each job.
class PolicyDriver {
 public:
  PolicyDriver(Simulator* sim, ScalingPolicy* policy,
               Duration round_interval = Minutes(3));

  void AddJob(TrainingJob* job);
  void Start();
  void Stop();

  int plans_applied() const { return plans_applied_; }

 private:
  void Round();

  Simulator* sim_;
  ScalingPolicy* policy_;
  std::vector<TrainingJob*> jobs_;
  std::unique_ptr<PeriodicTask> task_;
  int plans_applied_ = 0;
};

}  // namespace dlrover

#endif  // DLROVER_MASTER_JOB_MASTER_H_
