#ifndef DLROVER_BRAIN_BRAIN_H_
#define DLROVER_BRAIN_BRAIN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "brain/config_db.h"
#include "brain/greedy_selector.h"
#include "brain/plan_generator.h"
#include "brain/warm_start.h"
#include "perfmodel/throughput_model.h"
#include "ps/training_job.h"
#include "sim/simulator.h"

namespace dlrover {

struct BrainOptions {
  /// Scheduling round interval (the paper adjusts every 3 minutes in the
  /// auto-scaling ablation).
  Duration round_interval = Minutes(3);
  /// Total resource budget S available to DLRM training (Eqn 13).
  ResourceSpec budget{640.0, TiB(3.75)};
  PlanGeneratorOptions plan;
  WarmStartOptions warm_start;
};

/// The cluster brain (paper Fig 4): receives runtime profiles from job
/// masters, fits each job's resource-performance model online, generates
/// Pareto plan candidates with NSGA-II, selects cluster-wide plans with
/// weighted greedy under the budget, and drives instability handling
/// (straggler mitigation, OOM prevention, hot-PS rebalancing). Implements
/// the full three-stage algorithm:
///   stage 1  WarmStart()   — pre-scaling, from the config DB
///   stage 2  RunRound()    — auto-scaling while the job runs
///   stage 3  (within RunRound) — post-scaling instability handling
class ClusterBrain {
 public:
  ClusterBrain(Simulator* sim, const BrainOptions& options);

  /// Stage 1: produces a warm-start configuration for a new job.
  JobConfig WarmStart(const JobMetadata& meta) const;

  /// Puts a job under management. The brain does not own the job; the
  /// caller must keep it alive and must not destroy it mid-simulation.
  void Manage(TrainingJob* job, const JobMetadata& meta);

  /// Attaches the cluster for node-health awareness: every round subtracts
  /// the cluster's quarantined capacity (cordoned + suspect nodes) from the
  /// selection budget, so the plan generator stops proposing capacity the
  /// control plane has fenced off. Optional — with no cluster attached, or
  /// nothing quarantined, rounds are unchanged.
  void AttachCluster(const Cluster* cluster) { cluster_ = cluster; }

  /// Starts periodic scheduling rounds.
  void Start();
  void Stop();

  /// One scheduling round (public so tests and benches can step manually).
  void RunRound();

  ConfigDb& config_db() { return config_db_; }
  const BrainOptions& options() const { return options_; }

  /// Introspection for tests/benches.
  struct ManagedJobView {
    const TrainingJob* job;
    bool fitted;
    PerfModelParams params;
    size_t observations;
  };
  std::vector<ManagedJobView> managed_jobs() const;

  /// Total number of plans applied across all rounds.
  int plans_applied() const { return plans_applied_; }

 private:
  struct ManagedJob {
    TrainingJob* job = nullptr;
    JobMetadata meta;
    std::unique_ptr<ThroughputModel> model;
    std::unique_ptr<ModelFitter> fitter;
    size_t history_cursor = 0;
    PerfModelParams params;
    bool fitted = false;
    int degraded_rounds = 0;
    int rounds_since_plan = 1000;  // large: no plan applied yet
    double best_throughput = 0.0;
    int explore_step = 0;
    bool recorded = false;
    /// Monotone per-job plan sequence for epoch/lease fencing: every plan
    /// the brain emits for this job carries the next number, so a delayed
    /// duplicate or reordered stale delivery is rejected at apply time.
    uint64_t next_plan_seq = 0;
    /// The inputs and candidates of the job's last plan search; a round
    /// whose inputs match them bit for bit reuses the candidates.
    std::optional<PlanSearchInputs> last_search;
    std::vector<PlanCandidate> last_candidates;
  };

  void IngestProfiles(ManagedJob& managed);
  void HandleInstability(ManagedJob& managed);
  void RecordFinished(ManagedJob& managed);
  /// Routes one plan to the job. Without a control channel this is a
  /// direct (sequence-tracked) apply, byte-identical to the historical
  /// call; with one, the plan travels as a reliable channel message pinned
  /// to the job master's handle, and OK means "handed to the network".
  Status DeliverPlan(ManagedJob& managed, const JobConfig& config,
                     MigrationMode mode);

  Simulator* sim_;
  BrainOptions options_;
  ConfigDb config_db_;
  std::vector<std::unique_ptr<ManagedJob>> jobs_;
  std::unique_ptr<PeriodicTask> round_task_;
  const Cluster* cluster_ = nullptr;
  int plans_applied_ = 0;
  uint64_t next_job_id_ = 1;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_BRAIN_H_
