#include "brain/brain.h"

#include <algorithm>

#include "cluster/control_channel.h"
#include "common/logging.h"
#include "perfmodel/profile_ingest.h"

namespace dlrover {
namespace {
/// Plans must beat the current throughput by this relative margin to be
/// applied (hysteresis against churn).
constexpr double kMinRelativeGain = 0.05;
/// Measured/predicted throughput ratio below which a job is considered
/// degraded (hot PS / interference); two consecutive degraded rounds
/// trigger a seamless rebalancing migration.
constexpr double kDegradedRatio = 0.55;
/// Sliding window of profiler observations kept per job.
constexpr size_t kFitterWindow = 240;
/// Rounds to wait after applying a plan before proposing another for the
/// same job (lets the new configuration produce clean measurements).
constexpr int kPlanCooldownRounds = 3;

/// The smallest and largest value one decision variable took over the
/// fitter's window, as the first and last of a std::set of them would be.
template <typename T>
struct Support {
  T lo{};
  T hi{};
  bool seen = false;
  void Add(T v) {
    if (!seen) {
      lo = hi = v;
      seen = true;
      return;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  /// At least two distinct values were seen.
  bool Varied() const { return seen && lo != hi; }
};
}  // namespace

ClusterBrain::ClusterBrain(Simulator* sim, const BrainOptions& options)
    : sim_(sim), options_(options) {
  round_task_ = std::make_unique<PeriodicTask>(
      sim_, options_.round_interval, [this] { RunRound(); });
}

JobConfig ClusterBrain::WarmStart(const JobMetadata& meta) const {
  return WarmStartConfig(config_db_, meta, options_.warm_start);
}

void ClusterBrain::Manage(TrainingJob* job, const JobMetadata& meta) {
  auto managed = std::make_unique<ManagedJob>();
  managed->job = job;
  managed->meta = meta;
  const ModelProfile& profile = job->model_profile();
  // Structural constants (dense size, embedding dim, bandwidth) are known
  // from the model graph and the fabric; the alphas/betas are NOT taken
  // from the profile — they must be learned from runtime observations.
  managed->model = std::make_unique<ThroughputModel>(
      profile.dense_param_bytes, profile.embedding_dim,
      job->environment().network_bandwidth);
  managed->fitter = std::make_unique<ModelFitter>(*managed->model);
  jobs_.push_back(std::move(managed));
}

void ClusterBrain::Start() { round_task_->Start(); }
void ClusterBrain::Stop() { round_task_->Stop(); }

void ClusterBrain::IngestProfiles(ManagedJob& managed) {
  IngestJobHistory(*managed.job, &managed.history_cursor,
                   managed.fitter.get());
  // Sliding window: drop stale observations so the fit tracks the present.
  managed.fitter->KeepNewest(kFitterWindow);
}

void ClusterBrain::HandleInstability(ManagedJob& managed) {
  TrainingJob& job = *managed.job;
  // Straggling workers: shrink their shards (dynamic data sharding).
  job.MitigateStragglers();
  // Predicted OOM: pre-scale PS memory via seamless migration.
  job.MaybePreventOom();

  // Hot PS / interference: measured throughput far below what the fitted
  // model predicts for this configuration, persistently. A seamless
  // migration replaces pods and rebalances parameter shares (DeepRec-style
  // even redistribution).
  if (job.state() != JobState::kRunning) return;
  const double predicted =
      managed.fitted ? managed.model->PredictThroughput(
                           managed.params, job.spec().batch_size,
                           job.config())
                     : 0.0;
  const double measured = job.SmoothedThroughput();
  // Two degradation signals: (a) far below the fitted model's prediction
  // for this configuration; (b) far below the job's own demonstrated best
  // (robust even when degraded samples have already polluted the fit).
  const bool below_model = managed.fitted && predicted > 0.0 &&
                           measured > 0.0 &&
                           measured < kDegradedRatio * predicted;
  const bool below_best =
      managed.best_throughput > 0.0 && measured > 0.0 &&
      measured < 0.5 * managed.best_throughput;
  if (below_model || below_best) {
    ++managed.degraded_rounds;
    // Severe collapse (a PS at a few % of its speed) is unambiguous:
    // escalate immediately instead of waiting a confirmation round.
    if (measured < 0.35 * std::max(predicted, managed.best_throughput)) {
      ++managed.degraded_rounds;
    }
  } else {
    managed.degraded_rounds = 0;
    managed.best_throughput = std::max(managed.best_throughput, measured);
  }
  if (managed.degraded_rounds >= 2) {
    managed.degraded_rounds = 0;
    DLROVER_LOG_STREAM(Info)
        << job.spec().name << ": degraded throughput (" << measured << " vs "
        << predicted << " predicted), seamless rebalance";
    const Status status =
        DeliverPlan(managed, job.config(), MigrationMode::kSeamless);
    if (!status.ok()) {
      DLROVER_LOG_STREAM(Warning)
          << job.spec().name << ": rebalance rejected: " << status;
    } else {
      // Re-learn the healthy level on the fresh deployment.
      managed.best_throughput = 0.0;
    }
  }
}

Status ClusterBrain::DeliverPlan(ManagedJob& managed, const JobConfig& config,
                                 MigrationMode mode) {
  ControlChannel* ch =
      cluster_ != nullptr ? cluster_->control_channel() : nullptr;
  const uint64_t seq = ++managed.next_plan_seq;
  if (ch == nullptr) {
    return managed.job->ApplyPlanFenced(config, mode, seq);
  }
  // The plan crosses the brain -> master hop as a reliable message pinned
  // to the job master's failover handle: a cell partition delays it (capped
  // jittered backoff until healed or past the deadline), a master crash
  // fences copies addressed to the dead incarnation, and the sequence
  // number fences whatever stale duplicates still land. OK here only means
  // the network has it; brain-side bookkeeping (cooldown, best-throughput
  // reset) proceeds optimistically, which also keeps the brain from
  // spamming plans into a partition.
  TrainingJob* job = managed.job;
  ch->SendReliable(
      ControlMessageKind::kPlan, ControlChannel::kBrain,
      ControlChannel::kMaster,
      [job, config, mode, seq] {
        (void)job->DeliverPlanFromBrain(config, mode, seq);
      },
      /*on_expire=*/nullptr, job->master_channel_handle());
  return Status::OK();
}

void ClusterBrain::RecordFinished(ManagedJob& managed) {
  if (managed.recorded) return;
  managed.recorded = true;
  JobRecord record;
  record.meta = managed.meta;
  record.final_config = managed.job->config();
  record.final_throughput = managed.job->MeasuredThroughput();
  record.jct = managed.job->stats().Jct();
  record.completed = managed.job->state() == JobState::kCompleted;
  config_db_.Insert(record);
}

void ClusterBrain::RunRound() {
  // Per-job: ingest profiles, fit, handle instability; collect plan
  // requests from jobs healthy enough to scale.
  std::vector<JobPlanRequest> requests;
  std::vector<ManagedJob*> by_id;
  for (auto& managed_ptr : jobs_) {
    ManagedJob& managed = *managed_ptr;
    TrainingJob& job = *managed.job;
    if (job.finished()) {
      RecordFinished(managed);
      continue;
    }
    IngestProfiles(managed);
    if (managed.fitter->ReadyToFit()) {
      auto fitted = managed.fitter->Fit();
      if (fitted.ok()) {
        managed.params = *fitted;
        managed.fitted = true;
      }
    }
    HandleInstability(managed);
    const bool exploring = managed.explore_step < 4;
    if ((!managed.fitted || exploring) &&
        job.state() == JobState::kRunning &&
        managed.fitter->observation_count() >= 2) {
      // Bootstrap exploration: the NNLS fit needs observations across
      // configuration shapes — and each decision variable the optimizer is
      // allowed to move must have been observed at >= 2 values. Probe
      // workers, PSes, and per-pod CPUs seamlessly; visible as the
      // stepwise early growth in the paper's Fig 10 cold-start curves.
      JobConfig probe = job.config();
      switch (managed.explore_step % 4) {
        case 0: {
          const int cap = std::min(PlanGenerator::kDefaultSpace.max_workers,
                                   managed.meta.max_workers_quota);
          const int up = std::min(
              std::max(probe.num_workers + 2, probe.num_workers * 3 / 2),
              cap);
          // At the ceiling, probe downward instead: diversity is what the
          // fit needs, not growth per se.
          probe.num_workers =
              up != probe.num_workers ? up
                                      : std::max(2, probe.num_workers - 4);
          break;
        }
        case 1: {
          const int up = std::min(probe.num_ps + 1,
                                  PlanGenerator::kDefaultSpace.max_ps);
          probe.num_ps =
              up != probe.num_ps ? up : std::max(1, probe.num_ps - 1);
          break;
        }
        case 2: {
          const Cores up =
              std::min(probe.worker_cpu + 2.0,
                       PlanGenerator::kDefaultSpace.max_worker_cpu);
          probe.worker_cpu =
              up != probe.worker_cpu ? up
                                     : std::max(1.0, probe.worker_cpu - 2.0);
          break;
        }
        default: {
          const Cores up = std::min(probe.ps_cpu + 2.0,
                                    PlanGenerator::kDefaultSpace.max_ps_cpu);
          probe.ps_cpu =
              up != probe.ps_cpu ? up : std::max(1.0, probe.ps_cpu - 2.0);
          break;
        }
      }
      ++managed.explore_step;
      if (!(probe == job.config())) {
        (void)DeliverPlan(managed, probe, MigrationMode::kSeamless);
      }
      continue;
    }
    if (!managed.fitted || job.state() != JobState::kRunning) continue;
    if (managed.degraded_rounds > 0) continue;  // wait for a clean window
    ++managed.rounds_since_plan;
    if (managed.rounds_since_plan <= kPlanCooldownRounds) continue;

    // Trust region: the fitted model is only trustworthy near observed
    // configurations. Restrict each decision variable to a modest expansion
    // of its observed support (and freeze it entirely when only one value
    // was ever observed) — applying a plan then extends the support, so the
    // region grows organically round over round.
    PlanSearchSpace space = PlanGenerator::kDefaultSpace;
    space.max_workers = std::min(space.max_workers,
                                 managed.meta.max_workers_quota);
    {
      Support<int> ws, ps;
      Support<double> lws, lps;
      for (const PerfObservation& obs : managed.fitter->observations()) {
        ws.Add(obs.workers);
        ps.Add(obs.ps);
        lws.Add(obs.worker_cpu);
        lps.Add(obs.ps_cpu);
      }
      auto bound_int = [](const Support<int>& seen, int current, int* lo,
                          int* hi) {
        if (!seen.Varied()) {
          *lo = *hi = current;
          return;
        }
        *lo = std::max(*lo, std::max(1, seen.lo - 2));
        *hi = std::min(*hi, seen.hi * 2);
      };
      auto bound_cores = [](const Support<double>& seen, double current,
                            Cores* lo, Cores* hi) {
        if (!seen.Varied()) {
          *lo = *hi = current;
          return;
        }
        *lo = std::max(*lo, std::max(1.0, seen.lo * 0.75));
        *hi = std::min(*hi, seen.hi * 1.5);
      };
      bound_int(ws, job.config().num_workers, &space.min_workers,
                &space.max_workers);
      bound_int(ps, job.config().num_ps, &space.min_ps, &space.max_ps);
      bound_cores(lws, job.config().worker_cpu, &space.min_worker_cpu,
                  &space.max_worker_cpu);
      bound_cores(lps, job.config().ps_cpu, &space.min_ps_cpu,
                  &space.max_ps_cpu);
    }

    const PlanSearchInputs inputs{
        managed.params,
        job.spec().batch_size,
        job.config(),
        job.SmoothedThroughput(),
        static_cast<double>(job.RemainingSamples()),
        job.ModelBytes(),
        space,
    };
    // Hysteresis: only plans that beat the current throughput by this much
    // are applied. When no reachable plan can, the search is skipped: its
    // candidates would all be dropped here (DESIGN.md §8).
    const double floor_gain =
        kMinRelativeGain * std::max(1.0, inputs.current_throughput);
    const double ceiling = PlanGenerator::ThroughputCeiling(
        *managed.model, inputs.params, inputs.batch_size, inputs.current,
        inputs.space);
    if (ceiling - inputs.current_throughput < floor_gain) continue;
    if (!managed.last_search || !SameBits(*managed.last_search, inputs)) {
      const PlanGenerator generator(options_.plan);
      managed.last_candidates = generator.Generate(
          *managed.model, inputs.params, inputs.batch_size, inputs.current,
          inputs.current_throughput, inputs.remaining_samples,
          inputs.model_bytes, &inputs.space);
      managed.last_search = inputs;
    }
    JobPlanRequest request;
    request.job_id = static_cast<uint64_t>(by_id.size());
    request.current = job.config();
    for (const PlanCandidate& c : managed.last_candidates) {
      if (!(c.throughput_gain < floor_gain)) request.candidates.push_back(c);
    }
    if (!request.candidates.empty()) {
      requests.push_back(std::move(request));
      by_id.push_back(&managed);
    }
  }
  if (requests.empty()) return;

  // Node-health blacklist: capacity on cordoned or suspect nodes is not
  // plannable — subtract it from the budget so the weighted-greedy selector
  // cannot hand it out. With no cluster attached (or nothing quarantined)
  // the budget is exactly options_.budget, as before.
  ResourceSpec budget = options_.budget;
  if (cluster_ != nullptr) {
    const ResourceSpec blacklisted = cluster_->QuarantinedCapacity();
    budget.cpu = std::max(0.0, budget.cpu - blacklisted.cpu);
    budget.memory = std::max(0.0, budget.memory - blacklisted.memory);
  }
  const auto selected = GreedySelector::Select(requests, budget);
  for (const auto& [id, plan] : selected) {
    ManagedJob& managed = *by_id[id];
    const Status status =
        DeliverPlan(managed, plan.config, PlanGenerator::kMode);
    if (status.ok()) {
      ++plans_applied_;
      managed.rounds_since_plan = 0;
    } else {
      DLROVER_LOG_STREAM(Warning) << managed.job->spec().name
                                  << ": plan rejected: " << status;
    }
  }
}

std::vector<ClusterBrain::ManagedJobView> ClusterBrain::managed_jobs() const {
  std::vector<ManagedJobView> views;
  views.reserve(jobs_.size());
  for (const auto& managed : jobs_) {
    views.push_back({managed->job, managed->fitted, managed->params,
                     managed->fitter->observation_count()});
  }
  return views;
}

}  // namespace dlrover
