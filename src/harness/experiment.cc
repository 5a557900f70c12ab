#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "baselines/elastic_scheduler.h"
#include "baselines/optimus.h"
#include "master/job_master.h"
#include "sim/simulator.h"

namespace dlrover {

std::string SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kManualTuned:
      return "well-tuned (w/o DLRover)";
    case SchedulerKind::kManualUser:
      return "user-config (w/o DLRover)";
    case SchedulerKind::kDlrover:
      return "DLRover-RM";
    case SchedulerKind::kEs:
      return "ES";
    case SchedulerKind::kOptimus:
      return "Optimus";
    case SchedulerKind::kNoIntervention:
      return "no intervention";
    case SchedulerKind::kTraditional:
      return "traditional handling";
  }
  return "unknown";
}

JobConfig ColdStartConfig(ModelKind kind) {
  const ModelProfile profile = GetModelProfile(kind);
  JobConfig config;
  config.num_workers = 6;
  config.num_ps = 2;
  config.worker_cpu = 6.0;
  config.ps_cpu = 4.0;
  config.worker_memory = profile.worker_static_bytes + GiB(1);
  config.ps_memory = GiB(12);
  return config;
}

JobMetadata MetadataFor(ModelKind model, uint64_t batch_size,
                        uint64_t total_steps) {
  const ModelProfile profile = GetModelProfile(model);
  JobMetadata meta;
  meta.user = "scenario-user";
  meta.model = model;
  meta.batch_size = batch_size;
  meta.total_steps = total_steps;
  meta.declared_model_bytes =
      profile.dense_param_bytes +
      profile.EmbeddingBytesAt(static_cast<double>(total_steps) *
                               static_cast<double>(batch_size));
  return meta;
}

void SeedHistoricalRecords(ConfigDb* db, uint64_t seed,
                           int records_per_model) {
  Rng rng(seed * 3571 + 21);
  for (ModelKind kind : {ModelKind::kWideDeep, ModelKind::kXDeepFm,
                         ModelKind::kDcn}) {
    const JobConfig tuned = WellTunedConfig(kind);
    for (int i = 0; i < records_per_model; ++i) {
      JobRecord record;
      record.meta = MetadataFor(kind, 512,
                                180000 + 10000 * static_cast<uint64_t>(
                                             rng.UniformInt(int64_t{0}, int64_t{6})));
      record.meta.user = "scenario-user";
      record.meta.declared_model_bytes *= rng.LogNormal(1.0, 0.15);
      // Historical configs hover a bit below the optimum: users converge to
      // "good enough", leaving stage-2 auto-scaling with real work to do.
      JobConfig config = tuned;
      config.num_workers = std::max(
          2, static_cast<int>(tuned.num_workers * 0.8) +
                 static_cast<int>(rng.UniformInt(int64_t{-3}, int64_t{3})));
      config.num_ps = std::max(
          1, tuned.num_ps - 1 + static_cast<int>(rng.UniformInt(int64_t{-1},
                                                                int64_t{1})));
      config.worker_cpu =
          std::max(2.0, tuned.worker_cpu + 2.0 * rng.Normal(0.0, 0.6));
      config.ps_cpu = std::max(2.0, tuned.ps_cpu + rng.Normal(0.0, 1.0));
      config.worker_memory = tuned.worker_memory * rng.LogNormal(1.05, 0.08);
      config.ps_memory = tuned.ps_memory * rng.LogNormal(1.15, 0.08);
      record.final_config = config;
      record.final_throughput = 50000.0 * rng.LogNormal(1.0, 0.2);
      record.jct = Minutes(rng.Uniform(22.0, 55.0));
      record.completed = true;
      db->Insert(record);

      // Small-quota jobs converge to a different shape: few workers, each
      // run wide (near the parallelism saturation point). Seed those too so
      // quota-limited jobs warm-start sensibly.
      JobRecord small = record;
      const int quota =
          static_cast<int>(rng.UniformInt(int64_t{8}, int64_t{16}));
      small.meta.max_workers_quota = quota;
      small.final_config.num_workers = quota;
      // Fewer workers does NOT mean fewer PSes: lookup latency (Eqn 5)
      // scales with 1/p regardless of w, so small jobs still converge to a
      // handful of parameter servers.
      small.final_config.num_ps =
          4 + static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{2}));
      small.final_config.worker_cpu =
          std::max(8.0, 11.0 + rng.Normal(0.0, 0.8));
      small.final_config.ps_cpu = std::max(4.0, 7.0 + rng.Normal(0.0, 1.0));
      small.final_config.ps_memory =
          config.ps_memory * config.num_ps / small.final_config.num_ps;
      small.final_throughput = 20000.0 * rng.LogNormal(1.0, 0.2);
      db->Insert(small);
    }
  }
}

const ConfigDb& SeededHistoryFor(uint64_t seed) {
  static std::mutex mu;
  // unique_ptr values keep the returned reference stable across rehashes.
  static std::unordered_map<uint64_t, std::unique_ptr<const ConfigDb>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(seed);
  if (it == cache.end()) {
    auto db = std::make_unique<ConfigDb>();
    SeedHistoricalRecords(db.get(), seed);
    it = cache.emplace(seed, std::move(db)).first;
  }
  return *it->second;
}

namespace {

bool IsAutoScaler(SchedulerKind kind) {
  return kind == SchedulerKind::kDlrover || kind == SchedulerKind::kEs ||
         kind == SchedulerKind::kOptimus;
}

JobSpec SpecFor(const SingleJobScenario& scenario) {
  JobSpec spec;
  spec.name = "job";
  spec.model = scenario.model;
  spec.batch_size = scenario.batch_size;
  spec.total_steps = scenario.total_steps;
  spec.seed = scenario.seed * 7919 + 13;
  switch (scenario.scheduler) {
    case SchedulerKind::kDlrover:
      spec.data_mode = DataMode::kDynamicSharding;
      spec.use_flash_checkpoint = true;
      break;
    case SchedulerKind::kEs:
    case SchedulerKind::kOptimus:
      // Charitable: these baselines get elastic data serving so the
      // comparison isolates the scheduling algorithm (as in Fig 10), but
      // they checkpoint through RDS like their original systems.
      spec.data_mode = DataMode::kDynamicSharding;
      spec.use_flash_checkpoint = false;
      break;
    default:
      spec.data_mode = DataMode::kStaticPartition;
      spec.use_flash_checkpoint = false;
      break;
  }
  return spec;
}

JobConfig InitialConfigFor(const SingleJobScenario& scenario) {
  if (scenario.initial.has_value()) return *scenario.initial;
  if (IsAutoScaler(scenario.scheduler)) {
    if (!scenario.warm_start) return ColdStartConfig(scenario.model);
    // Both branches read the per-seed cached history: rebuilding the DB on
    // every call (twice per seed for the two scheduler families) was pure
    // rework — the records are fully determined by the seed.
    const ConfigDb& db = SeededHistoryFor(scenario.seed);
    if (scenario.scheduler == SchedulerKind::kDlrover) {
      // Warm-starting from historical records is stage 1 of DLRover-RM.
      WarmStartOptions options;
      options.default_config = ColdStartConfig(scenario.model);
      return WarmStartConfig(
          db, MetadataFor(scenario.model, scenario.batch_size,
                          scenario.total_steps),
          options);
    }
    // ES / Optimus have no warm-starting *algorithm*, but their users also
    // resubmit yesterday's configuration: start them from one historical
    // record rather than DLRover's smoothed top-k blend.
    const auto similar = db.TopKSimilar(
        MetadataFor(scenario.model, scenario.batch_size,
                    scenario.total_steps),
        1);
    if (!similar.empty()) return similar.back().final_config;
    return TypicalUserStart(scenario.model);
  }
  if (scenario.scheduler == SchedulerKind::kManualUser) {
    Rng rng(scenario.seed * 31 + 7);
    return UserMisconfiguredConfig(scenario.model, rng);
  }
  return WellTunedConfig(scenario.model);
}

/// Finds the job's first running pod, in creation order, whose name holds
/// `role` ("-ps-" / "-worker-").
PodId FindJobPod(const Cluster& cluster, const std::string& role) {
  PodId found = 0;
  cluster.VisitRunningPods(PriorityClass::kTraining, [&](const Pod& pod) {
    if (found == 0 && pod.spec.name.find(role) != std::string::npos) {
      found = pod.id;
    }
  });
  return found;
}

/// Simple stop-and-restart fault handler: the pre-DLRover production
/// behaviour. Detects a persistent throughput collapse and redeploys the
/// job with the same configuration (fresh pods, rebalanced parameters).
class TraditionalWatchdog {
 public:
  TraditionalWatchdog(Simulator* sim, TrainingJob* job)
      : sim_(sim), job_(job),
        task_(sim, Seconds(30), [this] { Tick(); }) {
    task_.Start();
  }

 private:
  void Tick() {
    if (job_->finished()) {
      task_.Stop();
      return;
    }
    const double throughput = job_->MeasuredThroughput();
    if (throughput <= 0.0) return;
    best_ = std::max(best_, throughput);
    if (throughput < 0.5 * best_) {
      ++slow_ticks_;
    } else {
      slow_ticks_ = 0;
    }
    const bool cooled =
        sim_->Now() - last_intervention_ > Minutes(15) ||
        last_intervention_ == 0.0;
    if (slow_ticks_ >= 2 && cooled &&
        job_->state() == JobState::kRunning) {
      slow_ticks_ = 0;
      last_intervention_ = sim_->Now();
      best_ = 0.0;  // re-learn the healthy level after redeploy
      (void)job_->ApplyPlan(job_->config(), MigrationMode::kStopAndRestart);
    }
  }

  Simulator* sim_;
  TrainingJob* job_;
  double best_ = 0.0;
  int slow_ticks_ = 0;
  SimTime last_intervention_ = 0.0;
  PeriodicTask task_;
};

Duration ComputeRecoveryTime(const std::vector<ThroughputSample>& history,
                             SimTime injected_at) {
  if (injected_at <= 0.0) return -1.0;
  RunningStat before;
  for (const ThroughputSample& s : history) {
    if (s.time < injected_at && s.time > injected_at - Minutes(5) &&
        s.samples_per_sec > 0.0) {
      before.Add(s.samples_per_sec);
    }
  }
  if (before.count() == 0) return -1.0;
  const double target = 0.8 * before.mean();
  for (const ThroughputSample& s : history) {
    if (s.time <= injected_at + Seconds(30)) continue;
    if (s.samples_per_sec >= target) return s.time - injected_at;
  }
  return -1.0;
}

}  // namespace

SingleJobResult RunSingleJob(const SingleJobScenario& scenario) {
  Simulator sim;
  ClusterOptions cluster_options = scenario.cluster;
  cluster_options.seed = scenario.seed * 101 + 3;
  Cluster cluster(&sim, cluster_options);

  const JobSpec spec = SpecFor(scenario);
  const JobConfig initial = InitialConfigFor(scenario);
  EnvironmentProfile env;
  auto job = std::make_unique<TrainingJob>(&sim, &cluster, spec, initial, env);
  job->Start();

  // Control plane.
  std::unique_ptr<ClusterBrain> brain;
  std::unique_ptr<JobMaster> master;
  std::unique_ptr<ElasticSchedulerPolicy> es;
  std::unique_ptr<OptimusPolicy> optimus;
  std::unique_ptr<PolicyDriver> driver;
  std::unique_ptr<TraditionalWatchdog> watchdog;

  switch (scenario.scheduler) {
    case SchedulerKind::kDlrover: {
      BrainOptions options;
      options.round_interval = scenario.round_interval;
      options.budget = cluster.TotalCapacity();
      options.plan.nsga2.seed = scenario.seed * 17 + 5;
      brain = std::make_unique<ClusterBrain>(&sim, options);
      brain->AttachCluster(&cluster);
      if (scenario.warm_start) {
        brain->config_db() = SeededHistoryFor(scenario.seed);
      }
      brain->Manage(job.get(),
                    MetadataFor(scenario.model, scenario.batch_size,
                                scenario.total_steps));
      brain->Start();
      master = std::make_unique<JobMaster>(&sim, job.get());
      master->Start();
      break;
    }
    case SchedulerKind::kEs: {
      es = std::make_unique<ElasticSchedulerPolicy>();
      driver = std::make_unique<PolicyDriver>(&sim, es.get(),
                                              scenario.round_interval);
      driver->AddJob(job.get());
      driver->Start();
      break;
    }
    case SchedulerKind::kOptimus: {
      optimus = std::make_unique<OptimusPolicy>();
      driver = std::make_unique<PolicyDriver>(&sim, optimus.get(),
                                              scenario.round_interval);
      driver->AddJob(job.get());
      driver->Start();
      break;
    }
    case SchedulerKind::kTraditional:
      watchdog = std::make_unique<TraditionalWatchdog>(&sim, job.get());
      break;
    default:
      break;  // static: nobody steers
  }

  // Scripted fault injection.
  SimTime injected_at = -1.0;
  if (scenario.injection.kind != ScenarioInjection::Kind::kNone) {
    sim.ScheduleAt(scenario.injection.at, [&] {
      const std::string role =
          scenario.injection.kind == ScenarioInjection::Kind::kHotPs
              ? "-ps-"
              : "-worker-";
      const PodId victim = FindJobPod(cluster, role);
      if (victim != 0) {
        cluster.DegradePod(victim, scenario.injection.speed);
        injected_at = sim.Now();
      }
    });
  }

  sim.RunUntil(scenario.horizon);

  SingleJobResult result;
  result.stats = job->stats();
  result.final_state = job->state();
  result.final_config = job->config();
  result.history = job->history();
  result.jct = job->finished() ? job->stats().Jct() : scenario.horizon;
  result.recovery_time = ComputeRecoveryTime(result.history, injected_at);
  result.executed_events = sim.executed_events();
  return result;
}

int FleetResult::Completed() const {
  int count = 0;
  for (const auto& outcome : jobs) {
    if (outcome.completed) ++count;
  }
  return count;
}

double FleetResult::CompletionRate() const {
  if (jobs.empty()) return 0.0;
  return static_cast<double>(Completed()) / static_cast<double>(jobs.size());
}

Distribution FleetResult::JctDistribution(bool dlrover_only,
                                          bool manual_only) const {
  Distribution dist;
  for (const auto& outcome : jobs) {
    if (!outcome.completed) continue;
    if (dlrover_only && !outcome.used_dlrover) continue;
    if (manual_only && outcome.used_dlrover) continue;
    dist.Add(outcome.jct);
  }
  return dist;
}

namespace {

ClusterOptions FleetClusterOptions(const FleetScenario& scenario) {
  ClusterOptions cluster_options = scenario.cluster;
  cluster_options.seed = scenario.seed * 13 + 1;
  return cluster_options;
}

}  // namespace

FleetSimulation::FleetSimulation(Simulator* sim, const FleetScenario& scenario,
                                 std::vector<GeneratedJob> trace)
    : sim_(sim),
      scenario_(scenario),
      trace_(std::move(trace)),
      cluster_(sim_, FleetClusterOptions(scenario)) {
  if (scenario_.control.enabled) {
    ControlChannelOptions control_options = scenario_.control;
    // Per-cell channel stream: sharded runs hand each cell a distinct
    // scenario seed, so every cell's channel draws are cell-local and the
    // merged fleet is byte-identical at any lane count.
    control_options.seed = scenario_.control.seed + scenario_.seed * 131;
    channel_ = std::make_unique<ControlChannel>(sim_, control_options);
    cluster_.set_control_channel(channel_.get());
  }
  if (scenario_.enable_background) {
    BackgroundLoadOptions options = scenario_.background;
    options.seed = scenario_.seed * 7 + 77;
    background_ = std::make_unique<BackgroundLoad>(sim_, &cluster_, options);
    background_->Start();
  }
  FailureInjectorOptions failure_options = scenario_.failures;
  failure_options.seed = scenario_.seed * 3 + 11;
  injector_ =
      std::make_unique<FailureInjector>(sim_, &cluster_, failure_options);
  if (channel_ != nullptr) injector_->set_control_channel(channel_.get());
  injector_->Start();

  BrainOptions brain_options;
  brain_options.budget = cluster_.TotalCapacity() * 0.55;
  brain_options.plan.nsga2.population = 32;
  brain_options.plan.nsga2.generations = 20;
  brain_options.plan.nsga2.seed = scenario_.seed * 19 + 2;
  brain_ = std::make_unique<ClusterBrain>(sim_, brain_options);
  brain_->AttachCluster(&cluster_);
  // Production deployments carry months of history in the config DB.
  brain_->config_db() = SeededHistoryFor(scenario_.seed * 7 + 5);
  brain_->Start();

  ScheduleArrivals();
}

FleetSimulation::~FleetSimulation() {
  // Jobs (and the brain referencing them) must outlive the simulator's
  // pending events; members then unwind in reverse declaration order —
  // outcomes, masters, jobs, brain, injector, background, cluster — exactly
  // as the monolithic RunFleet's locals did.
  brain_->Stop();
}

void FleetSimulation::ScheduleArrivals() {
  Rng rng(scenario_.seed * 23 + 9);
  outcomes_.resize(trace_.size());
  jobs_.resize(trace_.size());

  for (size_t i = 0; i < trace_.size(); ++i) {
    const GeneratedJob& gen = trace_[i];
    FleetJobOutcome& outcome = outcomes_[i];
    outcome.name = gen.spec.name;
    outcome.model = gen.spec.model;
    outcome.hot_ps = gen.hot_ps;
    outcome.total_steps = gen.spec.total_steps;
    outcome.max_workers_quota = gen.max_workers;
    outcome.used_dlrover = rng.Bernoulli(scenario_.dlrover_fraction);
    MisconfigKind misconfig = MisconfigKind::kOverProvisioned;
    Rng config_rng(gen.spec.seed ^ 0xabcdef);
    JobConfig manual_config =
        UserMisconfiguredConfig(gen.spec.model, config_rng, &misconfig);
    // Scale to the job's size class (small jobs stay under ~100 CPUs).
    // Fewer PSes hold proportionally more table each: keep total PS memory.
    manual_config.num_workers = std::max(
        2, static_cast<int>(manual_config.num_workers * gen.size_factor));
    const int scaled_ps = std::max(
        1, static_cast<int>(manual_config.num_ps * gen.size_factor + 0.5));
    manual_config.ps_memory *=
        static_cast<double>(manual_config.num_ps) / scaled_ps;
    manual_config.num_ps = scaled_ps;
    outcome.misconfig = misconfig;

    sim_->ScheduleAt(gen.arrival, [this, i, manual_config] {
      const GeneratedJob& g = trace_[i];
      JobSpec spec = g.spec;
      JobConfig config;
      if (outcomes_[i].used_dlrover) {
        spec.data_mode = DataMode::kDynamicSharding;
        spec.use_flash_checkpoint = true;
        JobMetadata meta = g.meta;
        meta.max_workers_quota = g.max_workers;
        config = brain_->WarmStart(meta);
        if (config == brain_->options().warm_start.default_config) {
          config = ColdStartConfig(g.spec.model);
        }
        config.num_workers = std::min(config.num_workers, g.max_workers);
      } else {
        spec.data_mode = DataMode::kStaticPartition;
        spec.use_flash_checkpoint = false;
        spec.max_restarts = 3;  // Kubeflow-style bounded restart policy
        config = manual_config;
      }
      if (g.hot_ps) {
        // TF tensor-granularity placement: one PS carries an outsized
        // parameter share.
        spec.ps_shares.assign(static_cast<size_t>(config.num_ps), 1.0);
        spec.ps_shares[0] = 3.5;
      }
      auto job = std::make_unique<TrainingJob>(sim_, &cluster_, spec, config);
      outcomes_[i].requested_cpus = static_cast<int>(config.TotalCpu());
      if (outcomes_[i].used_dlrover) {
        JobMetadata meta = g.meta;
        meta.max_workers_quota = g.max_workers;
        brain_->Manage(job.get(), meta);
        auto master = std::make_unique<JobMaster>(sim_, job.get());
        if (channel_ != nullptr) master->AttachChannel(channel_.get());
        master->Start();
        masters_.push_back(std::move(master));
      }
      job->Start();
      jobs_[i] = std::move(job);
    });
  }
}

FleetResult FleetSimulation::Collect() {
  FleetResult result;
  result.executed_events = sim_->executed_events();
  result.pods_preempted = cluster_.counters().pods_preempted;
  result.crashes_injected = injector_->crashes_injected();
  result.stragglers_injected = injector_->stragglers_injected();
  result.node_faults_injected = injector_->node_faults_injected();
  result.control_faults_injected = injector_->control_faults_injected();
  // The audit logs are handed over, not copied: they are most of a chaotic
  // fleet's memory, and the fleet is destroyed right after.
  result.fault_log = injector_->TakeFaultLog();
  if (channel_ != nullptr) {
    result.control_stats = channel_->stats();
    result.control_log = channel_->TakeLog();
  }
  result.health_log = cluster_.TakeHealthLog();
  result.nodes_cordoned = cluster_.counters().nodes_cordoned;
  result.nodes_uncordoned = cluster_.counters().nodes_uncordoned;
  for (size_t i = 0; i < trace_.size(); ++i) {
    FleetJobOutcome& outcome = outcomes_[i];
    TrainingJob* job = jobs_[i].get();
    if (job == nullptr) {
      outcome.completed = false;
      outcome.fail_reason = "never started";
      result.jobs.push_back(outcome);
      continue;
    }
    outcome.stats = job->stats();
    outcome.batches_done = job->batches_done();
    result.plans_fenced += static_cast<uint64_t>(outcome.stats.plans_fenced);
    result.stale_plan_applies +=
        static_cast<uint64_t>(outcome.stats.stale_plan_applies);
    result.shard_reports_rejected +=
        static_cast<uint64_t>(outcome.stats.shard_reports_rejected);
    result.shard_reports_expired +=
        static_cast<uint64_t>(outcome.stats.shard_reports_expired);
    outcome.completed = job->state() == JobState::kCompleted;
    outcome.fail_reason = job->state() == JobState::kFailed
                              ? job->stats().fail_reason
                              : (outcome.completed ? "" : "horizon");
    outcome.jct = outcome.completed ? job->stats().Jct()
                                    : scenario_.horizon - trace_[i].arrival;
    outcome.pending_time =
        job->stats().first_training_time >= 0.0
            ? job->stats().first_training_time - job->stats().submit_time
            : scenario_.horizon - trace_[i].arrival;
    RunningStat wcpu, pcpu, wmem, pmem;
    for (const ThroughputSample& s : job->history()) {
      if (s.samples_per_sec <= 0.0) continue;
      wcpu.Add(s.worker_cpu_util);
      pcpu.Add(s.ps_cpu_util);
      wmem.Add(s.worker_mem_util);
      pmem.Add(s.ps_mem_util);
    }
    outcome.avg_worker_cpu_util = wcpu.mean();
    outcome.avg_ps_cpu_util = pcpu.mean();
    outcome.avg_worker_mem_util = wmem.mean();
    outcome.avg_ps_mem_util = pmem.mean();
    result.jobs.push_back(outcome);
  }
  return result;
}

FleetResult RunFleet(const FleetScenario& scenario) {
  Simulator sim;
  WorkloadOptions workload_options = scenario.workload;
  workload_options.seed = scenario.seed * 1009 + 4;
  // Trace generation draws only from its own RNG stream and schedules
  // nothing, so hoisting it above the fleet setup leaves the event
  // sequence — and therefore every outcome — byte-identical.
  FleetSimulation fleet(&sim, scenario,
                        WorkloadGenerator(workload_options).Generate());
  sim.RunUntil(scenario.horizon);
  return fleet.Collect();
}

}  // namespace dlrover
