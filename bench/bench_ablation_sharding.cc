// Ablation: dynamic data sharding design choices (DESIGN.md section 4).
//   (a) shard size — the paper uses small shards (64/128/256 batches),
//       expecting larger ones to make straggler mitigation and failure
//       re-queuing coarser; smaller shards add dispatch overhead events;
//   (b) data serving mode — dynamic sharding vs static partitioning under
//       worker churn.

#include <cstdio>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "common/stats.h"
#include "harness/reporting.h"
#include "master/job_master.h"
#include "ps/training_job.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

struct Outcome {
  Duration jct = 0.0;
  int restarts = 0;
  size_t faults = 0;  // pod crashes plus stragglers injected
  bool completed = false;
};

Outcome RunJob(DataMode mode, uint64_t shard_batches, bool inject_faults,
               uint64_t seed) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  cluster_options.seed = seed;
  Cluster cluster(&sim, cluster_options);

  JobSpec spec;
  spec.name = "ablate";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = 120000;
  spec.data_mode = mode;
  spec.use_flash_checkpoint = true;
  spec.seed = seed * 31;

  JobConfig config;
  config.num_workers = 20;
  config.num_ps = 4;
  config.worker_cpu = 8.0;
  config.ps_cpu = 6.0;
  config.worker_memory = GiB(6);
  config.ps_memory = GiB(12);

  TrainingJob job(&sim, &cluster, spec, config);
  // Note: shard size is a ShardQueue option; emulate per-size runs by
  // capping every worker's shard request.
  job.Start();
  if (mode == DataMode::kDynamicSharding && shard_batches != 0) {
    sim.ScheduleAfter(Seconds(1), [&] {
      for (int i = 0; i < config.num_workers; ++i) {
        (void)job.SetWorkerShardLimit(i, shard_batches);
      }
    });
  }
  JobMaster master(&sim, &job);
  master.Start();

  std::unique_ptr<FailureInjector> injector;
  if (inject_faults) {
    // The job runs ~16 minutes on 24 pods (~0.27 pod-days), so these rates
    // inject ~1.6 crashes and ~1.1 stragglers per run.
    FailureInjectorOptions failures;
    failures.daily_pod_failure_rate = 6.0;
    failures.daily_straggler_rate = 4.0;
    failures.seed = seed;
    injector = std::make_unique<FailureInjector>(&sim, &cluster, failures);
    injector->Start();
  }
  sim.RunUntil(Hours(12));
  Outcome outcome;
  outcome.completed = job.state() == JobState::kCompleted;
  outcome.jct = outcome.completed ? job.stats().Jct() : Hours(12);
  outcome.restarts = job.stats().full_restarts;
  if (injector) outcome.faults = injector->fault_log().size();
  return outcome;
}

void Run() {
  PrintBanner("Ablation (a): shard size under faults (dynamic sharding)");
  constexpr int kSeeds = 10;
  TablePrinter sizes({"shard batches", "faults/run", "JCT", "completed"});
  for (uint64_t batches : {32ull, 64ull, 128ull, 256ull, 1024ull}) {
    RunningStat jct;
    RunningStat faults;
    int done = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Outcome o =
          RunJob(DataMode::kDynamicSharding, batches, true, seed);
      faults.Add(static_cast<double>(o.faults));
      if (o.completed) {
        jct.Add(o.jct);
        ++done;
      }
    }
    sizes.AddRow({StrFormat("%llu", static_cast<unsigned long long>(batches)),
                  StrFormat("%.1f", faults.mean()),
                  FormatDuration(jct.mean()),
                  StrFormat("%d/%d", done, kSeeds)});
  }
  sizes.Print();

  PrintBanner("Ablation (b): data serving mode under worker churn");
  TablePrinter modes({"mode", "faults", "JCT", "restarts"});
  for (bool faults : {false, true}) {
    for (DataMode mode : {DataMode::kDynamicSharding,
                          DataMode::kStaticPartition}) {
      const Outcome o = RunJob(mode, 0, faults, 7);
      modes.AddRow({mode == DataMode::kDynamicSharding ? "dynamic sharding"
                                                       : "static partition",
                    faults ? "yes" : "no", FormatDuration(o.jct),
                    StrFormat("%d", o.restarts)});
    }
  }
  modes.Print();
  std::printf(
      "\nshape check: (a) JCT follows the faults a run draws, not the shard\n"
      "size: a failed worker's shard is re-queued with its processed prefix\n"
      "kept, so the re-queue loss does not grow with the shard. (b) without\n"
      "faults the modes tie; with churn, static partitioning pays full\n"
      "restarts while dynamic sharding re-queues shards and keeps going\n"
      "(paper Section 5.1).\n");
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
