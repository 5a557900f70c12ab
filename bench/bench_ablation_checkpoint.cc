// Ablation: checkpoint tier and cadence (DESIGN.md section 4).
// Flash-checkpoint's value decomposes into (a) cheap saves enable frequent
// checkpoints => small rollback windows on PS loss, and (b) cheap handoffs
// make migrations near-free. This bench sweeps tier x interval for a job
// that loses a PS mid-run and reports JCT plus rollback size.

#include <cstdio>

#include "cluster/cluster.h"
#include "harness/reporting.h"
#include "ps/training_job.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

void Run() {
  PrintBanner(
      "Ablation: checkpoint tier x interval, PS crash at t = 8 min");
  TablePrinter table({"tier", "interval", "JCT", "ckpt downtime",
                      "batches rolled back"});
  for (bool flash : {true, false}) {
    for (double minutes : {2.5, 10.0, 30.0}) {
      Simulator sim;
      ClusterOptions cluster_options;
      cluster_options.num_nodes = 20;
      Cluster cluster(&sim, cluster_options);

      JobSpec spec;
      spec.name = "ckpt-ablate";
      spec.model = ModelKind::kWideDeep;
      spec.total_steps = 120000;
      spec.data_mode = DataMode::kDynamicSharding;
      spec.use_flash_checkpoint = flash;
      spec.checkpoint_interval = Minutes(minutes);

      JobConfig config;
      config.num_workers = 20;
      config.num_ps = 4;
      config.worker_cpu = 8.0;
      config.ps_cpu = 6.0;
      config.worker_memory = GiB(6);
      config.ps_memory = GiB(12);

      TrainingJob job(&sim, &cluster, spec, config);
      job.Start();

      uint64_t batches_at_crash = 0;
      sim.ScheduleAt(Minutes(8), [&] {
        batches_at_crash = job.batches_done();
        PodId victim = 0;
        cluster.VisitRunningPods(PriorityClass::kTraining,
                                 [&](const Pod& pod) {
          if (victim == 0 && pod.spec.name.find("-ps-") != std::string::npos) {
            victim = pod.id;
          }
        });
        if (victim != 0) cluster.FailPod(victim, PodStopReason::kCrash);
      });

      // Observe the rollback: minimum batches_done after the crash.
      uint64_t min_after = ~0ull;
      PeriodicTask watcher(&sim, Seconds(15), [&] {
        if (batches_at_crash > 0 && !job.finished()) {
          min_after = std::min(min_after, job.batches_done());
        }
      });
      watcher.Start();

      sim.RunUntil(Hours(10));
      const uint64_t rolled_back =
          min_after == ~0ull ? 0 : batches_at_crash - std::min(
                                       batches_at_crash, min_after);
      table.AddRow({flash ? "flash-cache" : "RDS",
                    StrFormat("%.1f min", minutes),
                    job.state() == JobState::kCompleted
                        ? FormatDuration(job.stats().Jct())
                        : "failed",
                    FormatDuration(job.stats().downtime_checkpoint),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(rolled_back))});
    }
  }
  table.Print();
  std::printf(
      "\nshape check: the flash tier keeps checkpoint downtime in seconds "
      "at any cadence, so frequent checkpoints (small rollback windows) "
      "are free; RDS forces a choice between rollback size and overhead "
      "(paper Section 5.2).\n");
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
