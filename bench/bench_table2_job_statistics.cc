// Reproduces the context of Table 2: the mix of workloads sharing the
// cloud-based cluster (training, stream processing, online services) and
// their utilisation levels. We run the synthetic fleet and report the same
// columns the paper tabulates, scaled to the simulated cluster.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/reporting.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

void Run() {
  PrintBanner("Table 2: workload consolidation on the shared cluster");

  // A manual (pre-DLRover) fleet: jobs arrive on the trace's schedule over
  // two hours, and the cluster is sampled halfway through, while they train.
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 100;
  Cluster cluster(&sim, cluster_options);

  BackgroundLoadOptions bg;
  bg.base_fraction = 0.18;
  bg.peak_fraction = 0.12;
  BackgroundLoad background(&sim, &cluster, bg);
  background.Start();

  WorkloadOptions workload;
  workload.num_jobs = 30;
  workload.arrival_span = Hours(2);
  const auto trace = WorkloadGenerator(workload).Generate();
  std::vector<std::unique_ptr<TrainingJob>> jobs;
  Rng rng(5);
  for (const GeneratedJob& gen : trace) {
    JobSpec spec = gen.spec;
    spec.data_mode = DataMode::kStaticPartition;
    JobConfig config = UserMisconfiguredConfig(gen.spec.model, rng);
    config.num_workers =
        std::max(2, static_cast<int>(config.num_workers * gen.size_factor));
    auto job = std::make_unique<TrainingJob>(&sim, &cluster, spec, config);
    TrainingJob* submitted = job.get();
    sim.ScheduleAt(gen.arrival, [submitted] { submitted->Start(); });
    jobs.push_back(std::move(job));
  }
  sim.RunUntil(Hours(1));

  // Aggregate by priority class (job type).
  struct Row {
    int count = 0;
    double vcpu = 0.0;
    double used_cpu = 0.0;
    Bytes mem = 0.0;
  };
  Row training, online;
  auto tally = [&](PriorityClass priority, Row* row) {
    cluster.VisitRunningPods(priority, [&](const Pod& pod) {
      ++row->count;
      row->vcpu += pod.spec.request.cpu;
      row->used_cpu += pod.usage.cpu;
      row->mem += pod.spec.request.memory;
    });
  };
  tally(PriorityClass::kTraining, &training);
  tally(BackgroundLoad::kPriority, &online);

  TablePrinter table({"job type", "pods", "vCPU", "CPU util", "MEM"});
  auto add = [&](const char* name, const Row& row) {
    table.AddRow({name, StrFormat("%d", row.count),
                  StrFormat("%.0f", row.vcpu),
                  row.vcpu > 0 ? FormatPercent(row.used_cpu / row.vcpu) : "-",
                  StrFormat("%.1f TiB", ToTiB(row.mem))});
  };
  add("Training (DLRM)", training);
  add("Online/Stream services", online);
  table.Print();
  std::printf(
      "\nshape check (paper Table 2): training jobs dominate the pod count "
      "but run at low CPU utilisation (~20%%) next to the co-located "
      "services; pending pods right now: %zu.\n",
      cluster.PendingCount());
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
