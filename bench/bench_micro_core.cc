// Component microbenchmarks (google-benchmark): the building blocks whose
// cost determines whether the cluster brain can run its 3-minute rounds over
// thousands of jobs — NNLS fitting, NSGA-II plan generation, the shards
// queue, the event queue, and the mini-DLRM's forward/backward.

#include <benchmark/benchmark.h>

#include "brain/nsga2.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/mini_dlrm.h"
#include "elastic/shard_queue.h"
#include "perfmodel/throughput_model.h"
#include "ps/iteration_model.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

void BM_NnlsFit(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Matrix a(rows, 5);
  std::vector<double> b(rows);
  std::vector<double> truth = {0.5, 1.2, 0.0, 2.0, 0.3};
  for (size_t i = 0; i < rows; ++i) {
    double y = 0.0;
    for (size_t j = 0; j < 5; ++j) {
      a(i, j) = rng.Uniform(0.0, 2.0);
      y += a(i, j) * truth[j];
    }
    b[i] = y * rng.LogNormal(1.0, 0.02);
  }
  for (auto _ : state) {
    auto solution = NnlsSolve(a, b);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_NnlsFit)->Arg(64)->Arg(256)->Arg(1024);

void BM_ModelFitterFit(benchmark::State& state) {
  ThroughputModel model(MiB(100), 16, GiBps(1.25));
  ModelFitter fitter(model);
  Rng rng(3);
  const ModelProfile profile = GetModelProfile(ModelKind::kWideDeep);
  const EnvironmentProfile env;
  for (int i = 0; i < 240; ++i) {
    JobConfig config;
    config.num_workers = static_cast<int>(rng.UniformInt(int64_t{4}, int64_t{40}));
    config.num_ps = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{8}));
    config.worker_cpu = rng.Uniform(2.0, 16.0);
    config.ps_cpu = rng.Uniform(2.0, 8.0);
    PerfObservation obs;
    obs.workers = config.num_workers;
    obs.ps = config.num_ps;
    obs.worker_cpu = config.worker_cpu;
    obs.ps_cpu = config.ps_cpu;
    obs.iter_time =
        ComputeHealthyIteration(profile, env, 512, config).Total();
    fitter.AddObservation(obs);
  }
  for (auto _ : state) {
    auto params = fitter.Fit();
    benchmark::DoNotOptimize(params);
  }
}
BENCHMARK(BM_ModelFitterFit);

void BM_Nsga2PlanSearch(benchmark::State& state) {
  std::vector<DecisionBounds> bounds = {
      {1, 40, true}, {1, 8, true}, {1, 16, true}, {1, 16, true}};
  Nsga2Options options;
  options.population = static_cast<int>(state.range(0));
  options.generations = static_cast<int>(state.range(1));
  auto objective = [](const std::vector<double>& x) {
    const double cost = x[0] * x[2] + x[1] * x[3];
    const double thr = x[0] / (0.1 + 0.01 * x[0] / (x[1] * x[3]) +
                               0.48 / x[2] + 0.2 / x[1]);
    return Nsga2::Objectives{cost, 1.0 / std::max(1.0, thr)};
  };
  for (auto _ : state) {
    Nsga2 nsga2(bounds, objective, options);
    auto front = nsga2.Run();
    benchmark::DoNotOptimize(front);
  }
}
BENCHMARK(BM_Nsga2PlanSearch)->Args({32, 20})->Args({48, 40});

// The front peel alone, on a population shaped like the brain's integer
// plan space: values on an 8x8 lattice, so ties and duplicates abound.
void BM_NonDominatedSort(benchmark::State& state) {
  Rng rng(5);
  std::vector<Nsga2::Objectives> objectives(static_cast<size_t>(state.range(0)));
  for (auto& o : objectives) {
    o = {static_cast<double>(rng.UniformInt(uint64_t{8})),
         static_cast<double>(rng.UniformInt(uint64_t{8}))};
  }
  for (auto _ : state) {
    auto fronts = Nsga2::NonDominatedSort(objectives);
    benchmark::DoNotOptimize(fronts);
  }
}
BENCHMARK(BM_NonDominatedSort)->Arg(64);

void BM_ShardQueueCycle(benchmark::State& state) {
  for (auto _ : state) {
    ShardQueueOptions options;
    options.total_batches = 200000;
    options.default_shard_batches = 128;
    ShardQueue queue(options);
    while (true) {
      auto shard = queue.NextShard();
      if (!shard.ok()) break;
      benchmark::DoNotOptimize(queue.ReportCompleted(*shard));
    }
  }
}
BENCHMARK(BM_ShardQueueCycle);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(static_cast<double>(i % 977), [] {});
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(sim.executed_events());
  }
}
BENCHMARK(BM_EventQueueThroughput);

void BM_MiniDlrmComputeBatch(benchmark::State& state) {
  MiniDlrmConfig config;
  config.arch = static_cast<ModelKind>(state.range(0));
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {32, 16};
  MiniDlrm model(config);
  CriteoSynth data(5);
  DlrmBatchWork work;
  data.FillBatch(0, 64, &work.batch);
  model.PullBatch(&work);
  for (auto _ : state) {
    const double loss = model.ComputeBatch(&work);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_MiniDlrmComputeBatch)->Arg(0)->Arg(1)->Arg(2);

void BM_IterationModel(benchmark::State& state) {
  const ModelProfile profile = GetModelProfile(ModelKind::kDcn);
  const EnvironmentProfile env;
  JobConfig config;
  config.num_workers = 24;
  config.num_ps = 6;
  const PsGroupState group = PsGroupState::Balanced(6);
  for (auto _ : state) {
    const IterationBreakdown iter =
        ComputeIteration(profile, env, 512, 24, config, 1.0, group);
    benchmark::DoNotOptimize(iter);
  }
}
BENCHMARK(BM_IterationModel);

}  // namespace
}  // namespace dlrover

BENCHMARK_MAIN();
