// Micro-benchmark for the multi-threaded training runtime: trains the real
// mini-DLRM in ExecMode::kThreads across a deduplicated 1/2/4/8/hw thread
// sweep (plus the deterministic kTicks reference) and reports samples/sec,
// speedup over one thread, scaling efficiency, and the per-phase breakdown
// of where worker time goes — pull (data + snapshot + gather), compute
// (forward/backward), push (sharded gradient application), commit-gate
// wait, state-lock wait, and shard-queue wait. A second sweep arm repeats
// the widths with the SIMD (AVX2/FMA) dense kernels when the CPU has them.
//
// Every point runs kRepetitions times, interleaved across widths and arms
// so host drift hits all points alike; tables and JSON report the median
// (with min/max in the JSON). Each arm's speedup and efficiency are
// relative to that arm's own threads:1 median, and the SIMD arm also
// reports kernel_speedup_vs_scalar against the scalar point of the same
// width. Results are written to BENCH_micro_train_throughput.json.
//
// Scaling is bounded by the hardware the bench runs on — the JSON records
// hardware_threads so a 1-core CI box reporting ~1x is interpretable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/dense_kernels.h"
#include "dlrm/async_trainer.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

struct RunResult {
  std::string label;
  std::string kernels;  // "scalar" | "simd"
  int threads = 0;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double final_auc = 0.0;
  PhaseBreakdown phases;
};

AsyncTrainerOptions BenchOptions() {
  AsyncTrainerOptions options;
  options.num_workers = 8;
  options.batch_size = 128;
  options.total_batches = 1200;
  options.learning_rate = 0.1;
  options.shard_batches = 12;
  options.eval_every_batches = 1 << 30;  // no mid-run evals: pure training
  options.eval_size = 1024;
  options.seed = 11;
  return options;
}

MiniDlrmConfig BenchModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {64, 32};
  config.seed = 5;
  return config;
}

/// Thread widths for the sweep: {1, 2, 4, 8, hardware_concurrency},
/// deduplicated and sorted, so a 64-core box shows its full headroom and a
/// 2-core box doesn't pretend to sweep 8 distinct widths.
std::vector<int> SweepWidths() {
  std::vector<int> widths = {1, 2, 4, 8};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) widths.push_back(hw);
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

RunResult TimeRun(ExecMode mode, int threads, const CriteoSynth& data) {
  MiniDlrm model(BenchModel());
  AsyncTrainerOptions options = BenchOptions();
  options.exec_mode = mode;
  options.num_threads = threads;
  AsyncPsTrainer trainer(&model, &data, options);
  const auto start = std::chrono::steady_clock::now();
  const TrainResult result = trainer.Run();
  const auto stop = std::chrono::steady_clock::now();

  RunResult out;
  out.kernels =
      ActiveDenseKernelMode() == DenseKernelMode::kSimd ? "simd" : "scalar";
  out.label = mode == ExecMode::kTicks
                  ? "ticks"
                  : StrFormat("threads:%d", threads);
  if (out.kernels == "simd") out.label += "+simd";
  out.threads = threads;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  const double samples = static_cast<double>(result.batches_committed) *
                         static_cast<double>(options.batch_size);
  out.samples_per_sec = samples / out.seconds;
  out.final_auc = result.final_auc;
  out.phases = result.phases;
  return out;
}

constexpr int kRepetitions = 3;

/// One sweep point (mode, kernels, width) over its repetitions, which
/// SortReps orders by samples/sec once the sweep is done.
struct Point {
  std::vector<RunResult> reps;

  void SortReps() {
    std::sort(reps.begin(), reps.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.samples_per_sec < b.samples_per_sec;
              });
  }
  /// The median repetition (the upper median for an even count); its
  /// phases and AUC stand for the point.
  const RunResult& Median() const { return reps[reps.size() / 2]; }
  double Rate() const { return Median().samples_per_sec; }
};

/// One kernel arm of the sweep: the points in width order, and the
/// threads:1 rate its speedups and efficiencies are relative to.
struct Arm {
  std::vector<Point> points;
  double base = 0.0;
};

double ThreadsOneRate(const std::vector<Point>& points) {
  for (const Point& p : points) {
    if (p.Median().threads == 1) return p.Rate();
  }
  return 0.0;
}

/// kernel_speedup_vs_scalar of a SIMD point: its median rate over the
/// scalar arm's median at the same width (0 when there is none).
double KernelSpeedup(const Point& simd, const Arm& scalar) {
  for (const Point& p : scalar.points) {
    if (p.Median().threads == simd.Median().threads) {
      return simd.Rate() / p.Rate();
    }
  }
  return 0.0;
}

void PrintSweepTable(const Arm& arm, const Arm* scalar) {
  std::vector<std::string> header = {"mode", "samples/sec", "speedup",
                                     "efficiency", "final AUC"};
  if (scalar != nullptr) header.push_back("vs scalar");
  TablePrinter table(header);
  for (const Point& p : arm.points) {
    const RunResult& r = p.Median();
    const double speedup = p.Rate() / arm.base;
    const double eff = r.threads > 0 ? speedup / r.threads : 0.0;
    std::vector<std::string> row = {
        r.label, StrFormat("%.0f", p.Rate()), StrFormat("%.2fx", speedup),
        r.threads > 0 ? FormatPercent(eff) : "-",
        StrFormat("%.4f", r.final_auc)};
    if (scalar != nullptr) {
      row.push_back(StrFormat("%.2fx", KernelSpeedup(p, *scalar)));
    }
    table.AddRow(row);
  }
  table.Print();
}

void PrintPhaseTable(const std::vector<Point>& points) {
  // Per-phase share of total worker-busy time: where an added thread's
  // second actually goes. Rising commit-wait/lock-wait shares with width
  // is serialization; flat shares with rising samples/sec is real scaling.
  TablePrinter table({"mode", "pull", "compute", "push", "commit-wait",
                      "lock-wait", "queue-wait/batch"});
  for (const Point& p : points) {
    const RunResult& r = p.Median();
    const double busy = std::max(r.phases.BusySeconds(), 1e-12);
    const double batches =
        std::max(static_cast<double>(r.phases.batches), 1.0);
    table.AddRow({r.label, FormatPercent(r.phases.pull_s / busy),
                  FormatPercent(r.phases.compute_s / busy),
                  FormatPercent(r.phases.push_s / busy),
                  FormatPercent(r.phases.commit_wait_s / busy),
                  FormatPercent(r.phases.lock_wait_s / busy),
                  StrFormat("%.1fus", 1e6 * r.phases.queue_wait_s / batches)});
  }
  table.Print();
}

void WritePointJson(FILE* json, const Point& p, const Arm& arm,
                    const Arm* scalar, bool last) {
  const RunResult& r = p.Median();
  const double speedup = p.Rate() / arm.base;
  std::fprintf(
      json,
      "    {\"mode\": \"%s\", \"kernels\": \"%s\", \"threads\": %d, "
      "\"repetitions\": %zu, \"seconds\": %.4f, \"samples_per_sec\": %.1f, "
      "\"samples_per_sec_min\": %.1f, \"samples_per_sec_max\": %.1f, "
      "\"speedup_vs_1thread\": %.3f, \"efficiency\": %.3f, ",
      r.label.c_str(), r.kernels.c_str(), r.threads, p.reps.size(),
      r.seconds, p.Rate(), p.reps.front().samples_per_sec,
      p.reps.back().samples_per_sec, speedup,
      r.threads > 0 ? speedup / r.threads : 0.0);
  if (scalar != nullptr) {
    std::fprintf(json, "\"kernel_speedup_vs_scalar\": %.3f, ",
                 KernelSpeedup(p, *scalar));
  }
  std::fprintf(
      json,
      "\"final_auc\": %.4f,\n"
      "     \"phases\": {\"pull_s\": %.4f, \"compute_s\": %.4f, "
      "\"push_s\": %.4f, \"commit_wait_s\": %.4f, \"lock_wait_s\": %.4f, "
      "\"queue_wait_s\": %.4f, \"batches\": %llu}}%s\n",
      r.final_auc, r.phases.pull_s, r.phases.compute_s, r.phases.push_s,
      r.phases.commit_wait_s, r.phases.lock_wait_s, r.phases.queue_wait_s,
      static_cast<unsigned long long>(r.phases.batches), last ? "" : ",");
}

void Run() {
  PrintBanner("micro: training throughput, tick loop vs real threads");
  CriteoSynth data(31);
  const std::vector<int> widths = SweepWidths();

  // Warm-up: touch the data generator and page in the code paths so the
  // 1-thread baseline is not penalized with cold-start costs.
  TimeRun(ExecMode::kThreads, 1, data);

  // Scalar arm: kTicks reference, then the widths. SIMD arm: the widths
  // with the AVX2/FMA kernels, when the CPU has them. Repetitions are
  // interleaved: each round runs every point of both arms once. The SIMD
  // mode is opt-in per run and restored after — the scalar kernels stay
  // the bit-identical default everywhere else.
  const bool simd = SimdKernelsAvailable();
  Arm scalar_arm;
  Arm simd_arm;
  scalar_arm.points.resize(widths.size() + 1);
  if (simd) simd_arm.points.resize(widths.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    scalar_arm.points[0].reps.push_back(TimeRun(ExecMode::kTicks, 0, data));
    for (size_t w = 0; w < widths.size(); ++w) {
      scalar_arm.points[w + 1].reps.push_back(
          TimeRun(ExecMode::kThreads, widths[w], data));
      if (simd) {
        SetDenseKernelMode(DenseKernelMode::kSimd);
        simd_arm.points[w].reps.push_back(
            TimeRun(ExecMode::kThreads, widths[w], data));
        SetDenseKernelMode(DenseKernelMode::kScalar);
      }
    }
  }
  for (Arm* arm : {&scalar_arm, &simd_arm}) {
    for (Point& p : arm->points) p.SortReps();
    arm->base = ThreadsOneRate(arm->points);
  }

  std::printf("median of %d interleaved repetitions per point\n",
              kRepetitions);
  PrintSweepTable(scalar_arm, nullptr);
  if (simd) {
    std::printf("\nsimd (avx2/fma) dense kernels:\n");
    PrintSweepTable(simd_arm, &scalar_arm);
  } else {
    std::printf("simd kernels unavailable on this CPU (needs AVX2+FMA)\n");
  }
  std::printf("\nphase breakdown (share of worker-busy seconds):\n");
  PrintPhaseTable(scalar_arm.points);
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());

  FILE* json = OpenBenchJson("BENCH_micro_train_throughput.json",
                             "micro_train_throughput");
  if (json == nullptr) return;
  std::fprintf(json, "  \"total_batches\": %llu,\n",
               static_cast<unsigned long long>(BenchOptions().total_batches));
  std::fprintf(json, "  \"batch_size\": %llu,\n",
               static_cast<unsigned long long>(BenchOptions().batch_size));
  std::fprintf(json, "  \"repetitions\": %d,\n", kRepetitions);
  std::fprintf(json, "  \"simd_available\": %s,\n", simd ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  const size_t total = scalar_arm.points.size() + simd_arm.points.size();
  size_t written = 0;
  for (const Point& p : scalar_arm.points) {
    WritePointJson(json, p, scalar_arm, nullptr, ++written == total);
  }
  for (const Point& p : simd_arm.points) {
    WritePointJson(json, p, simd_arm, &scalar_arm, ++written == total);
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_micro_train_throughput.json\n");
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
