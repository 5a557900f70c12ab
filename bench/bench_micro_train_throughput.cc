// Micro-benchmark for the multi-threaded training runtime: trains the real
// mini-DLRM in ExecMode::kThreads across a deduplicated 1/2/4/8/hw thread
// sweep (plus the deterministic kTicks reference) and reports samples/sec,
// speedup over one thread, scaling efficiency, and the per-phase breakdown
// of where worker time goes — pull (data + dense copy + gather), compute
// (forward/backward), push (sharded gradient application), commit-gate
// wait, state-lock wait, and shard-queue wait.
//
// Every point runs kRepetitions times, interleaved across widths so host
// drift hits all points alike; tables and JSON report the median (with
// min/max in the JSON). Speedup and efficiency are relative to the
// threads:1 median. Results are written to
// BENCH_micro_train_throughput.json.
//
// Scaling is bounded by the hardware the bench runs on — the JSON records
// hardware_threads so a 1-core CI box reporting ~1x is interpretable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dlrm/async_trainer.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

struct RunResult {
  std::string label;
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
  out.label = mode == ExecMode::kTicks
                  ? "ticks"
                  : StrFormat("threads:%d", threads);
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

/// One sweep point (mode, width) over its repetitions, which SortReps
/// orders by samples/sec once the sweep is done.
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

/// The threads:1 median rate that speedups and efficiencies are relative
/// to (0 when the sweep has no 1-thread point).
double ThreadsOneRate(const std::vector<Point>& points) {
  for (const Point& p : points) {
    if (p.Median().threads == 1) return p.Rate();
  }
  return 0.0;
}

void PrintSweepTable(const std::vector<Point>& points, double base) {
  TablePrinter table(
      {"mode", "samples/sec", "speedup", "efficiency", "final AUC"});
  for (const Point& p : points) {
    const RunResult& r = p.Median();
    const double speedup = p.Rate() / base;
    const double eff = r.threads > 0 ? speedup / r.threads : 0.0;
    table.AddRow({r.label, StrFormat("%.0f", p.Rate()),
                  StrFormat("%.2fx", speedup),
                  r.threads > 0 ? FormatPercent(eff) : "-",
                  StrFormat("%.4f", r.final_auc)});
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

void WritePointJson(FILE* json, const Point& p, double base, bool last) {
  const RunResult& r = p.Median();
  const double speedup = p.Rate() / base;
  std::fprintf(
      json,
      "    {\"mode\": \"%s\", \"threads\": %d, "
      "\"repetitions\": %zu, \"seconds\": %.4f, \"samples_per_sec\": %.1f, "
      "\"samples_per_sec_min\": %.1f, \"samples_per_sec_max\": %.1f, "
      "\"speedup_vs_1thread\": %.3f, \"efficiency\": %.3f, "
      "\"final_auc\": %.4f,\n"
      "     \"phases\": {\"pull_s\": %.4f, \"compute_s\": %.4f, "
      "\"push_s\": %.4f, \"commit_wait_s\": %.4f, \"lock_wait_s\": %.4f, "
      "\"queue_wait_s\": %.4f, \"batches\": %llu}}%s\n",
      r.label.c_str(), r.threads, p.reps.size(), r.seconds, p.Rate(),
      p.reps.front().samples_per_sec, p.reps.back().samples_per_sec, speedup,
      r.threads > 0 ? speedup / r.threads : 0.0, r.final_auc, r.phases.pull_s,
      r.phases.compute_s, r.phases.push_s, r.phases.commit_wait_s,
      r.phases.lock_wait_s, r.phases.queue_wait_s,
      static_cast<unsigned long long>(r.phases.batches), last ? "" : ",");
}

void Run() {
  PrintBanner("micro: training throughput, tick loop vs real threads");
  CriteoSynth data(31);
  const std::vector<int> widths = SweepWidths();

  // Warm-up: touch the data generator and page in the code paths so the
  // 1-thread baseline is not penalized with cold-start costs.
  TimeRun(ExecMode::kThreads, 1, data);

  // The kTicks reference, then the widths. Repetitions are interleaved:
  // each round runs every point once.
  std::vector<Point> points(widths.size() + 1);
  for (int rep = 0; rep < kRepetitions; ++rep) {
    points[0].reps.push_back(TimeRun(ExecMode::kTicks, 0, data));
    for (size_t w = 0; w < widths.size(); ++w) {
      points[w + 1].reps.push_back(
          TimeRun(ExecMode::kThreads, widths[w], data));
    }
  }
  for (Point& p : points) p.SortReps();
  const double base = ThreadsOneRate(points);

  std::printf("median of %d interleaved repetitions per point\n",
              kRepetitions);
  PrintSweepTable(points, base);
  std::printf("\nphase breakdown (share of worker-busy seconds):\n");
  PrintPhaseTable(points);
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
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    WritePointJson(json, points[i], base, i + 1 == points.size());
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
