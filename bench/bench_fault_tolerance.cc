// Fault-tolerance benchmark (Table-4 style, but for the threaded training
// runtime): the same seeded chaos schedules — worker crashes before/after
// push, stalls, lost shard reports, corrupted checkpoint writes, PS
// failures — are replayed against two arms:
//
//   unprotected:  fault tolerance off, no end-of-run drain. Crashed
//                 workers take their shards to the grave; lost work stays
//                 lost.
//   protected:    supervisor on — heartbeat-driven fencing + reclamation,
//                 periodic checkpoints, restore-on-PS-loss.
//
// Reported per chaos seed: completion rate (committed / scheduled),
// goodput (useful samples per wall-clock second), and the exactly-once
// audit. The protected arm must complete everything exactly once and land
// within tolerance of an uninterrupted reference run; the gap between the
// arms is the work the supervisor saves. Written to
// BENCH_fault_tolerance.json.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "dlrm/async_trainer.h"
#include "elastic/chaos.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

constexpr uint64_t kTotalBatches = 600;
constexpr uint64_t kBatchSize = 64;

MiniDlrmConfig BenchModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 6;
  config.hash_buckets = 1024;
  config.mlp_hidden = {16, 8};
  config.seed = 5;
  return config;
}

AsyncTrainerOptions BenchOptions() {
  AsyncTrainerOptions options;
  options.num_workers = 6;
  options.batch_size = kBatchSize;
  options.total_batches = kTotalBatches;
  options.learning_rate = 0.12;
  options.shard_batches = 12;
  options.eval_every_batches = 1 << 30;  // final eval only
  options.seed = 17;
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  return options;
}

struct ArmResult {
  std::string arm;
  uint64_t seed = 0;
  uint64_t committed = 0;
  uint64_t skipped = 0;
  uint64_t duplicated = 0;
  bool exactly_once = false;
  double seconds = 0.0;
  double goodput = 0.0;  // useful samples / wall second
  double final_logloss = 0.0;
  double final_auc = 0.0;
  size_t faults_fired = 0;
  FaultToleranceStats ft;
};

ArmResult RunArm(const std::string& arm, uint64_t seed, ChaosInjector* chaos,
                 bool protect, const CriteoSynth& data) {
  MiniDlrm model(BenchModel());
  AsyncTrainerOptions options = BenchOptions();
  options.chaos = chaos;
  if (protect) {
    options.fault_tolerance.enabled = true;
    options.fault_tolerance.checkpoint_every_batches = 96;
    options.fault_tolerance.heartbeat_timeout_ms = 250.0;
    options.fault_tolerance.supervisor_poll_ms = 1.0;
  } else if (chaos != nullptr) {
    options.drain_remainder = false;  // lost work stays lost
  }
  AsyncPsTrainer trainer(&model, &data, options);
  const auto start = std::chrono::steady_clock::now();
  const TrainResult result = trainer.Run();
  const auto stop = std::chrono::steady_clock::now();

  ArmResult out;
  out.arm = arm;
  out.seed = seed;
  out.committed = result.batches_committed;
  out.skipped = result.batches_skipped;
  out.duplicated = result.batches_duplicated;
  out.exactly_once = result.batches_duplicated == 0 &&
                     result.batches_skipped == 0 &&
                     result.batches_committed == kTotalBatches;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.goodput = static_cast<double>(result.batches_committed) *
                static_cast<double>(kBatchSize) / out.seconds;
  out.final_logloss = result.final_logloss;
  out.final_auc = result.final_auc;
  out.faults_fired = chaos != nullptr ? chaos->fired().size() : 0;
  out.ft = result.ft;
  return out;
}

void Run() {
  PrintBanner("fault tolerance: completion & goodput under seeded chaos");
  CriteoSynth data(99);

  // Warm-up, then the uninterrupted reference: the quality target the
  // protected arm must match and the goodput ceiling chaos eats into.
  RunArm("warmup", 0, nullptr, false, data);
  const ArmResult reference = RunArm("reference", 0, nullptr, false, data);

  std::vector<ArmResult> runs;
  const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5};
  for (uint64_t seed : seeds) {
    ChaosScheduleOptions schedule;
    schedule.seed = seed;
    schedule.total_batches = kTotalBatches;
    {
      ChaosInjector chaos = ChaosInjector::FromSeed(schedule);
      runs.push_back(RunArm("unprotected", seed, &chaos, false, data));
    }
    {
      ChaosInjector chaos = ChaosInjector::FromSeed(schedule);
      runs.push_back(RunArm("protected", seed, &chaos, true, data));
    }
  }

  TablePrinter table({"seed", "arm", "committed", "completion", "goodput",
                      "exactly-once", "|dlogloss|", "restores", "fenced"});
  double off_completion = 0.0, on_completion = 0.0;
  double off_goodput = 0.0, on_goodput = 0.0;
  int on_exactly_once = 0;
  for (const ArmResult& r : runs) {
    const double completion =
        static_cast<double>(r.committed) / static_cast<double>(kTotalBatches);
    const double dlogloss = std::fabs(r.final_logloss - reference.final_logloss);
    table.AddRow({StrFormat("%llu", static_cast<unsigned long long>(r.seed)),
                  r.arm,
                  StrFormat("%llu/%llu",
                            static_cast<unsigned long long>(r.committed),
                            static_cast<unsigned long long>(kTotalBatches)),
                  FormatPercent(completion), StrFormat("%.0f", r.goodput),
                  r.exactly_once ? "yes" : "NO",
                  StrFormat("%.4f", dlogloss),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(r.ft.restores)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.ft.workers_fenced))});
    if (r.arm == "protected") {
      on_completion += completion;
      on_goodput += r.goodput;
      on_exactly_once += r.exactly_once ? 1 : 0;
    } else {
      off_completion += completion;
      off_goodput += r.goodput;
    }
  }
  table.Print();
  const double n = static_cast<double>(seeds.size());
  std::printf(
      "\nreference (no chaos): goodput %.0f samples/s, logloss %.4f, "
      "auc %.4f\nmean completion: unprotected %s, protected %s; "
      "exactly-once %d/%d protected runs.\n",
      reference.goodput, reference.final_logloss, reference.final_auc,
      FormatPercent(off_completion / n).c_str(),
      FormatPercent(on_completion / n).c_str(), on_exactly_once,
      static_cast<int>(seeds.size()));

  FILE* json =
      OpenBenchJson("BENCH_fault_tolerance.json", "fault_tolerance");
  if (json == nullptr) return;
  std::fprintf(json, "  \"total_batches\": %llu,\n",
               static_cast<unsigned long long>(kTotalBatches));
  std::fprintf(json, "  \"batch_size\": %llu,\n",
               static_cast<unsigned long long>(kBatchSize));
  std::fprintf(json,
               "  \"reference\": {\"goodput\": %.1f, \"final_logloss\": "
               "%.5f, \"final_auc\": %.5f},\n",
               reference.goodput, reference.final_logloss,
               reference.final_auc);
  std::fprintf(json, "  \"mean_completion_unprotected\": %.4f,\n",
               off_completion / n);
  std::fprintf(json, "  \"mean_completion_protected\": %.4f,\n",
               on_completion / n);
  std::fprintf(json, "  \"mean_goodput_unprotected\": %.1f,\n",
               off_goodput / n);
  std::fprintf(json, "  \"mean_goodput_protected\": %.1f,\n", on_goodput / n);
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ArmResult& r = runs[i];
    std::fprintf(
        json,
        "    {\"seed\": %llu, \"arm\": \"%s\", \"committed\": %llu, "
        "\"skipped\": %llu, \"duplicated\": %llu, \"exactly_once\": %s, "
        "\"seconds\": %.4f, \"goodput\": %.1f, \"final_logloss\": %.5f, "
        "\"final_auc\": %.5f, \"faults_fired\": %zu, "
        "\"checkpoints_taken\": %llu, \"checkpoint_writes_failed\": %llu, "
        "\"restores\": %llu, \"batches_rolled_back\": %llu, "
        "\"workers_fenced\": %llu, \"workers_replaced\": %llu, "
        "\"shards_reclaimed\": %llu, \"lost_reports_reaped\": %llu, "
        "\"stalls_injected\": %llu}%s\n",
        static_cast<unsigned long long>(r.seed), r.arm.c_str(),
        static_cast<unsigned long long>(r.committed),
        static_cast<unsigned long long>(r.skipped),
        static_cast<unsigned long long>(r.duplicated),
        r.exactly_once ? "true" : "false", r.seconds, r.goodput,
        r.final_logloss, r.final_auc, r.faults_fired,
        static_cast<unsigned long long>(r.ft.checkpoints_taken),
        static_cast<unsigned long long>(r.ft.checkpoint_writes_failed),
        static_cast<unsigned long long>(r.ft.restores),
        static_cast<unsigned long long>(r.ft.batches_rolled_back),
        static_cast<unsigned long long>(r.ft.workers_fenced),
        static_cast<unsigned long long>(r.ft.workers_replaced),
        static_cast<unsigned long long>(r.ft.shards_reclaimed),
        static_cast<unsigned long long>(r.ft.lost_reports_reaped),
        static_cast<unsigned long long>(r.ft.stalls_injected),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_fault_tolerance.json\n");
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
