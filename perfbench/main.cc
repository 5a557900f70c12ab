// One benchmark workload, run through the public harness: RunFleetSharded
// for the fleet workloads and AsyncPsTrainer::Run for the trainer. Builds
// its inputs from --seed and repeats the workload (--reps times, or for
// about --seconds), timing --setups set-ups before each repetition. It
// prints one JSON object with the raw per-repetition figures and the
// correctness checks. run.py turns those into the benchmark's metrics.
//
// The same source links into the plain binary and into the traced one;
// only the traced binary defines perfbench::TraceReset/TraceDump, which
// are declared weak here so the plain binary runs without them.
//
// Usage: perfbench_plain --workload <name> --seed <n> [--lanes <n>]
//          [--setups <n>] [--reps <n> | --seconds <s>] [--trace-out <file>]

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/commit_log.h"
#include "dlrm/async_trainer.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "sim/sharded_simulator.h"

namespace perfbench {
void TraceReset() __attribute__((weak));
bool TraceDump(const char* path) __attribute__((weak));
}  // namespace perfbench

namespace dlrover {
namespace {

constexpr int kCells = 16;
constexpr Duration kWindow = Minutes(2);
// train_dlrm: the scale of bench_micro_train_throughput's model, with
// enough batches per repetition that thread start-up is noise.
constexpr uint64_t kTrainBatches = 1200;
constexpr uint64_t kTrainBatchSize = 128;
// Held-out AUC a correctly trained model clears after kTrainBatches; an
// untrained one sits at 0.5.
constexpr double kAucFloor = 0.60;

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Seconds the calling thread takes for a fixed loop of multiply-adds and
/// scattered writes into 256 KiB: a few milliseconds on an idle core.
double ProbeSeconds() {
  static std::vector<uint32_t> table(1 << 16);
  const auto start = std::chrono::steady_clock::now();
  uint32_t x = 1;
  for (int i = 0; i < (1 << 20); ++i) {
    x = x * 1103515245u + 12345u;
    table[(x >> 8) & 0xffff] += x;
  }
  return Seconds(start);
}

/// On a shared machine one CPU can run at half speed for seconds while
/// another tenant loads its core. Before each repetition this times the
/// probe loop on every CPU the process was started with and moves all of
/// the process's threads onto the `n` fastest, so a repetition measures the
/// program and not its busiest neighbour. Pinning also keeps the thread
/// pool's helpers on the lanes' CPUs, where waking one costs no
/// cross-CPU interrupt.
void PinToFastestCpus(int n) {
  static const std::vector<int> allowed = AllowedCpus();
  if (allowed.size() <= 1) return;
  std::vector<std::pair<double, int>> speed;
  for (int c : allowed) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    double best = ProbeSeconds();
    for (int i = 0; i < 2; ++i) best = std::min(best, ProbeSeconds());
    speed.emplace_back(best, c);
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (size_t i = 0; i < speed.size() && i < static_cast<size_t>(n); ++i) {
    CPU_SET(speed[i].second, &chosen);
  }
  if (CPU_COUNT(&chosen) == 0) return;
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* e = readdir(tasks)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(chosen), &chosen);
  }
  closedir(tasks);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// FNV-1a over the exact bit patterns of an outcome, so two fingerprints
/// match only when every hashed field is bit-identical.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string FleetFingerprint(const ShardedFleetResult& r) {
  const FleetResult& f = r.fleet;
  Fingerprint h;
  h.Add(static_cast<uint64_t>(f.jobs.size()));
  for (const FleetJobOutcome& j : f.jobs) {
    h.Add(j.name);
    h.Add(static_cast<uint64_t>(j.completed));
    h.Add(j.fail_reason);
    h.Add(j.jct);
    h.Add(j.pending_time);
    h.Add(j.batches_done);
    h.Add(j.avg_worker_cpu_util);
    h.Add(j.avg_ps_cpu_util);
    h.Add(j.avg_worker_mem_util);
    h.Add(j.avg_ps_mem_util);
    h.Add(static_cast<uint64_t>(j.stats.worker_failures));
    h.Add(static_cast<uint64_t>(j.stats.oom_events));
    h.Add(static_cast<uint64_t>(j.stats.migrations));
    h.Add(static_cast<uint64_t>(j.stats.scale_operations));
    h.Add(static_cast<uint64_t>(j.stats.drain_migrations));
  }
  for (uint64_t v :
       {f.pods_preempted, f.crashes_injected, f.stragglers_injected,
        f.node_faults_injected, f.nodes_cordoned, f.nodes_uncordoned,
        f.control_faults_injected, f.plans_fenced, f.stale_plan_applies,
        f.shard_reports_rejected, f.shard_reports_expired, f.executed_events,
        r.windows, r.cross_shard_sends, r.ledger_entries, r.storm_strikes}) {
    h.Add(v);
  }
  h.Add(r.fleet_peak_allocated_cpu);
  for (const FaultRecord& e : f.fault_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.kind));
    h.Add(e.target);
    h.Add(e.node);
    h.Add(e.duration);
    h.Add(e.symptoms);
  }
  for (const NodeHealthEvent& e : f.health_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.node));
    h.Add(static_cast<uint64_t>(e.from));
    h.Add(static_cast<uint64_t>(e.to));
    h.Add(e.score);
  }
  for (const ControlEvent& e : f.control_log) {
    h.Add(e.time);
    h.Add(static_cast<uint64_t>(e.kind));
    h.Add(e.a);
    h.Add(e.b);
  }
  const ControlChannelStats& c = f.control_stats;
  for (uint64_t v :
       {c.messages_sent, c.messages_delivered, c.messages_dropped,
        c.messages_partition_dropped, c.messages_duplicated,
        c.messages_reordered, c.retries, c.sends_expired, c.acks_lost,
        c.epoch_fenced, c.plans_fenced_stale, c.stale_plan_applies,
        c.node_partitions, c.cell_partitions, c.master_crashes,
        c.master_restarts}) {
    h.Add(v);
  }
  return h.Hex();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int lanes = 2;
  int setups = 3;
  int reps = 0;  // 0: repeat until `seconds` have passed
  double seconds = 10.0;
  std::string trace_out;
};

bool IsFleet(const std::string& w) {
  return w == "fleet_manual" || w == "fleet_managed" || w == "fleet_chaos";
}

/// The fleet workloads. fleet_manual and fleet_managed are the Fig 3 fleet
/// of bench_fleet_scale (48 jobs / 60 nodes per 1x) at 100x all-manual and
/// at 20x all-DLRover; fleet_chaos is the managed fleet at 10x under
/// bench_resilience's protected grey-fault and partition campaigns at once.
FleetScenario FleetScenarioFor(const std::string& w, uint64_t seed) {
  FleetScenario s;
  s.seed = seed;
  s.workload.arrival_span = Hours(8);
  if (w == "fleet_manual" || w == "fleet_managed") {
    const int scale = w == "fleet_manual" ? 100 : 20;
    s.dlrover_fraction = w == "fleet_manual" ? 0.0 : 1.0;
    s.workload.num_jobs = 48 * scale;
    s.cluster.num_nodes = 60 * scale;
    s.horizon = Hours(30);
    return s;
  }
  const int scale = 10;
  s.dlrover_fraction = 1.0;
  s.workload.num_jobs = 48 * scale;
  s.cluster.num_nodes = 60 * scale;
  s.horizon = Hours(14);
  s.enable_background = false;
  s.failures.daily_straggler_rate = 0.01;
  s.failures.daily_node_flaky_rate = 1.0;
  s.failures.daily_node_degraded_rate = 1.0;
  s.failures.daily_node_leak_rate = 0.9;
  s.failures.daily_node_crashloop_rate = 0.75;
  s.cluster.enable_node_health = true;
  s.control.enabled = true;
  s.control.drop_prob = 0.02;
  s.control.duplicate_prob = 0.05;
  s.control.reorder_prob = 0.05;
  s.failures.daily_node_partition_rate = 1.5;
  s.failures.daily_cell_partition_rate = 2.0;
  s.failures.daily_master_crash_rate = 0.3;
  return s;
}

/// The set-up RunFleetSharded performs before its first window: generate
/// the trace, deal it to the cells, build the engine and one
/// FleetSimulation per cell. Timed on its own because the harness offers no
/// hook between set-up and the first window.
double TimeFleetSetup(const FleetScenario& scenario, int lanes) {
  const auto start = std::chrono::steady_clock::now();
  WorkloadOptions workload = scenario.workload;
  workload.seed = scenario.seed * 1009 + 4;
  const std::vector<GeneratedJob> trace = WorkloadGenerator(workload).Generate();
  std::vector<std::vector<GeneratedJob>> slices(kCells);
  for (size_t i = 0; i < trace.size(); ++i) slices[i % kCells].push_back(trace[i]);
  std::vector<ClusterCommitLog> logs(kCells);
  ShardedSimOptions engine_options;
  engine_options.num_shards = kCells;
  engine_options.window = kWindow;
  engine_options.parallelism = static_cast<size_t>(lanes);
  engine_options.pool = lanes > 1 ? &SharedThreadPool() : nullptr;
  ShardedSimulator engine(engine_options);
  std::vector<std::unique_ptr<FleetSimulation>> fleets;
  for (int c = 0; c < kCells; ++c) {
    FleetScenario cell = scenario;
    cell.seed = scenario.seed + 7919ull * static_cast<uint64_t>(c);
    cell.cluster.num_nodes =
        scenario.cluster.num_nodes / kCells +
        (c < scenario.cluster.num_nodes % kCells ? 1 : 0);
    fleets.push_back(std::make_unique<FleetSimulation>(
        &engine.shard(c), cell, std::move(slices[static_cast<size_t>(c)])));
    fleets.back()->cluster().set_commit_log(&logs[static_cast<size_t>(c)]);
  }
  const double seconds = Seconds(start);
  fleets.clear();  // before `engine`: teardown cancels events on its shards
  return seconds;
}

struct Report {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<std::string> fingerprints;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string why_incorrect;
  // Quality and volume figures of the last repetition.
  double work = 0.0;  // simulated events (fleet) or trained samples
  double worker_cpu_util = 0.0;
  double jct_mean_h = 0.0;
  double final_auc = 0.0;
  double completion_rate = 0.0;
  uint64_t windows = 0;
  uint64_t control_sent = 0;
  uint64_t control_delivered = 0;
  uint64_t control_retries = 0;
  uint64_t cordons = 0;
  uint64_t stale_plan_applies = 0;
  uint64_t exactly_once_violations = 0;
  // Jobs that ended without completing, by the reason the harness gives
  // (text before any ':'), e.g. "horizon" or "restart budget exhausted".
  std::map<std::string, uint64_t> unfinished;
  double commit_wait_s = 0.0;
  double lock_wait_s = 0.0;

  void Fail(const std::string& why) {
    if (correct) why_incorrect = why;
    correct = false;
  }
};

/// Whether to start another repetition. With --seconds, the run ends at the
/// repetition boundary nearest to the time limit, so a run takes about
/// --seconds however long one repetition is.
bool KeepGoing(const Args& args, const std::vector<double>& run_s,
               std::chrono::steady_clock::time_point start) {
  if (args.reps > 0) return static_cast<int>(run_s.size()) < args.reps;
  return run_s.empty() || Seconds(start) + run_s.back() / 2 < args.seconds;
}

void RunFleet(const Args& args, Report* out) {
  const FleetScenario scenario = FleetScenarioFor(args.workload, args.seed);
  if (perfbench::TraceReset) perfbench::TraceReset();
  ShardedFleetOptions options;
  options.cells = kCells;
  options.shards = args.lanes;
  options.window = kWindow;
  const auto start = std::chrono::steady_clock::now();
  while (KeepGoing(args, out->run_s, start)) {
    PinToFastestCpus(args.lanes);
    for (int i = 0; i < args.setups; ++i) {
      out->setup_s.push_back(TimeFleetSetup(scenario, args.lanes));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const ShardedFleetResult r = RunFleetSharded(scenario, options);
    out->run_s.push_back(Seconds(t0));
    out->fingerprints.push_back(FleetFingerprint(r));

    const FleetResult& f = r.fleet;
    double jct_sum = 0.0, util_sum = 0.0;
    int completed = 0;
    uint64_t overshoot = 0;
    uint64_t invalid = 0;  // completed without its full step budget
    out->unfinished.clear();
    for (const FleetJobOutcome& j : f.jobs) {
      util_sum += j.avg_worker_cpu_util;
      if (j.completed) {
        ++completed;
        jct_sum += j.jct;
        if (j.batches_done != j.total_steps) ++invalid;
      } else {
        ++out->unfinished[j.fail_reason.substr(0, j.fail_reason.find(':'))];
      }
      if (j.batches_done > j.total_steps) ++overshoot;
    }
    // An operation is one submitted job: the simulation must return a valid
    // outcome for it. Whether the simulated job completed, was given up on
    // by its control plane, or was still running at the horizon is that
    // outcome (completion_rate, unfinished), not a benchmark failure.
    const size_t jobs = f.jobs.size();
    out->attempted += static_cast<uint64_t>(scenario.workload.num_jobs);
    out->failed += static_cast<uint64_t>(scenario.workload.num_jobs) -
                   std::min<uint64_t>(jobs, scenario.workload.num_jobs) +
                   invalid;
    out->work = static_cast<double>(f.executed_events);
    out->worker_cpu_util = jobs > 0 ? util_sum / static_cast<double>(jobs) : 0.0;
    out->jct_mean_h = completed > 0 ? jct_sum / completed / 3600.0 : 0.0;
    out->completion_rate =
        jobs > 0 ? static_cast<double>(completed) / static_cast<double>(jobs) : 0.0;
    out->windows = r.windows;
    out->control_sent = f.control_stats.messages_sent;
    out->control_delivered = f.control_stats.messages_delivered;
    out->control_retries = f.control_stats.retries;
    out->cordons = f.nodes_cordoned;
    out->stale_plan_applies =
        f.stale_plan_applies + f.control_stats.stale_plan_applies;
    out->exactly_once_violations = overshoot;
    if (jobs != static_cast<size_t>(scenario.workload.num_jobs)) {
      out->Fail("fleet returned a different number of jobs than submitted");
    }
    if (completed == 0) out->Fail("no job completed");
    if (out->stale_plan_applies != 0) out->Fail("stale plan applied");
    if (overshoot != 0) out->Fail("a job committed more batches than its budget");
    if (out->fingerprints.back() != out->fingerprints.front()) {
      out->Fail("outcome fingerprint differs between repetitions");
    }
  }
}

AsyncTrainerOptions TrainerOptions(const Args& args) {
  AsyncTrainerOptions o;
  o.num_workers = 8;
  o.batch_size = kTrainBatchSize;
  o.total_batches = kTrainBatches;
  o.learning_rate = 0.1;
  o.shard_batches = 16;
  o.exec_mode = ExecMode::kThreads;
  o.num_threads = args.lanes;
  o.eval_every_batches = 1 << 30;  // one evaluation, after the last batch
  o.eval_size = 4096;
  o.seed = args.seed;
  return o;
}

MiniDlrmConfig TrainerModel(uint64_t seed) {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {64, 32};
  config.seed = seed * 7 + 5;
  return config;
}

/// Model, data and trainer for one repetition (training mutates the model,
/// so each repetition starts from a fresh one).
struct TrainerSetup {
  std::unique_ptr<CriteoSynth> data;
  std::unique_ptr<MiniDlrm> model;
  std::unique_ptr<AsyncPsTrainer> trainer;
};

TrainerSetup BuildTrainer(const Args& args, std::vector<double>* setup_s) {
  const auto start = std::chrono::steady_clock::now();
  TrainerSetup s;
  s.data = std::make_unique<CriteoSynth>(args.seed * 31 + 1);
  s.model = std::make_unique<MiniDlrm>(TrainerModel(args.seed));
  s.trainer = std::make_unique<AsyncPsTrainer>(s.model.get(), s.data.get(),
                                               TrainerOptions(args));
  setup_s->push_back(Seconds(start));
  return s;
}

void RunTrainer(const Args& args, Report* out) {
  if (perfbench::TraceReset) perfbench::TraceReset();
  const auto start = std::chrono::steady_clock::now();
  while (KeepGoing(args, out->run_s, start)) {
    PinToFastestCpus(args.lanes);
    for (int i = 0; i < args.setups; ++i) BuildTrainer(args, &out->setup_s);
    TrainerSetup s = BuildTrainer(args, &out->setup_s);
    const auto t0 = std::chrono::steady_clock::now();
    const TrainResult r = s.trainer->Run();
    out->run_s.push_back(Seconds(t0));

    uint64_t once = 0;
    for (uint8_t n : r.times_trained) once += n == 1 ? 1 : 0;
    out->attempted += kTrainBatches;
    out->failed += kTrainBatches - std::min<uint64_t>(once, kTrainBatches);
    out->work = static_cast<double>(r.batches_committed * kTrainBatchSize);
    const PhaseBreakdown& p = r.phases;
    const double worker_s = p.BusySeconds() + p.queue_wait_s;
    out->worker_cpu_util =
        worker_s > 0.0 ? (p.pull_s + p.compute_s + p.push_s) / worker_s : 0.0;
    out->final_auc = r.final_auc;
    out->completion_rate = static_cast<double>(once) / kTrainBatches;
    out->commit_wait_s = p.commit_wait_s;
    out->lock_wait_s = p.lock_wait_s;
    if (r.times_trained.size() != kTrainBatches || once != kTrainBatches ||
        r.batches_committed != kTrainBatches) {
      out->Fail("a batch was not trained exactly once");
    }
    if (!(r.final_auc >= kAucFloor)) out->Fail("final AUC below floor");
  }
}

void PrintList(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", v[i]);
  }
  std::printf("], ");
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--lanes") args.lanes = std::atoi(value);
    else if (flag == "--setups") args.setups = std::atoi(value);
    else if (flag == "--reps") args.reps = std::atoi(value);
    else if (flag == "--seconds") args.seconds = std::atof(value);
    else if (flag == "--trace-out") args.trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.lanes < 1) {
    std::fprintf(stderr, "--lanes must be at least 1\n");
    return 2;
  }
  Report report;
  if (IsFleet(args.workload)) {
    RunFleet(args, &report);
  } else if (args.workload == "train_dlrm") {
    RunTrainer(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.trace_out.empty()) {
    if (perfbench::TraceDump == nullptr) {
      std::fprintf(stderr, "--trace-out needs the traced binary\n");
      return 2;
    }
    if (!perfbench::TraceDump(args.trace_out.c_str())) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"lanes\": %d, ",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.lanes);
  PrintList("setup_s", report.setup_s);
  PrintList("run_s", report.run_s);
  std::printf("\"unfinished\": {");
  for (auto it = report.unfinished.begin(); it != report.unfinished.end(); ++it) {
    std::printf("%s\"%s\": %llu", it == report.unfinished.begin() ? "" : ", ",
                it->first.c_str(), static_cast<unsigned long long>(it->second));
  }
  std::printf("}, \"fingerprints\": [");
  for (size_t i = 0; i < report.fingerprints.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", report.fingerprints[i].c_str());
  }
  std::printf(
      "], \"attempted\": %llu, \"failed\": %llu, \"correct\": %s, "
      "\"why_incorrect\": \"%s\", \"work\": %.17g, \"worker_cpu_util\": %.17g, "
      "\"jct_mean_h\": %.17g, \"final_auc\": %.17g, \"completion_rate\": %.17g, "
      "\"windows\": %llu, \"control_sent\": %llu, \"control_delivered\": %llu, "
      "\"control_retries\": %llu, \"cordons\": %llu, "
      "\"stale_plan_applies\": %llu, \"exactly_once_violations\": %llu, "
      "\"commit_wait_s\": %.9g, \"lock_wait_s\": %.9g, "
      "\"peak_rss_mb\": %.6f, \"hardware_threads\": %u}\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      report.correct ? "true" : "false", report.why_incorrect.c_str(),
      report.work, report.worker_cpu_util, report.jct_mean_h, report.final_auc,
      report.completion_rate, static_cast<unsigned long long>(report.windows),
      static_cast<unsigned long long>(report.control_sent),
      static_cast<unsigned long long>(report.control_delivered),
      static_cast<unsigned long long>(report.control_retries),
      static_cast<unsigned long long>(report.cordons),
      static_cast<unsigned long long>(report.stale_plan_applies),
      static_cast<unsigned long long>(report.exactly_once_violations),
      report.commit_wait_s, report.lock_wait_s,
      PeakRssMb(), std::thread::hardware_concurrency());
  return 0;
}

}  // namespace
}  // namespace dlrover

int main(int argc, char** argv) { return dlrover::Main(argc, argv); }
