// ThreadSanitizer smoke scenarios, compiled with -fsanitize=thread
// regardless of the global build flags (see tests/CMakeLists.txt): every
// source they exercise is compiled, instrumented, into dlrover_tsan, so
// tier-1 `ctest` runs the concurrency-critical paths under ThreadSanitizer
// even on plain builds. One binary, one scenario per run:
//
//   tsan_smoke <concurrency|sweep|sharded_sim|node_health|control_plane|chaos>
//
// ctest registers each scenario as its own `<scenario>_tsan_smoke` test. No
// gtest here: TSan makes the process exit nonzero when it reports a race,
// logic failures exit 1, and an unknown scenario exits 2.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dlrm/async_trainer.h"
#include "dlrm/emb_store.h"
#include "elastic/chaos.h"
#include "elastic/shard_queue.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "harness/sweep.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_simulator.h"

namespace dlrover {
namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                         \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

// --- concurrency: ThreadPool, ShardQueue and EmbStore under load ---------

void ThreadPoolSmoke() {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter]() { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  CHECK_TRUE(counter.load() == 200);

  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1, 1001, 13, [&sum](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  CHECK_TRUE(sum.load() == 500500);
}

// Workers record every batch, then complete or fail their shards (failure
// reports name the recorded prefix or leave it to the queue), while a
// checkpointer takes snapshots of the same queue and checks that each one
// accounts for every batch exactly once.
void ShardQueueSmoke() {
  constexpr uint64_t kTotal = 4000;
  ShardQueueOptions options;
  options.total_batches = kTotal;
  options.default_shard_batches = 32;
  options.min_shard_batches = 8;
  ShardQueue queue(options);

  std::vector<std::atomic<uint32_t>> done(kTotal);
  std::atomic<bool> workers_done{false};
  std::thread checkpointer([&queue, &workers_done]() {
    while (!workers_done.load()) {
      const ShardQueueSnapshot snap = queue.SnapshotState();
      uint64_t pending = 0;
      for (const DataShard& range : snap.pending) pending += range.batches();
      CHECK_TRUE(snap.completed_batches + pending + (kTotal - snap.cursor) ==
                 kTotal);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&queue, &done, t]() {
      uint64_t n = static_cast<uint64_t>(t) + 1;
      for (;;) {
        // The timeout outlasts the run: only exhaustion ends the loop.
        auto shard = queue.WaitNextShardFor(3600.0);
        if (!shard.ok()) return;
        n = n * 6364136223846793005ull + 1442695040888963407ull;
        const bool fail = (n >> 33) % 5 == 0;  // ~20% failures
        const uint64_t processed =
            fail ? (n >> 17) % (shard->batches() + 1) : shard->batches();
        for (uint64_t b = 0; b < processed; ++b) {
          CHECK_TRUE(queue.RecordProgress(shard->index).ok());
          done[shard->start_batch + b].fetch_add(1);
        }
        const uint64_t reported = (n >> 40) % 2 == 0 ? processed : 0;
        const Status s = fail && processed < shard->batches()
                             ? queue.ReportFailed(*shard, reported)
                             : queue.ReportCompleted(*shard);
        CHECK_TRUE(s.ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  workers_done.store(true);
  checkpointer.join();
  CHECK_TRUE(queue.AllDone());
  CHECK_TRUE(queue.CheckInvariants().ok());
  for (uint64_t b = 0; b < kTotal; ++b) CHECK_TRUE(done[b].load() == 1);
}

EmbStoreOptions SmokeStoreOptions() {
  EmbStoreOptions options;
  options.num_features = 26;
  options.emb_dim = 8;
  options.hash_buckets = 1024;
  options.seed = 7;
  options.stripes = 8;
  return options;
}

// Batched gather/scatter under contention: many threads pull and push
// overlapping key sets through GatherRows/ScatterApply while others hammer
// the same stripes one key at a time. This is the sharded gradient
// application of the threaded trainer, distilled.
void EmbStoreSmoke() {
  EmbStore store(SmokeStoreOptions());
  const size_t dim = 8;

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&store, t]() {
      EmbStore::BatchScratch scratch;
      std::vector<uint64_t> keys;
      std::vector<double> rows;
      std::vector<double> wide;
      std::vector<double> grads;
      std::vector<double> wgrads;
      for (int i = 0; i < 200; ++i) {
        keys.clear();
        for (int f = 0; f < 26; ++f) {
          keys.push_back(store.PackKey(f, static_cast<uint64_t>(
                                              (t * 7 + i + f) % 48)));
        }
        rows.assign(keys.size() * dim, 0.0);
        wide.assign(keys.size(), 0.0);
        store.GatherRows(keys.data(), keys.size(), rows.data(), wide.data(),
                         &scratch);
        grads.assign(keys.size() * dim, 0.5);
        wgrads.assign(keys.size(), 0.25);
        store.ScatterApply(keys.data(), keys.size(), grads.data(),
                           wgrads.data(), 0.01, &scratch);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&store, t]() {
      EmbStore::BatchScratch scratch;
      std::vector<double> row(dim);
      double wide = 0.0;
      const std::vector<double> grad(dim, 1.0);
      const double wide_grad = 1.0;
      for (int i = 0; i < 400; ++i) {
        const uint64_t key = store.PackKey(
            (t + i) % 26, static_cast<uint64_t>(i % 48));
        store.GatherRows(&key, 1, row.data(), &wide, &scratch);
        store.ScatterApply(&key, 1, grad.data(), &wide_grad, 0.01, &scratch);
        store.MaterializedRows();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_TRUE(store.MaterializedRows() >= 48);
}

void ConcurrencySmoke() {
  ThreadPoolSmoke();
  ShardQueueSmoke();
  EmbStoreSmoke();
}

// --- sweep: the concurrent sweep path (shared ConfigDb cache,
// WellTunedConfig statics, concurrent NSGA-II searches) ---------------------

void SingleJobSweepSmoke() {
  std::vector<SingleJobScenario> scenarios;
  for (SchedulerKind scheduler :
       {SchedulerKind::kDlrover, SchedulerKind::kEs,
        SchedulerKind::kManualTuned, SchedulerKind::kOptimus}) {
    for (uint64_t seed : {3ull, 7ull}) {
      SingleJobScenario scenario;
      scenario.scheduler = scheduler;
      scenario.model = ModelKind::kWideDeep;
      scenario.total_steps = 40000;
      scenario.seed = seed;
      scenarios.push_back(scenario);
    }
  }

  SweepOptions options;
  options.num_threads = 4;
  const std::vector<SingleJobResult> parallel =
      RunSingleJobSweep(scenarios, options);
  CHECK_TRUE(parallel.size() == scenarios.size());

  options.num_threads = 1;
  const std::vector<SingleJobResult> serial =
      RunSingleJobSweep(scenarios, options);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    CHECK_TRUE(parallel[i].final_state == serial[i].final_state);
    CHECK_TRUE(parallel[i].jct == serial[i].jct);
    CHECK_TRUE(parallel[i].executed_events == serial[i].executed_events);
    CHECK_TRUE(parallel[i].final_config == serial[i].final_config);
    CHECK_TRUE(parallel[i].executed_events > 0);
  }
}

void FleetSweepSmoke() {
  std::vector<FleetScenario> scenarios;
  for (uint64_t seed : {5ull, 11ull}) {
    FleetScenario scenario;
    scenario.workload.num_jobs = 6;
    scenario.workload.arrival_span = Hours(2);
    scenario.horizon = Hours(6);
    scenario.seed = seed;
    scenarios.push_back(scenario);
  }
  SweepOptions options;
  options.num_threads = 2;
  const std::vector<FleetResult> results = RunFleetSweep(scenarios, options);
  CHECK_TRUE(results.size() == 2);
  for (const FleetResult& result : results) {
    CHECK_TRUE(result.jobs.size() == 6);
    CHECK_TRUE(result.executed_events > 0);
  }
}

void SweepSmoke() {
  SingleJobSweepSmoke();
  FleetSweepSmoke();
}

// --- sharded_sim: the window protocol (parallel shard advancement, the
// barrier hook), re-checking that lane count never changes results --------

// Raw engine: four shards each run periodic events that reschedule on their
// own shard and record their own trace for a few hundred windows; every
// trace on 4 lanes must equal the sequential one exactly.
void EngineWindowSmoke() {
  auto run = [](size_t lanes) {
    ThreadPool pool(4);
    ShardedSimOptions options;
    options.num_shards = 4;
    options.window = 5.0;
    options.pool = lanes > 1 ? &pool : nullptr;
    options.parallelism = lanes;
    ShardedSimulator engine(options);
    // Each trace is written only from its own shard's (sequential) event
    // loop while the other shards run on other lanes, which is the
    // concurrency TSan is here to watch.
    std::vector<std::vector<std::pair<SimTime, int>>> traces(4);
    std::vector<std::unique_ptr<PeriodicTask>> tasks;
    for (int s = 0; s < 4; ++s) {
      Simulator& sim = engine.shard(s);
      auto& trace = traces[static_cast<size_t>(s)];
      tasks.push_back(std::make_unique<PeriodicTask>(
          &sim, 2.0 + 0.5 * s, [&sim, &trace, s] {
            sim.ScheduleAfter(3.0, [&sim, &trace, s] {
              trace.emplace_back(sim.Now(), s);
            });
          }));
      tasks.back()->Start();
    }
    uint64_t barriers = 0;
    engine.set_barrier_hook([&barriers](SimTime) { ++barriers; });
    engine.RunUntil(1000.0);
    return std::make_pair(traces, barriers);
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  CHECK_TRUE(!sequential.first[0].empty());
  CHECK_TRUE(sequential.second > 0);
  CHECK_TRUE(sequential.second == parallel.second);
  CHECK_TRUE(sequential.first == parallel.first);
}

// Fleet runner: a three-cell manual fleet advanced on 1, 2, and 4 lanes
// must produce byte-identical outcomes.
void ShardedFleetSmoke() {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 9;
  scenario.workload.arrival_span = Hours(2);
  scenario.cluster.num_nodes = 12;
  scenario.horizon = Hours(6);
  scenario.seed = 11;

  auto run = [&scenario](int lanes) {
    ShardedFleetOptions options;
    options.cells = 3;
    options.shards = lanes;
    options.window = Minutes(2);
    return RunFleetSharded(scenario, options);
  };
  const ShardedFleetResult one = run(1);
  CHECK_TRUE(one.fleet.jobs.size() == 9);
  CHECK_TRUE(one.fleet.executed_events > 0);
  CHECK_TRUE(one.windows > 0);
  for (int lanes : {2, 4}) {
    const ShardedFleetResult wide = run(lanes);
    CHECK_TRUE(wide.fleet.executed_events == one.fleet.executed_events);
    CHECK_TRUE(wide.fleet.pods_preempted == one.fleet.pods_preempted);
    CHECK_TRUE(wide.windows == one.windows);
    CHECK_TRUE(wide.ledger_entries == one.ledger_entries);
    for (size_t i = 0; i < one.fleet.jobs.size(); ++i) {
      CHECK_TRUE(wide.fleet.jobs[i].completed == one.fleet.jobs[i].completed);
      CHECK_TRUE(wide.fleet.jobs[i].jct == one.fleet.jobs[i].jct);
      CHECK_TRUE(wide.fleet.jobs[i].pending_time ==
                 one.fleet.jobs[i].pending_time);
    }
  }
}

void ShardedSimSmoke() {
  EngineWindowSmoke();
  ShardedFleetSmoke();
}

// --- node_health: a grey-fault campaign with self-healing on multi-lane
// sharded fleets (cordon/drain/uncordon, drain migration); the fault audit
// log and the health transition log must not depend on the lane count -----

void NodeHealthSmoke() {
  FleetScenario scenario;
  scenario.seed = 53;
  scenario.workload.num_jobs = 8;
  scenario.workload.arrival_span = Hours(1);
  scenario.workload.seed = 29;
  scenario.cluster.num_nodes = 16;
  scenario.cluster.enable_node_health = true;
  scenario.horizon = Hours(4);
  scenario.enable_background = false;
  scenario.failures.daily_node_flaky_rate = 3.0;
  scenario.failures.daily_node_degraded_rate = 3.0;
  scenario.failures.daily_node_leak_rate = 3.0;
  scenario.failures.daily_node_crashloop_rate = 3.0;

  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  CHECK_TRUE(one_lane.fleet.node_faults_injected > 0);
  CHECK_TRUE(!one_lane.fleet.fault_log.empty());
  CHECK_TRUE(!one_lane.fleet.health_log.empty());

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  CHECK_TRUE(two_lanes.fleet.fault_log == one_lane.fleet.fault_log);
  CHECK_TRUE(two_lanes.fleet.health_log == one_lane.fleet.health_log);
  CHECK_TRUE(two_lanes.fleet.nodes_cordoned == one_lane.fleet.nodes_cordoned);
  CHECK_TRUE(two_lanes.fleet.nodes_uncordoned ==
             one_lane.fleet.nodes_uncordoned);
  CHECK_TRUE(two_lanes.fleet.jobs.size() == one_lane.fleet.jobs.size());
  for (size_t i = 0; i < one_lane.fleet.jobs.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.jobs[i].batches_done ==
               one_lane.fleet.jobs[i].batches_done);
  }
}

// --- control_plane: a partition-chaos campaign (drops, duplicates,
// reorder, node and cell partitions, master failover) on multi-lane sharded
// fleets; the control event log and channel counters must not depend on the
// lane count ----------------------------------------------------------------

void ControlPlaneSmoke() {
  FleetScenario scenario;
  scenario.seed = 53;
  scenario.dlrover_fraction = 1.0;
  scenario.workload.num_jobs = 8;
  scenario.workload.arrival_span = Hours(1);
  scenario.workload.seed = 29;
  scenario.cluster.num_nodes = 16;
  scenario.horizon = Hours(4);
  scenario.enable_background = false;
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 4.0;
  scenario.failures.daily_cell_partition_rate = 4.0;
  scenario.failures.daily_master_crash_rate = 1.0;

  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  CHECK_TRUE(one_lane.fleet.control_stats.messages_delivered > 0);
  CHECK_TRUE(one_lane.fleet.control_faults_injected > 0);
  CHECK_TRUE(!one_lane.fleet.control_log.empty());
  // Protections on: no stale plan ever applies, failover is balanced.
  CHECK_TRUE(one_lane.fleet.control_stats.stale_plan_applies == 0);
  CHECK_TRUE(one_lane.fleet.stale_plan_applies == 0);
  CHECK_TRUE(one_lane.fleet.control_stats.master_crashes ==
             one_lane.fleet.control_stats.master_restarts);
  for (const FleetJobOutcome& job : one_lane.fleet.jobs) {
    CHECK_TRUE(job.batches_done <= job.total_steps);
  }

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  CHECK_TRUE(two_lanes.fleet.control_stats == one_lane.fleet.control_stats);
  CHECK_TRUE(two_lanes.fleet.control_log == one_lane.fleet.control_log);
  CHECK_TRUE(two_lanes.fleet.control_faults_injected ==
             one_lane.fleet.control_faults_injected);
  CHECK_TRUE(two_lanes.fleet.plans_fenced == one_lane.fleet.plans_fenced);
  CHECK_TRUE(two_lanes.fleet.shard_reports_rejected ==
             one_lane.fleet.shard_reports_rejected);
  CHECK_TRUE(two_lanes.fleet.shard_reports_expired ==
             one_lane.fleet.shard_reports_expired);
  CHECK_TRUE(two_lanes.fleet.jobs.size() == one_lane.fleet.jobs.size());
  for (size_t i = 0; i < one_lane.fleet.jobs.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.jobs[i].batches_done ==
               one_lane.fleet.jobs[i].batches_done);
  }
}

// --- chaos: the fault-tolerant threaded trainer (supervisor thread,
// commit gate, checkpoint vault, chaos injector) ----------------------------

void ChaosSmoke() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 4;
  config.hash_buckets = 512;
  config.mlp_hidden = {8};
  config.seed = 5;
  MiniDlrm model(config);
  CriteoSynth data(31);

  ChaosScheduleOptions chaos_options;
  chaos_options.seed = 7;
  chaos_options.total_batches = 240;
  ChaosInjector chaos = ChaosInjector::FromSeed(chaos_options);

  AsyncTrainerOptions options;
  options.num_workers = 4;
  options.batch_size = 32;
  options.total_batches = 240;
  options.shard_batches = 8;
  options.eval_every_batches = 120;
  options.seed = 3;
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.checkpoint_every_batches = 48;
  // TSan slows every batch down ~10x; a lenient timeout keeps the injected
  // stall (not general slowness) the only heartbeat failure.
  options.fault_tolerance.heartbeat_timeout_ms = 1000.0;
  options.fault_tolerance.supervisor_poll_ms = 2.0;
  options.chaos = &chaos;

  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();

  CHECK_TRUE(result.batches_committed == 240);
  CHECK_TRUE(result.batches_duplicated == 0);
  CHECK_TRUE(result.batches_skipped == 0);
  for (uint8_t times : result.times_trained) CHECK_TRUE(times == 1);
  CHECK_TRUE(chaos.remaining() == 0);
  CHECK_TRUE(result.ft.checkpoints_taken > 0);
}

struct Scenario {
  const char* name;
  void (*run)();
};

constexpr Scenario kScenarios[] = {
    {"concurrency", ConcurrencySmoke},  {"sweep", SweepSmoke},
    {"sharded_sim", ShardedSimSmoke},   {"node_health", NodeHealthSmoke},
    {"control_plane", ControlPlaneSmoke}, {"chaos", ChaosSmoke},
};

}  // namespace
}  // namespace dlrover

int main(int argc, char** argv) {
  if (argc == 2) {
    for (const dlrover::Scenario& scenario : dlrover::kScenarios) {
      if (std::strcmp(argv[1], scenario.name) != 0) continue;
      scenario.run();
      std::printf("%s tsan smoke: ok\n", scenario.name);
      return 0;
    }
  }
  std::fprintf(stderr, "usage: %s <scenario>; scenarios:", argv[0]);
  for (const dlrover::Scenario& scenario : dlrover::kScenarios) {
    std::fprintf(stderr, " %s", scenario.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}
