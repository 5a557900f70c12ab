// Allocation regression guard for the event hot path. The build compiles the
// counting operator-new replacement (src/common/alloc_hooks.cc) into this
// binary, warms up a single training job until every pooled structure (event
// slab, shard queue, iteration cache, usage scratch) has reached steady
// state, and then asserts that simulating thousands more events performs
// ZERO heap allocations. Any new per-event allocation in Simulator, Cluster,
// ShardQueue, TrainingJob, ControlChannel or HeartbeatMonitor turns this
// red.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "brain/nsga2.h"
#include "cluster/cluster.h"
#include "cluster/control_channel.h"
#include "cluster/placement_index.h"
#include "common/alloc_counter.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/emb_store.h"
#include "dlrm/mini_dlrm.h"
#include "elastic/shard_queue.h"
#include "ps/training_job.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

TEST(AllocGuardTest, HooksAreLinkedAndCounting) {
  ASSERT_TRUE(AllocationCountingEnabled());
  const uint64_t before = AllocationCount();
  // Call the replaced operator directly: unlike a new-expression, a direct
  // call is not eligible for allocation elision.
  void* p = ::operator new(64);
  const uint64_t after = AllocationCount();
  ::operator delete(p);
  EXPECT_GT(after, before);
}

TEST(AllocGuardTest, WarmSingleJobRunIsAllocationFree) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  cluster_options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, cluster_options);

  JobSpec spec;
  spec.name = "alloc-guard";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = 2000000;  // Long enough that the queue never drains.
  // Pre-size the per-window history so steady state never grows it.
  spec.history_reserve = 1 << 14;

  JobConfig config;
  config.num_workers = 8;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);

  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();

  // Warm-up: startup, first profile windows, shard-queue capacity growth,
  // iteration-cache population all happen here.
  sim.RunUntil(Minutes(30));
  ASSERT_EQ(job.state(), JobState::kRunning);

  constexpr int kEvents = 5000;
  const uint64_t allocs_before = AllocationCount();
  int stepped = 0;
  for (; stepped < kEvents; ++stepped) {
    if (!sim.Step()) break;
  }
  const uint64_t allocs_after = AllocationCount();

  ASSERT_EQ(stepped, kEvents) << "event queue drained during measurement";
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "hot path allocated " << (allocs_after - allocs_before)
      << " times across " << kEvents << " events";
}

// The same job with a lossless control channel attached: every shard
// report becomes a reliable send (completion, delivery, heartbeat, ack).
// The only allowed allocations are the channel's audit log growing its
// capacity, an unbounded trace by design.
TEST(AllocGuardTest, WarmControlChannelShardCycleIsAllocationFree) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  cluster_options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, cluster_options);
  ControlChannelOptions channel_options;
  channel_options.enabled = true;
  ControlChannel channel(&sim, channel_options);
  cluster.set_control_channel(&channel);

  JobSpec spec;
  spec.name = "alloc-guard-channel";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = 2000000;
  spec.history_reserve = 1 << 14;

  JobConfig config;
  config.num_workers = 8;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);

  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Minutes(30));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const uint64_t sent_before = channel.stats().messages_sent;

  constexpr int kEvents = 5000;
  uint64_t log_growths = 0;
  const uint64_t allocs_before = AllocationCount();
  int stepped = 0;
  for (; stepped < kEvents; ++stepped) {
    const size_t capacity = channel.log().capacity();
    if (!sim.Step()) break;
    if (channel.log().capacity() != capacity) ++log_growths;
  }
  const uint64_t allocs_after = AllocationCount();

  ASSERT_EQ(stepped, kEvents) << "event queue drained during measurement";
  ASSERT_GT(channel.stats().messages_sent, sent_before)
      << "no shard report crossed the channel";
  EXPECT_EQ(allocs_after - allocs_before, log_growths)
      << "shard-report cycle allocated "
      << (allocs_after - allocs_before - log_growths)
      << " times beyond the audit log across " << kEvents << " events";
}

TEST(AllocGuardTest, WarmTrainingHotLoopIsAllocationFree) {
  // The kThreads per-batch cycle — FillBatch, PullBatch, ComputeBatch,
  // PushBatch against a reusable DlrmBatchWork — must allocate nothing once
  // warmed: batch buffers, the pulled dense copy, key/slot tables, gathered
  // rows and gradient accumulators are all reused, and the store indexes
  // its preallocated slab directly (EmbStoreFirstTouchIsAllocationFree
  // covers keys it has never seen). Loop a fixed batch range so every
  // buffer's maximum size is seen during warm-up.
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 512;
  config.mlp_hidden = {16, 8};
  config.seed = 3;
  MiniDlrm model(config);
  CriteoSynth data(7);
  DlrmBatchWork work;
  constexpr uint64_t kBatches = 12;
  constexpr uint64_t kBatchSize = 32;
  auto one_pass = [&]() {
    for (uint64_t b = 0; b < kBatches; ++b) {
      data.FillBatch(b * kBatchSize, kBatchSize, &work.batch);
      model.PullBatch(&work);
      model.ComputeBatch(&work);
      model.PushBatch(&work, 0.05);
    }
  };
  one_pass();  // grow every buffer to its max
  one_pass();  // second pass: vector capacities settle

  const uint64_t before = AllocationCount();
  one_pass();
  one_pass();
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "training hot loop allocated " << (after - before) << " times across "
      << 2 * kBatches << " steady-state batches";
}

TEST(AllocGuardTest, EmbStoreFirstTouchIsAllocationFree) {
  // Once a BatchScratch is warm, gathering and pushing keys the store has
  // never seen allocates nothing: a new row and wide weight are written in
  // place into the store's slab, not inserted as heap nodes.
  EmbStoreOptions options;
  options.hash_buckets = 4096;
  EmbStore store(options);
  constexpr size_t kKeys = 26 * 128;
  const size_t dim = static_cast<size_t>(options.emb_dim);
  std::vector<uint64_t> keys(kKeys);
  std::vector<double> rows(kKeys * dim);
  std::vector<double> wide(kKeys);
  const std::vector<double> row_grads(kKeys * dim, 0.5);
  const std::vector<double> wide_grads(kKeys, 0.25);
  EmbStore::BatchScratch scratch;
  auto cycle = [&](uint64_t first_bucket) {
    for (size_t i = 0; i < kKeys; ++i) {
      keys[i] = store.PackKey(static_cast<int>(i % 26), first_bucket + i / 26);
    }
    store.GatherRows(keys.data(), kKeys, rows.data(), wide.data(), &scratch);
    store.ScatterApply(keys.data(), kKeys, row_grads.data(), wide_grads.data(),
                       0.1, &scratch);
  };
  cycle(0);  // grows the scratch arrays to kKeys
  const uint64_t before = AllocationCount();
  cycle(1024);  // buckets 1024..1151 of every feature: never touched before
  const uint64_t after = AllocationCount();
  EXPECT_EQ(store.MaterializedRows(), 2 * kKeys);
  EXPECT_EQ(after - before, 0u)
      << "first touch of " << kKeys << " keys allocated " << (after - before)
      << " times";
}

TEST(AllocGuardTest, WarmShardQueueDispatchCycleIsAllocationFree) {
  // The per-shard piece of the threaded hot loop: dispatch a shard, record
  // each of its batches, report it completed. After a few cycles warm the
  // outstanding-registry capacity, the steady-state dispatch/record/complete
  // cycle must not allocate. (The failure/requeue path is exempt — it only
  // runs on elastic events and crashes, never per healthy shard.)
  ShardQueueOptions options;
  options.total_batches = 16384;
  options.default_shard_batches = 16;
  options.min_shard_batches = 2;
  ShardQueue queue(options);
  auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto shard = queue.NextShard();
      ASSERT_TRUE(shard.ok());
      for (uint64_t b = 0; b < shard->batches(); ++b) {
        ASSERT_TRUE(queue.RecordProgress(shard->index).ok());
      }
      ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
    }
  };
  cycle(32);
  const uint64_t before = AllocationCount();
  cycle(512);
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "shard dispatch/record/complete cycle allocated "
      << (after - before) << " times";
}

TEST(AllocGuardTest, WarmPlacementIndexOpsAreAllocationFree) {
  // The scheduling index itself: every slab lives in vectors sized at
  // construction (capacity treap) or grown to a high-water mark (running-pod
  // treaps), so a steady-state place/preempt-precheck/kill cycle — BestFit,
  // key updates, pod aggregates, running-pod insert/remove/visit — performs
  // zero heap allocations.
  constexpr size_t kNodes = 128;
  PlacementIndex index(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    index.InsertNode(static_cast<NodeId>(i),
                     {32.0 - static_cast<double>(i % 7) * 0.5, GiB(192)});
  }
  RunningPodIndex running;
  std::vector<Pod> pods(256);
  for (size_t i = 0; i < pods.size(); ++i) {
    pods[i].creation_seq = i;
    running.Insert(PriorityClass::kTraining, i, &pods[i]);
  }
  // High-water the free list, then refill so steady state recycles entries.
  for (size_t i = 0; i < pods.size(); ++i) {
    running.Remove(PriorityClass::kTraining, i);
  }
  for (size_t i = 0; i < pods.size(); ++i) {
    running.Insert(PriorityClass::kTraining, i, &pods[i]);
  }

  const ResourceSpec request{4.0, GiB(8)};
  uint64_t visited = 0;
  const uint64_t before = AllocationCount();
  for (int cycle = 0; cycle < 2000; ++cycle) {
    const NodeId nid = static_cast<NodeId>(cycle % kNodes);
    const int best = index.BestFit(request);
    ASSERT_GE(best, 0);
    index.AddPod(nid, PriorityClass::kTraining, request);
    index.UpdateNode(nid, {24.0, GiB(160)});
    for (size_t n = 0; n < kNodes; ++n) {
      if (index.MaybeFreeable(static_cast<NodeId>(n), {1.0, GiB(4)}, request,
                              PriorityClass::kOnline)) {
        break;
      }
    }
    index.RemovePod(nid, PriorityClass::kTraining, request);
    index.UpdateNode(nid, {32.0 - static_cast<double>(nid % 7) * 0.5, GiB(192)});
    index.RemoveNode(nid);
    index.InsertNode(nid, {32.0 - static_cast<double>(nid % 7) * 0.5, GiB(192)});
    const uint64_t seq = static_cast<uint64_t>(cycle % 256);
    running.Remove(PriorityClass::kTraining, seq);
    running.Insert(PriorityClass::kTraining, seq, &pods[seq]);
    running.Visit(PriorityClass::kBestEffort, [&](const Pod&) { ++visited; });
  }
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "placement index cycle allocated " << (after - before) << " times";
  EXPECT_EQ(visited, 0u);  // nothing runs in the best-effort bucket
}

TEST(AllocGuardTest, WarmIndexedClusterChurnIsAllocationFree) {
  // Cluster-level steady state through the index: usage reports, kills, and
  // the resulting key updates / running-index removals / empty-queue pumps
  // must not allocate once slot free-lists and index slabs are at their
  // high-water mark. (RecycledPodSlotCycleAllocatesOnlyLongNames covers
  // CreatePod.)
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 20;
  options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, options);

  auto create_batch = [&](int n, std::vector<PodId>* out) {
    for (int i = 0; i < n; ++i) {
      PodSpec spec;
      spec.name = "churn";
      spec.request = {2.0, GiB(4)};
      spec.priority = PriorityClass::kTraining;
      out->push_back(cluster.CreatePod(std::move(spec), nullptr, nullptr));
    }
  };
  std::vector<PodId> warm;
  warm.reserve(512);
  create_batch(256, &warm);
  sim.RunUntil(Minutes(5));  // all started and running
  // High-water the termination structures (pod slot free list, running-pod
  // free list), then refill so the measured kills recycle warm capacity.
  for (int i = 0; i < 128; ++i) cluster.KillPod(warm[static_cast<size_t>(i)]);
  create_batch(128, &warm);
  sim.RunUntil(Minutes(10));

  const uint64_t before = AllocationCount();
  int killed = 0;
  for (size_t i = 128; i < warm.size() && killed < 128; ++i, ++killed) {
    cluster.ReportUsage(warm[i], {1.5, GiB(3)});
    cluster.KillPod(warm[i]);
  }
  const uint64_t after = AllocationCount();
  ASSERT_EQ(killed, 128);
  EXPECT_EQ(after - before, 0u)
      << "indexed cluster churn allocated " << (after - before)
      << " times across " << killed << " usage-report/kill cycles";
}

TEST(AllocGuardTest, RecycledPodSlotCycleAllocatesOnlyLongNames) {
  // CreatePod re-arms a recycled slab slot's Pod in place, so on a warm
  // cluster a create -> run -> kill cycle allocates no Pod and no slot. The
  // one allocation a cycle may make is a pod name longer than the string's
  // 15-character inline buffer, which the caller builds.
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 4;
  Cluster cluster(&sim, options);
  int running = 0;
  int stopped = 0;
  auto cycle = [&](const char* name) {
    PodSpec spec;
    spec.name = name;
    spec.request = {2.0, GiB(4)};
    const PodId id = cluster.CreatePod(
        std::move(spec), [&running](Pod&) { ++running; },
        [&stopped](Pod&, PodStopReason) { ++stopped; });
    sim.RunUntil(sim.Now() + Minutes(2));  // past the longest startup
    cluster.KillPod(id);
  };
  for (int i = 0; i < 8; ++i) cycle("warm-up");

  constexpr int kCycles = 64;
  uint64_t before = AllocationCount();
  for (int i = 0; i < kCycles; ++i) cycle("worker-7");
  const uint64_t short_names = AllocationCount() - before;
  before = AllocationCount();
  for (int i = 0; i < kCycles; ++i) cycle("trace-job-1234-worker-7");
  const uint64_t long_names = AllocationCount() - before;

  EXPECT_EQ(running, 8 + 2 * kCycles);
  EXPECT_EQ(stopped, 8 + 2 * kCycles);
  EXPECT_EQ(cluster.counters().pods_created, 8u + 2 * kCycles);
  EXPECT_EQ(short_names, 0u)
      << "short-named create/run/kill cycles allocated " << short_names
      << " times in " << kCycles << " cycles";
  EXPECT_EQ(long_names, static_cast<uint64_t>(kCycles))
      << "long-named cycles must allocate their name and nothing else";
}

TEST(AllocGuardTest, WarmShardedWindowDispatchIsAllocationFree) {
  // Sequential-lane sharded engine: advancing warm windows — per-shard
  // periodic work that reschedules on its own shard, plus the barrier hook
  // at every window end — must not allocate. The pool dispatch path is
  // exempt by design (ParallelFor allocates its task closures); since lane
  // count never changes results, the sequential path exercises the
  // identical event work.
  ShardedSimOptions options;
  options.num_shards = 3;
  options.window = 10.0;
  ShardedSimulator engine(options);
  int follow_ups = 0;
  int barriers = 0;
  engine.set_barrier_hook([&barriers](SimTime) { ++barriers; });
  std::vector<std::unique_ptr<PeriodicTask>> tasks;
  for (int s = 0; s < 3; ++s) {
    Simulator& sim = engine.shard(s);
    tasks.push_back(std::make_unique<PeriodicTask>(
        &sim, 3.0, [&sim, &follow_ups] {
          sim.ScheduleAfter(5.0, [&follow_ups] { ++follow_ups; });
        }));
    tasks.back()->Start();
  }
  engine.RunUntil(200.0);  // warm: event slabs
  ASSERT_GT(follow_ups, 0);
  const uint64_t windows_before = engine.windows_run();

  const uint64_t before = AllocationCount();
  engine.RunUntil(400.0);
  const uint64_t after = AllocationCount();
  EXPECT_GT(engine.windows_run(), windows_before);
  EXPECT_EQ(static_cast<uint64_t>(barriers), engine.windows_run());
  EXPECT_EQ(after - before, 0u)
      << "sharded window dispatch allocated " << (after - before)
      << " times across " << (engine.windows_run() - windows_before)
      << " warm windows";
}

// NSGA-II keeps its population in buffers sized once per search, so a
// search's allocations do not depend on how many generations it runs.
// Run() reserves the emitted front up front; beyond that it allocates one
// decision vector per emitted member.
TEST(AllocGuardTest, Nsga2GenerationsAreAllocationFree) {
  const std::vector<DecisionBounds> bounds = {
      {1, 40, true}, {1, 8, true}, {1, 16, true}, {1, 16, true}};
  const auto objective = [](const std::vector<double>& x) {
    return Nsga2::Objectives{x[0] * x[2] + x[1] * x[3],
                             1.0 / (x[0] + x[1] * x[3] / (x[1] + x[3]))};
  };
  const auto allocations_beyond_front = [&](int generations) {
    Nsga2Options options;
    options.population = 32;
    options.generations = generations;
    Nsga2 nsga2(bounds, objective, options);
    const uint64_t before = AllocationCount();
    const std::vector<Nsga2Individual> front = nsga2.Run();
    const uint64_t after = AllocationCount();
    return after - before - front.size();
  };
  const uint64_t setup = allocations_beyond_front(0);
  EXPECT_EQ(allocations_beyond_front(1), setup);
  EXPECT_EQ(allocations_beyond_front(40), setup);
}

}  // namespace
}  // namespace dlrover
