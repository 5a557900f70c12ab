#ifndef DLROVER_DLRM_ASYNC_TRAINER_H_
#define DLROVER_DLRM_ASYNC_TRAINER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "dlrm/criteo_synth.h"
#include "dlrm/mini_dlrm.h"
#include "elastic/shard_queue.h"
#include "ps/training_job.h"

namespace dlrover {

class ChaosInjector;

/// A scripted elasticity/instability event, triggered when the global
/// number of committed batches reaches `at_batches`.
struct ElasticEvent {
  enum class Kind : int {
    kAddWorkers = 0,
    kRemoveWorkers = 1,
    kCrashWorker = 2,
    kMakeStraggler = 3,
  };
  uint64_t at_batches = 0;
  Kind kind = Kind::kAddWorkers;
  int count = 1;
  double speed = 0.05;  // straggler speed factor
};

/// How logical workers execute.
enum class ExecMode : int {
  /// Deterministic single-threaded tick simulation (the default): workers
  /// advance in lockstep fractions, results are bit-reproducible for a
  /// seed. This is what convergence tests and Fig 8/13 goldens pin.
  kTicks = 0,
  /// Real parallelism: each worker runs pull -> compute -> push on a
  /// ThreadPool thread against the lock-striped parameter store, with
  /// genuine asynchronous staleness. Throughput scales with cores;
  /// interleaving (and thus exact floats) is nondeterministic.
  kThreads = 1,
};

/// Fault-tolerance layer for ExecMode::kThreads (opt-in; default off keeps
/// the runtime exactly as before). When enabled, a supervisor thread runs
/// alongside the workers: it feeds worker progress into a HeartbeatMonitor,
/// fences and reclaims the shards of dead or silent workers, takes periodic
/// checksummed checkpoints (model + data cut + audit under one quiescent
/// gate), and restores from the latest valid generation when parameter
/// state is lost — with seeded exponential backoff and a bounded restore
/// budget, degrading to fewer workers when the replacement budget is
/// exhausted. Those budgets are constants in async_trainer.cc.
struct FaultToleranceOptions {
  bool enabled = false;
  /// Committed batches between periodic checkpoints (a generation-0
  /// checkpoint is always taken before training starts).
  uint64_t checkpoint_every_batches = 128;
  /// Worker silence (no commit) before the supervisor declares it failed.
  double heartbeat_timeout_ms = 500.0;
  double supervisor_poll_ms = 2.0;
};

struct AsyncTrainerOptions {
  int num_workers = 8;
  uint64_t batch_size = 128;
  uint64_t total_batches = 2000;
  double learning_rate = 0.1;
  uint64_t shard_batches = 16;
  ExecMode exec_mode = ExecMode::kTicks;
  /// kThreads only: pool size; 0 = one thread per initial worker.
  int num_threads = 0;
  /// kDynamicSharding consumes via a ShardQueue with exactly-once
  /// semantics; kStaticPartition emulates the conventional frameworks the
  /// paper criticizes — elastic events re-partition naively, duplicating
  /// already-trained batches, and crashes skip in-flight data.
  DataMode data_mode = DataMode::kDynamicSharding;
  /// kTicks only: scripted events. kThreads with events falls back to
  /// kTicks, as it does for kStaticPartition.
  std::vector<ElasticEvent> events;
  uint64_t eval_every_batches = 250;
  /// Test set: indices [eval_start, eval_start + eval_size), disjoint from
  /// the training range (the paper holds out 10% of Criteo).
  uint64_t eval_start = 50'000'000;
  uint64_t eval_size = 4096;
  uint64_t seed = 11;
  /// kThreads only: fault-tolerance supervisor (see FaultToleranceOptions).
  FaultToleranceOptions fault_tolerance;
  /// kThreads only: deterministic fault injector, not owned. Faults fire at
  /// their scheduled committed-batch counts; nullptr disables chaos.
  ChaosInjector* chaos = nullptr;
  /// kThreads only: after the fleet exits, train whatever the queue still
  /// holds inline (the legacy guarantee that every run completes). The
  /// fault-tolerance bench disables this on its unprotected arm so lost
  /// batches stay lost, Table-4 style.
  bool drain_remainder = true;
};

struct EvalPoint {
  uint64_t batches = 0;
  double test_logloss = 0.0;
  double test_auc = 0.0;
};

/// What the fault-tolerance supervisor did during a threaded run.
struct FaultToleranceStats {
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_writes_failed = 0;  // bit-flip corruption (chaos)
  uint64_t checkpoint_writes_torn = 0;    // truncated mid-stream (chaos)
  uint64_t restores = 0;
  uint64_t batches_rolled_back = 0;  // committed work redone after restores
  uint64_t workers_fenced = 0;
  uint64_t workers_replaced = 0;
  uint64_t shards_reclaimed = 0;
  uint64_t lost_reports_reaped = 0;
  uint64_t stalls_injected = 0;
  uint64_t degraded_exits = 0;  // workers lost without a replacement
};

/// Wall-clock seconds spent in each phase of the training hot loop,
/// accumulated across workers (a perfectly parallel 4-thread run therefore
/// shows ~4x the per-phase time of its critical path). Cheap enough to stay
/// on unconditionally: two steady_clock reads per phase per batch, ~100ns
/// against multi-millisecond batches.
struct PhaseBreakdown {
  double pull_s = 0.0;         // data gen + dense copy + sparse gather
  double compute_s = 0.0;      // forward/backward
  double push_s = 0.0;         // gradient application (dense + sharded sparse)
  double commit_wait_s = 0.0;  // shared commit gate + queue progress record
  double lock_wait_s = 0.0;    // state_mu acquisition + commit bookkeeping
  double queue_wait_s = 0.0;   // blocked on the shard queue
  uint64_t batches = 0;        // batches these timings cover

  void Merge(const PhaseBreakdown& other);
  /// Total in-batch time (excludes waiting for the shard queue).
  double BusySeconds() const {
    return pull_s + compute_s + push_s + commit_wait_s + lock_wait_s;
  }
};

struct TrainResult {
  std::vector<EvalPoint> curve;
  uint64_t batches_committed = 0;
  uint64_t batches_duplicated = 0;  // trained more than once (static mode)
  uint64_t batches_skipped = 0;     // never trained (static-mode crashes)
  double final_logloss = 0.0;
  double final_auc = 0.0;
  /// Histogram sanity: per-batch training multiplicity (tests assert
  /// all-ones under dynamic sharding).
  std::vector<uint8_t> times_trained;
  /// Supervisor activity (zeros unless fault_tolerance.enabled).
  FaultToleranceStats ft;
  /// Per-phase time accounting (all workers merged; both exec modes).
  PhaseBreakdown phases;
};

/// Trains a MiniDlrm with asynchronous parameter-server semantics:
/// each logical worker pulls a parameter snapshot, computes gradients for
/// one batch over several ticks (slow workers take longer, so their
/// gradients are staler), and pushes the update. Data is served through
/// DLRover's dynamic data sharding or a conventional static partitioning,
/// with scripted elastic/instability events — this is the machinery behind
/// the Fig 8 "elasticity preserves convergence" experiment.
///
/// ExecMode::kThreads swaps the tick simulation for real pool threads
/// (dynamic sharding, no scripted events); its faults come from the chaos
/// injector and its recovery from the fault-tolerance supervisor.
class AsyncPsTrainer {
 public:
  AsyncPsTrainer(MiniDlrm* model, const CriteoSynth* data,
                 const AsyncTrainerOptions& options);

  TrainResult Run();

 private:
  struct Worker {
    int id = 0;
    bool active = true;
    double speed = 1.0;
    double progress = 0.0;  // accumulated ticks toward the current batch
    std::optional<DataShard> shard;
    uint64_t shard_pos = 0;  // batches completed within the shard
    // The in-flight batch: pulled at StartBatch, computed and pushed at
    // FinishBatch, so slow workers push against stale parameters.
    DlrmBatchWork work;
    bool in_batch = false;
    uint64_t batch_index = 0;
    // Static-partition mode: strided ownership (worker trains batches
    // cursor, cursor+stride, ... — how file-sharded input pipelines split a
    // time-ordered log). stride == 0 means no assignment.
    uint64_t part_cursor = 0;
    uint64_t part_stride = 0;
  };

  /// Shared state + logic of the threaded execution mode (defined in the
  /// .cc): worker control blocks, the commit gate and the fault-tolerance
  /// supervisor.
  struct ThreadRuntime;

  bool FetchWork(Worker& worker);
  void StartBatch(Worker& worker, uint64_t batch_index);
  void FinishBatch(Worker& worker);
  void FireEvents();
  /// Test-set loss and AUC of the live model, stamped with `batches`.
  EvalPoint EvalAt(uint64_t batches) const;
  /// Appends the eval point at the current commit count to the curve.
  void Evaluate();
  /// End of run, shared by both exec modes: the final eval point, commit
  /// and skip counts, and the final loss/AUC. Moves the result out.
  TrainResult Finish();
  void RepartitionStatic();
  TrainResult RunTicks();
  TrainResult RunThreads();

  MiniDlrm* model_;
  const CriteoSynth* data_;
  AsyncTrainerOptions options_;
  Rng rng_;
  std::vector<Worker> workers_;
  std::unique_ptr<ShardQueue> queue_;
  uint64_t committed_ = 0;
  size_t next_event_ = 0;
  int next_worker_id_ = 0;
  TrainResult result_;
  CriteoBatch eval_batch_;
  std::vector<float> eval_labels_;
};

}  // namespace dlrover

#endif  // DLROVER_DLRM_ASYNC_TRAINER_H_
