#include "dlrm/async_trainer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "dlrm/metrics.h"
#include "dlrm/model_checkpoint.h"
#include "elastic/chaos.h"
#include "elastic/heartbeat.h"
#include "runtime/thread_pool.h"

namespace dlrover {

namespace {

using PhaseClock = std::chrono::steady_clock;

/// Checkpoint generations the in-memory vault retains.
constexpr size_t kKeepCheckpoints = 3;
/// Restore-attempt budget and backoff shape (base * 2^attempt, capped,
/// with deterministic seeded jitter in [0.5, 1.5)).
constexpr int kMaxRestores = 5;
constexpr double kRestoreBackoffBaseMs = 1.0;
constexpr double kRestoreBackoffCapMs = 50.0;
/// Replacement workers the supervisor may spawn before degrading
/// gracefully to a smaller fleet.
constexpr int kMaxReplacements = 64;
/// Wall-clock slice for ShardQueue::WaitNextShardFor. A worker whose wait
/// deadline expires re-checks its control flags and retries, so nobody
/// blocks forever behind a dead shard holder.
constexpr double kShardWaitTimeoutS = 0.020;

double SecondsSince(PhaseClock::time_point t0) {
  return std::chrono::duration<double>(PhaseClock::now() - t0).count();
}

}  // namespace

void PhaseBreakdown::Merge(const PhaseBreakdown& other) {
  pull_s += other.pull_s;
  compute_s += other.compute_s;
  push_s += other.push_s;
  commit_wait_s += other.commit_wait_s;
  lock_wait_s += other.lock_wait_s;
  queue_wait_s += other.queue_wait_s;
  batches += other.batches;
}

AsyncPsTrainer::AsyncPsTrainer(MiniDlrm* model, const CriteoSynth* data,
                               const AsyncTrainerOptions& options)
    : model_(model), data_(data), options_(options), rng_(options.seed) {
  result_.times_trained.assign(options_.total_batches, 0);
  if (options_.data_mode == DataMode::kDynamicSharding) {
    ShardQueueOptions qopts;
    qopts.total_batches = options_.total_batches;
    qopts.default_shard_batches = options_.shard_batches;
    qopts.min_shard_batches = std::max<uint64_t>(1, options_.shard_batches / 8);
    queue_ = std::make_unique<ShardQueue>(qopts);
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    Worker w;
    w.id = next_worker_id_++;
    workers_.push_back(std::move(w));
  }
  if (options_.data_mode == DataMode::kStaticPartition) RepartitionStatic();

  eval_batch_ = data_->Batch(options_.eval_start, options_.eval_size);
  eval_labels_.reserve(eval_batch_.size());
  for (const auto& s : eval_batch_.samples) eval_labels_.push_back(s.label);

  // Sort events so FireEvents can walk them with a cursor.
  std::sort(options_.events.begin(), options_.events.end(),
            [](const ElasticEvent& a, const ElasticEvent& b) {
              return a.at_batches < b.at_batches;
            });
}

void AsyncPsTrainer::RepartitionStatic() {
  // Naive re-partitioning, as conventional frameworks do on scale events:
  // training resumes from the *global step counter* and the remaining data
  // is re-split from there. Scattered batches below that offset that were
  // never trained (a straggler's backlog, in-flight work) are silently
  // lost, and batches above it that were already trained get trained again
  // — the "disrupted data sequence" of paper Section 2.2.
  std::vector<Worker*> active;
  for (Worker& w : workers_) {
    if (w.active) active.push_back(&w);
  }
  if (active.empty()) return;
  const uint64_t start = std::min(committed_, options_.total_batches);
  for (size_t i = 0; i < active.size(); ++i) {
    Worker* w = active[i];
    w->part_cursor = start + i;
    w->part_stride = active.size();
    w->shard.reset();
    w->in_batch = false;
    w->progress = 0.0;
  }
}

bool AsyncPsTrainer::FetchWork(Worker& worker) {
  if (options_.data_mode == DataMode::kDynamicSharding) {
    if (!worker.shard.has_value() ||
        worker.shard_pos >= worker.shard->batches()) {
      if (worker.shard.has_value()) {
        const Status s = queue_->ReportCompleted(*worker.shard);
        assert(s.ok());
        (void)s;
        worker.shard.reset();
      }
      auto shard = queue_->NextShard();
      if (!shard.ok()) return false;
      worker.shard = *shard;
      worker.shard_pos = 0;
    }
    StartBatch(worker, worker.shard->start_batch + worker.shard_pos);
    return true;
  }
  if (worker.part_stride == 0 ||
      worker.part_cursor >= options_.total_batches) {
    return false;
  }
  StartBatch(worker, worker.part_cursor);
  return true;
}

void AsyncPsTrainer::StartBatch(Worker& worker, uint64_t batch_index) {
  const auto t0 = PhaseClock::now();
  worker.batch_index = batch_index;
  worker.in_batch = true;
  data_->FillBatch(batch_index * options_.batch_size, options_.batch_size,
                   &worker.work.batch);
  // Pull: the parameters this gradient will be computed against. Slow
  // workers take many ticks to finish, so by push time this is stale.
  model_->PullBatch(&worker.work);
  result_.phases.pull_s += SecondsSince(t0);
}

void AsyncPsTrainer::FinishBatch(Worker& worker) {
  const auto compute_t0 = PhaseClock::now();
  model_->ComputeBatch(&worker.work);
  const auto push_t0 = PhaseClock::now();
  result_.phases.compute_s +=
      std::chrono::duration<double>(push_t0 - compute_t0).count();
  model_->PushBatch(&worker.work, options_.learning_rate);
  result_.phases.push_s += SecondsSince(push_t0);
  ++result_.phases.batches;

  if (worker.batch_index < result_.times_trained.size()) {
    uint8_t& times = result_.times_trained[worker.batch_index];
    if (times < 255) ++times;
    if (times > 1) ++result_.batches_duplicated;
  }
  ++committed_;
  if (options_.data_mode == DataMode::kDynamicSharding) {
    ++worker.shard_pos;
  } else {
    worker.part_cursor += worker.part_stride;
  }
  worker.in_batch = false;
}

void AsyncPsTrainer::FireEvents() {
  while (next_event_ < options_.events.size() &&
         options_.events[next_event_].at_batches <= committed_) {
    const ElasticEvent& event = options_.events[next_event_++];
    switch (event.kind) {
      case ElasticEvent::Kind::kAddWorkers: {
        for (int i = 0; i < event.count; ++i) {
          Worker w;
          w.id = next_worker_id_++;
          workers_.push_back(std::move(w));
        }
        if (options_.data_mode == DataMode::kStaticPartition) {
          RepartitionStatic();
        }
        break;
      }
      case ElasticEvent::Kind::kRemoveWorkers: {
        int removed = 0;
        for (auto it = workers_.rbegin();
             it != workers_.rend() && removed < event.count; ++it) {
          if (!it->active) continue;
          it->active = false;
          if (options_.data_mode == DataMode::kDynamicSharding &&
              it->shard.has_value()) {
            // Exactly-once: return the unfinished remainder to the queue.
            const Status s =
                queue_->ReportFailed(*it->shard, it->shard_pos);
            assert(s.ok());
            (void)s;
            it->shard.reset();
          }
          ++removed;
        }
        if (options_.data_mode == DataMode::kStaticPartition) {
          RepartitionStatic();
        }
        break;
      }
      case ElasticEvent::Kind::kCrashWorker: {
        for (Worker& w : workers_) {
          if (!w.active || w.speed < 1.0) continue;  // crash a healthy one
          w.active = false;
          if (options_.data_mode == DataMode::kDynamicSharding) {
            if (w.shard.has_value()) {
              const Status s = queue_->ReportFailed(*w.shard, w.shard_pos);
              assert(s.ok());
              (void)s;
            }
          } else {
            // Conventional frameworks lose the crashed worker's in-flight
            // window (the paper's "workers might miss specific data
            // batches"): the replacement resumes past the prefetch buffer.
            w.part_cursor += w.part_stride * options_.shard_batches / 4;
          }
          // Replacement worker joins.
          Worker fresh;
          fresh.id = next_worker_id_++;
          if (options_.data_mode == DataMode::kStaticPartition) {
            fresh.part_cursor = w.part_cursor;
            fresh.part_stride = w.part_stride;
            w.part_cursor = 0;
            w.part_stride = 0;
          }
          workers_.push_back(std::move(fresh));
          break;
        }
        break;
      }
      case ElasticEvent::Kind::kMakeStraggler: {
        for (Worker& w : workers_) {
          if (w.active && w.speed >= 1.0) {
            w.speed = event.speed;
            break;
          }
        }
        break;
      }
    }
  }
}

EvalPoint AsyncPsTrainer::EvalAt(uint64_t batches) const {
  const std::vector<double> probs = model_->Predict(eval_batch_);
  EvalPoint point;
  point.batches = batches;
  point.test_logloss = LogLoss(probs, eval_labels_);
  point.test_auc = Auc(probs, eval_labels_);
  return point;
}

void AsyncPsTrainer::Evaluate() { result_.curve.push_back(EvalAt(committed_)); }

TrainResult AsyncPsTrainer::Finish() {
  Evaluate();
  result_.batches_committed = committed_;
  // Ground-truth data accounting from the multiplicity histogram.
  result_.batches_skipped = static_cast<uint64_t>(std::count(
      result_.times_trained.begin(), result_.times_trained.end(), 0));
  result_.final_logloss = result_.curve.back().test_logloss;
  result_.final_auc = result_.curve.back().test_auc;
  return std::move(result_);
}

TrainResult AsyncPsTrainer::Run() {
  if (options_.exec_mode == ExecMode::kThreads) {
    if (options_.data_mode != DataMode::kDynamicSharding ||
        !options_.events.empty()) {
      DLROVER_LOG_STREAM(Warning)
          << "kThreads supports neither static partitioning nor scripted "
             "events; falling back to kTicks";
    } else {
      return RunThreads();
    }
  }
  return RunTicks();
}

TrainResult AsyncPsTrainer::RunTicks() {
  uint64_t last_eval = 0;
  Evaluate();

  auto work_remains = [&]() {
    if (options_.data_mode == DataMode::kDynamicSharding) {
      return !queue_->AllDone();
    }
    for (const Worker& w : workers_) {
      if (w.active && w.part_stride > 0 &&
          w.part_cursor < options_.total_batches) {
        return true;
      }
    }
    return false;
  };

  // Tick loop: each tick every active worker advances by `speed`; one unit
  // of progress completes one batch.
  uint64_t guard = 0;
  const uint64_t max_ticks = options_.total_batches * 2000;
  while (work_remains() && guard++ < max_ticks) {
    bool anyone_working = false;
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = workers_[i];
      if (!w.active) continue;
      if (!w.in_batch) {
        if (!FetchWork(w)) continue;
      }
      anyone_working = true;
      w.progress += w.speed;
      if (w.progress >= 1.0) {
        w.progress -= 1.0;
        FinishBatch(w);
        FireEvents();
        if (committed_ - last_eval >= options_.eval_every_batches) {
          last_eval = committed_;
          Evaluate();
        }
      }
    }
    if (!anyone_working) break;  // stranded data (static-mode skips)
  }

  return Finish();
}

/// Shared state and logic of ExecMode::kThreads. One instance lives on the
/// stack of RunThreads for the duration of a run; worker tasks and the
/// fault-tolerance supervisor all operate through it.
///
/// Locking order (outer to inner): commit_gate -> state_mu -> queue mutex.
/// Workers hold commit_gate shared around their record+push+commit critical
/// section; the supervisor holds it exclusive while fencing a worker,
/// checkpointing, or restoring — so a checkpoint is a true quiescent cut
/// and a fenced worker can never slip one more update in after its shard
/// was reclaimed.
///
/// The ShardQueue is the only record of in-flight shards: each batch is
/// recorded there (RecordProgress) before its update is pushed, so every
/// snapshot, reclaim and failure report reads the committed prefix from
/// the queue itself.
struct AsyncPsTrainer::ThreadRuntime {
  /// Per-worker control block. Chaos faults and the supervisor cannot
  /// preempt a real thread mid-batch; they set flags the worker observes
  /// at batch boundaries, which is also how real PS workers drain.
  struct WorkerCtl {
    int id = 0;
    /// Chaos crash: dies without reporting anything; the supervisor (or
    /// the end-of-run drain) must recover its shard.
    std::atomic<bool> hard_crash{false};
    /// The supervisor declared this worker dead and reclaimed its shard;
    /// any in-flight update must be dropped, never committed.
    std::atomic<bool> fenced{false};
    /// Chaos stall: alive but silent until fenced.
    std::atomic<bool> stalled{false};
    std::atomic<bool> exited{false};
    /// End-of-run drain worker: chaos must skip it or a fault could keep
    /// the run from ever terminating.
    std::atomic<bool> immune{false};
    std::atomic<uint64_t> beats{0};        // committed batches (progress)
    std::atomic<double> last_beat_s{0.0};  // runtime clock of last commit
    bool monitored = false;                // under state_mu
    /// The shard this worker holds (under state_mu): what a fence, the
    /// exited-owner reap and the end-of-run drain hand back to the queue.
    std::optional<DataShard> shard;
  };

  AsyncPsTrainer* t;
  const AsyncTrainerOptions& opts;
  ChaosInjector* chaos;
  const bool ft;
  ThreadPool pool;

  // state_mu guards committed_, result_, ctls (and each WorkerCtl::shard),
  // futures, monitor and last_eval. Everything inside is O(1)-ish
  // bookkeeping; the expensive pull/compute/push runs outside the lock.
  std::mutex state_mu;
  std::shared_mutex commit_gate;
  std::vector<std::shared_ptr<WorkerCtl>> ctls;
  std::vector<std::future<void>> futures;
  uint64_t last_eval = 0;
  std::atomic<uint64_t> committed_approx{0};

  // Fault-tolerance machinery (constructed always, inert unless ft).
  CheckpointVault vault;
  HeartbeatMonitor monitor;
  FaultToleranceStats stats;
  Rng backoff_rng;
  int replacements_done = 0;
  int restore_attempts = 0;
  std::thread supervisor;
  std::atomic<bool> supervisor_stop{false};
  const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();

  explicit ThreadRuntime(AsyncPsTrainer* trainer)
      : t(trainer),
        opts(trainer->options_),
        chaos(trainer->options_.chaos),
        ft(trainer->options_.fault_tolerance.enabled),
        pool(trainer->options_.num_threads > 0
                 ? static_cast<size_t>(trainer->options_.num_threads)
                 : static_cast<size_t>(
                       std::max(1, trainer->options_.num_workers))),
        vault(kKeepCheckpoints),
        monitor(MonitorOptions(trainer->options_)),
        backoff_rng(trainer->options_.seed ^ 0xb0ffull) {}

  static HeartbeatMonitorOptions MonitorOptions(const AsyncTrainerOptions& o) {
    HeartbeatMonitorOptions m;
    m.failure_timeout = o.fault_tolerance.heartbeat_timeout_ms / 1000.0;
    m.min_observation = 0.0;
    return m;
  }

  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  bool ChaosTake(const WorkerCtl& ctl, ChaosFaultKind kind) {
    return chaos != nullptr && !ctl.immune.load() &&
           chaos->Take(kind, committed_approx.load());
  }

  /// Consecutive expired waits before a worker gives up and exits (how an
  /// unsupervised fleet avoids hanging when a crashed worker took the last
  /// outstanding shard to its grave).
  int EffectiveStrikes() const {
    // Chaos without a supervisor can strand shards forever; an unprotected
    // fleet must eventually give up instead of hanging the run.
    if (chaos != nullptr && !ft) return 40;
    return 0;  // never give up
  }

  void SpawnWorkerLocked() {
    auto ctl = std::make_shared<WorkerCtl>();
    ctl->id = t->next_worker_id_++;
    ctl->last_beat_s.store(NowSeconds());
    ctls.push_back(ctl);
    if (ft) {
      monitor.AddMember(static_cast<uint64_t>(ctl->id), NowSeconds());
      ctl->monitored = true;
    }
    futures.push_back(pool.Submit([this, ctl]() { WorkerLoop(ctl); }));
  }

  /// Requires state_mu. Hands the shard `ctl` holds back to the queue, which
  /// credits its recorded prefix and re-serves the rest. Returns false when
  /// there was nothing to return: no shard, or one a restore (or a
  /// completion) already retired.
  bool ReturnShardLocked(WorkerCtl& ctl) {
    if (!ctl.shard.has_value()) return false;
    const Status s = t->queue_->ReportFailed(*ctl.shard);
    assert(s.ok() || s.code() == StatusCode::kNotFound);
    ctl.shard.reset();
    return s.ok();
  }

  /// Record + push + commit under the shared gate. Returns false when the
  /// worker is fenced or its shard is retired: the update is dropped and
  /// the caller abandons the shard (a fenced worker's shard is the
  /// supervisor's now; a retired one was rolled back by a restore). The
  /// push itself is the worker's private accumulators merging into the live
  /// model (dense axpy under the model's write lock, sharded sparse
  /// scatter) — the gate is held shared, so pushes from different workers
  /// overlap.
  bool CommitBatch(WorkerCtl& ctl, const DataShard& shard,
                   uint64_t batch_index, DlrmBatchWork* work,
                   PhaseBreakdown* ph, bool* crash_after_push) {
    bool do_eval = false;
    uint64_t eval_at = 0;
    {
      const auto gate_t0 = PhaseClock::now();
      std::shared_lock<std::shared_mutex> gate(commit_gate);
      // A fence or a restore needs the exclusive gate, so neither can
      // retire the shard between this record and the push below.
      if (ctl.fenced.load() || !t->queue_->RecordProgress(shard.index).ok()) {
        return false;
      }
      const auto push_t0 = PhaseClock::now();
      ph->commit_wait_s +=
          std::chrono::duration<double>(push_t0 - gate_t0).count();
      t->model_->PushBatch(work, opts.learning_rate);
      const auto lock_t0 = PhaseClock::now();
      ph->push_s += std::chrono::duration<double>(lock_t0 - push_t0).count();
      uint64_t now_committed = 0;
      {
        std::lock_guard<std::mutex> lock(state_mu);
        if (batch_index < t->result_.times_trained.size()) {
          uint8_t& times = t->result_.times_trained[batch_index];
          if (times < 255) ++times;
          if (times > 1) ++t->result_.batches_duplicated;
        }
        ++t->committed_;
        now_committed = t->committed_;
        committed_approx.store(now_committed);
        ctl.beats.fetch_add(1);
        ctl.last_beat_s.store(NowSeconds());
        if (t->committed_ - last_eval >= opts.eval_every_batches) {
          last_eval = t->committed_;
          eval_at = t->committed_;
          do_eval = true;
        }
      }
      ph->lock_wait_s += SecondsSince(lock_t0);
      ++ph->batches;
      // Crash-after-push: the batch is committed (and must not be redone);
      // the worker dies before it can ever report the shard.
      if (chaos != nullptr && !ctl.immune.load() &&
          chaos->Take(ChaosFaultKind::kCrashAfterPush, now_committed)) {
        *crash_after_push = true;
      }
    }
    if (do_eval) {
      // Predict is thread-safe; only the curve append needs the lock.
      const EvalPoint point = t->EvalAt(eval_at);
      std::lock_guard<std::mutex> lock(state_mu);
      t->result_.curve.push_back(point);
    }
    return true;
  }

  void WorkerLoop(std::shared_ptr<WorkerCtl> ctl) {
    const int max_strikes = EffectiveStrikes();
    int strikes = 0;
    // Everything one batch needs lives in this per-worker workspace; after
    // the first few batches warm its buffers the loop is allocation-free
    // (pinned by alloc_guard_test).
    DlrmBatchWork work;
    PhaseBreakdown ph;
    while (!ctl->hard_crash.load() && !ctl->fenced.load()) {
      const auto wait_t0 = PhaseClock::now();
      auto shard_or = t->queue_->WaitNextShardFor(kShardWaitTimeoutS);
      ph.queue_wait_s += SecondsSince(wait_t0);
      if (shard_or.status().code() == StatusCode::kDeadlineExceeded) {
        if (max_strikes > 0 && ++strikes >= max_strikes) break;
        continue;  // re-check control flags, then wait again
      }
      if (!shard_or.ok()) break;  // terminal: nothing can be served again
      strikes = 0;
      const DataShard shard = *shard_or;
      {
        std::lock_guard<std::mutex> lock(state_mu);
        ctl->shard = shard;
      }
      bool abandoned = false;  // fenced/hard-crash: report nothing
      bool stale = false;      // a restore retired this shard mid-flight
      for (uint64_t pos = 0; pos < shard.batches(); ++pos) {
        while (ctl->stalled.load() && !ctl->fenced.load() &&
               !ctl->hard_crash.load()) {
          // Heartbeat silence: alive, making no progress. Only the
          // supervisor's fence (or shutdown) releases the worker.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (ctl->hard_crash.load() || ctl->fenced.load()) {
          abandoned = true;
          break;
        }
        const uint64_t batch_index = shard.start_batch + pos;
        // Pull -> compute -> push with real staleness: other workers push
        // between this pull and this worker's push. All three stages run
        // against the reusable workspace, entirely outside the trainer's
        // locks — the only shared state touched here is the model's
        // read-locked dense block and the store's per-stripe gathers.
        const auto pull_t0 = PhaseClock::now();
        t->data_->FillBatch(batch_index * opts.batch_size, opts.batch_size,
                            &work.batch);
        t->model_->PullBatch(&work);
        const auto compute_t0 = PhaseClock::now();
        ph.pull_s +=
            std::chrono::duration<double>(compute_t0 - pull_t0).count();
        t->model_->ComputeBatch(&work);
        ph.compute_s += SecondsSince(compute_t0);
        if (ChaosTake(*ctl, ChaosFaultKind::kCrashBeforePush)) {
          // Dies with the gradient computed but not pushed: this batch was
          // never committed and must be re-served.
          ctl->hard_crash.store(true);
          abandoned = true;
          break;
        }
        bool crash_after_push = false;
        if (!CommitBatch(*ctl, shard, batch_index, &work, &ph,
                         &crash_after_push)) {
          if (ctl->fenced.load() || ctl->hard_crash.load()) {
            abandoned = true;
          } else {
            // The queue retired the shard: a restore rolled its data back
            // and the restored queue re-serves it. The worker itself is
            // healthy — it drops the shard and fetches fresh work.
            stale = true;
          }
          break;
        }
        if (crash_after_push) {
          ctl->hard_crash.store(true);
          abandoned = true;
          break;
        }
      }
      if (abandoned) break;  // the shard stays held for the supervisor
      // A lost completion report leaves the shard outstanding with every
      // batch recorded; CompleteFullyRecorded credits it later.
      const bool report_lost =
          !stale && ChaosTake(*ctl, ChaosFaultKind::kLoseShardReport);
      if (!stale && !report_lost) {
        const Status s = t->queue_->ReportCompleted(shard);
        // kNotFound: a restore retired the shard after its last batch, or
        // the supervisor completed it first.
        assert(s.ok() || s.code() == StatusCode::kNotFound);
        (void)s;
      }
      std::lock_guard<std::mutex> lock(state_mu);
      ctl->shard.reset();
      // Counted here, not at the reap: the supervisor's call also completes
      // shards whose report is merely late.
      if (report_lost && ft) ++stats.lost_reports_reaped;
    }
    {
      std::lock_guard<std::mutex> lock(state_mu);
      t->result_.phases.Merge(ph);
    }
    ctl->exited.store(true);
  }

  // ---- Supervisor (fault-tolerance) ----------------------------------

  /// Declares a worker dead, reclaims its shard with its recorded prefix,
  /// and spawns a replacement if the budget allows. Takes the gate
  /// exclusively: no commit can be in flight while the fence goes up, so
  /// the reclaimed remainder can never lose a racing update.
  void FenceAndReclaim(uint64_t member_id) {
    std::unique_lock<std::shared_mutex> gate(commit_gate);
    std::lock_guard<std::mutex> lock(state_mu);
    std::shared_ptr<WorkerCtl> victim;
    for (const auto& c : ctls) {
      if (static_cast<uint64_t>(c->id) == member_id) {
        victim = c;
        break;
      }
    }
    if (!victim || victim->fenced.load()) return;
    victim->fenced.store(true);
    ++stats.workers_fenced;
    if (victim->monitored) {
      monitor.RemoveMember(member_id);
      victim->monitored = false;
    }
    if (ReturnShardLocked(*victim)) ++stats.shards_reclaimed;
    if (replacements_done < kMaxReplacements) {
      ++replacements_done;
      ++stats.workers_replaced;
      SpawnWorkerLocked();
    } else {
      ++stats.degraded_exits;  // smaller fleet from here on
    }
  }

  /// Reclaims the shards of workers that already exited (chaos hard crash,
  /// or fenced before they could hold anything), then completes shards
  /// whose every batch is recorded but whose report never came (lost — or
  /// still on its way, in which case the worker's own report finds the
  /// index retired). No gate needed: an exited owner races with nobody, and
  /// a fully recorded shard has no update left to push.
  void ReapOrphansLocked() {
    for (const auto& c : ctls) {
      if (!c->exited.load()) continue;
      if (ReturnShardLocked(*c)) ++stats.shards_reclaimed;
      if (c->monitored) {
        monitor.RemoveMember(static_cast<uint64_t>(c->id));
        c->monitored = false;
      }
    }
    t->queue_->CompleteFullyRecorded();
  }

  void InjectStallLocked() {
    for (const auto& c : ctls) {
      if (c->hard_crash.load() || c->fenced.load() || c->stalled.load() ||
          c->exited.load() || c->immune.load()) {
        continue;
      }
      c->stalled.store(true);
      ++stats.stalls_injected;
      return;
    }
  }

  /// Captures a checkpoint under a quiescent cut: model blob, queue
  /// snapshot netted of every recorded in-flight prefix, and the audit
  /// histogram — all consistent with `committed_`.
  void TakeCheckpoint() {
    ModelCheckpoint ckpt;
    {
      std::unique_lock<std::shared_mutex> gate(commit_gate);
      std::lock_guard<std::mutex> lock(state_mu);
      ckpt.committed_batches = t->committed_;
      ckpt.batches_duplicated = t->result_.batches_duplicated;
      ckpt.times_trained = t->result_.times_trained;
      ckpt.queue = t->queue_->SnapshotState();
      t->model_->ExportState(&ckpt.model);
    }
    ++stats.checkpoints_taken;
    if (chaos != nullptr &&
        chaos->Take(ChaosFaultKind::kFailCheckpointWrite,
                    ckpt.committed_batches)) {
      ++stats.checkpoint_writes_failed;
      vault.CommitCorrupted(std::move(ckpt));
      return;
    }
    if (chaos != nullptr &&
        chaos->Take(ChaosFaultKind::kTornCheckpointWrite,
                    ckpt.committed_batches)) {
      ++stats.checkpoint_writes_torn;
      vault.CommitTruncated(std::move(ckpt));
      return;
    }
    vault.Commit(std::move(ckpt));
  }

  /// Parameter state is gone: wait out an exponential backoff (capped,
  /// seeded jitter — the cost of standing up a replacement PS), then roll
  /// model, queue, audit and counters back to the newest checkpoint that
  /// passes its checksum. Gives up (degraded: live state kept) when the
  /// restore budget is exhausted or no generation verifies.
  void PerformRestore() {
    if (restore_attempts >= kMaxRestores) return;
    ++restore_attempts;
    double delay_ms =
        kRestoreBackoffBaseMs *
        static_cast<double>(1ull << std::min(restore_attempts - 1, 20));
    delay_ms = std::min(delay_ms, kRestoreBackoffCapMs) *
               backoff_rng.Uniform(0.5, 1.5);
    if (delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(delay_ms * 1000.0)));
    }
    std::unique_lock<std::shared_mutex> gate(commit_gate);
    std::lock_guard<std::mutex> lock(state_mu);
    const ModelCheckpoint* ckpt = vault.LatestValid();
    if (ckpt == nullptr) return;  // nothing trustworthy to restore from
    const Status s = t->model_->ImportState(ckpt->model);
    assert(s.ok());
    (void)s;
    // Retires every outstanding index: a worker still holding a
    // pre-restore shard fails its next RecordProgress and drops it.
    t->queue_->RestoreState(ckpt->queue);
    if (t->committed_ > ckpt->committed_batches) {
      stats.batches_rolled_back += t->committed_ - ckpt->committed_batches;
    }
    t->committed_ = ckpt->committed_batches;
    committed_approx.store(t->committed_);
    t->result_.times_trained = ckpt->times_trained;
    t->result_.batches_duplicated = ckpt->batches_duplicated;
    last_eval = std::min(last_eval, t->committed_);
    ++stats.restores;
  }

  void SupervisorLoop() {
    const auto poll = std::chrono::microseconds(static_cast<int64_t>(
        std::max(0.1, opts.fault_tolerance.supervisor_poll_ms) * 1000.0));
    uint64_t last_ckpt = committed_approx.load();
    while (!supervisor_stop.load()) {
      std::this_thread::sleep_for(poll);
      const uint64_t committed = committed_approx.load();
      if (chaos != nullptr) {
        if (chaos->Take(ChaosFaultKind::kStallWorker, committed)) {
          std::lock_guard<std::mutex> lock(state_mu);
          InjectStallLocked();
        }
        if (chaos->Take(ChaosFaultKind::kPsFailure, committed)) {
          PerformRestore();
          last_ckpt = committed_approx.load();
        }
      }
      std::vector<uint64_t> dead;
      {
        std::lock_guard<std::mutex> lock(state_mu);
        ReapOrphansLocked();
        const double now = NowSeconds();
        for (const auto& c : ctls) {
          if (!c->monitored) continue;
          monitor.Heartbeat(static_cast<uint64_t>(c->id),
                            c->last_beat_s.load(), c->beats.load());
        }
        dead = monitor.DetectFailures(now);
      }
      for (uint64_t member : dead) FenceAndReclaim(member);
      const uint64_t now_committed = committed_approx.load();
      if (now_committed >= last_ckpt &&
          now_committed - last_ckpt >=
              opts.fault_tolerance.checkpoint_every_batches) {
        TakeCheckpoint();
        last_ckpt = committed_approx.load();
      }
      if (now_committed < last_ckpt) last_ckpt = now_committed;  // rolled back
    }
    // Final cut at shutdown: captures end-of-run state and consumes any
    // still-pending torn-write fault scheduled near the tail.
    if (committed_approx.load() > last_ckpt) TakeCheckpoint();
  }

  // ---- Run ------------------------------------------------------------

  TrainResult Run() {
    t->Evaluate();  // initial point, before any worker starts
    if (ft) TakeCheckpoint();  // generation 0: a restore target always exists
    {
      std::lock_guard<std::mutex> lock(state_mu);
      for (int i = 0; i < opts.num_workers; ++i) SpawnWorkerLocked();
    }
    if (ft) supervisor = std::thread([this]() { SupervisorLoop(); });

    // Join all workers, including ones spawned by events or the supervisor
    // mid-run.
    auto join_all = [this]() {
      for (;;) {
        std::vector<std::future<void>> joinable;
        {
          std::lock_guard<std::mutex> lock(state_mu);
          joinable.swap(futures);
        }
        if (joinable.empty()) break;
        for (std::future<void>& f : joinable) f.get();
      }
    };
    join_all();
    if (ft) {
      supervisor_stop.store(true);
      supervisor.join();
      join_all();  // replacements spawned in the shutdown race window
    }

    if (opts.drain_remainder) {
      // Every worker has exited; whatever shards they still hold belong to
      // the dead. Return the unrecorded remainders and complete the lost
      // reports, then train the leftovers inline (a fresh worker no fault
      // can touch).
      {
        std::lock_guard<std::mutex> lock(state_mu);
        for (const auto& c : ctls) ReturnShardLocked(*c);
        t->queue_->CompleteFullyRecorded();
      }
      while (!t->queue_->AllDone()) {
        auto ctl = std::make_shared<WorkerCtl>();
        ctl->id = t->next_worker_id_++;
        ctl->immune.store(true);
        WorkerLoop(ctl);
      }
    }

    // Concurrent commits record eval points slightly out of order.
    std::sort(t->result_.curve.begin(), t->result_.curve.end(),
              [](const EvalPoint& a, const EvalPoint& b) {
                return a.batches < b.batches;
              });
    t->result_.ft = stats;
    return t->Finish();
  }
};

TrainResult AsyncPsTrainer::RunThreads() {
  ThreadRuntime runtime(this);
  return runtime.Run();
}

}  // namespace dlrover
