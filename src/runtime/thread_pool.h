#ifndef DLROVER_RUNTIME_THREAD_POOL_H_
#define DLROVER_RUNTIME_THREAD_POOL_H_

#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dlrover {

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
/// This is the execution substrate for the multi-threaded training runtime:
/// logical PS workers are long-running tasks multiplexed over the pool, and
/// ParallelFor carves data-parallel loops (batch forward/backward, bench
/// sweeps) into chunks. Deliberately no work stealing: tasks here are
/// coarse (a shard or a loop chunk), so a single FIFO queue stays simple
/// and contention-free enough.
class ThreadPool {
 public:
  /// `num_threads` == 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains the queue: already-submitted tasks finish, then threads join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues `fn` and returns a future for its result. Submitting from
  /// inside a pool task is allowed (used when an elastic event spawns a
  /// replacement worker from a running worker's thread).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      assert(!stop_ && "Submit after shutdown");
      tasks_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
  /// of at most `grain` indices (0 picks a grain that yields ~4 chunks per
  /// thread). The calling thread executes its share directly, so ParallelFor
  /// completes even when every pool thread is occupied by long-running
  /// tasks. Blocks until all chunks are done.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Process-wide pool sized to the hardware concurrency, constructed on
/// first use. Shared by nested data-parallel work (NSGA-II population
/// evaluation, bench sweeps without an explicit pool) so the process never
/// oversubscribes: ParallelFor callers always participate themselves, so
/// work completes even when every shared thread is busy with an outer task.
ThreadPool& SharedThreadPool();

}  // namespace dlrover

#endif  // DLROVER_RUNTIME_THREAD_POOL_H_
