#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace dlrover {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (grain == 0) {
    grain = std::max<size_t>(1, n / (4 * threads_.size() + 1));
  }
  if (n <= grain) {
    body(begin, end);
    return;
  }
  // Chunks are claimed from a shared counter rather than pinned to tasks:
  // the calling thread participates, so the loop completes even when every
  // pool thread is busy with a long-running task, and free pool threads
  // join in as helpers. `body` must not throw (a lost chunk would hang the
  // rendezvous below).
  struct PfState {
    std::atomic<size_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t chunks_done = 0;
  };
  const size_t total_chunks = (n + grain - 1) / grain;
  auto state = std::make_shared<PfState>();
  auto drain = [state, begin, end, grain, total_chunks, body]() {
    for (;;) {
      const size_t i = state->next_chunk.fetch_add(1);
      if (i >= total_chunks) return;
      const size_t b = begin + i * grain;
      body(b, std::min(b + grain, end));
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->chunks_done == total_chunks) state->done_cv.notify_all();
    }
  };
  const size_t helpers = std::min(threads_.size(), total_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock,
                      [&]() { return state->chunks_done == total_chunks; });
}

ThreadPool& SharedThreadPool() {
  // Magic-static: thread-safe one-time construction; joined at exit.
  static ThreadPool pool(0);
  return pool;
}

}  // namespace dlrover
