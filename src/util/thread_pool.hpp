// Fixed-size work-queue thread pool.
//
// Used by the parallel actor driver (real concurrency, e.g. in examples and
// concurrency tests) and by the tensor kernel library for row-panel
// parallelism — the benchmark harness itself runs on the deterministic
// virtual-time engine in src/sim/ instead, so figures are reproducible on
// any core count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1 enforced).
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Total tasks ever enqueued (submit() + parallel_for() chunks). Exposed
  /// so tests can assert parallel_for's task granularity: a parallel_for
  /// over any index count enqueues at most size() tasks, never one per
  /// index.
  // analyze:test-only-ok tests observe parallel_for's task granularity
  std::uint64_t tasks_enqueued() const {
    return tasks_enqueued_.load(std::memory_order_relaxed);
  }

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  ///
  /// The index range is statically partitioned into at most size()
  /// contiguous chunks (one task per worker), so the per-task overhead is
  /// O(workers), not O(n). Completion is tracked by a single shared
  /// countdown instead of one future per index. The first exception thrown
  /// by `fn` is rethrown on the calling thread after all chunks finish.
  ///
  /// Must not be called from inside a pool task (the caller blocks until
  /// every chunk has run, so nested calls could deadlock the pool).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop() EXCLUDES(mu_);
  void enqueue(std::function<void()> task) EXCLUDES(mu_);

  /// Wake condition for workers. Also true when stopping (workers drain
  /// the queue, then exit).
  bool work_available() const REQUIRES(mu_) {
    return stopping_ || !queue_.empty();
  }

  std::vector<std::thread> workers_;
  Mutex mu_{"util/thread-pool", lock_rank::kThreadPool};
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> tasks_enqueued_{0};
};

}  // namespace stellaris
