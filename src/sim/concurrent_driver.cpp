// ThreadPoolDriver: the `--driver=concurrent` execution driver.
//
// Workers are raw std::thread rather than util::ThreadPool on purpose: a
// driver body may itself dispatch kernel work onto the (separate) kernel
// ThreadPool, and a body legitimately BLOCKS mid-task waiting for its
// `after` predecessor — both patterns ThreadPool::parallel_for forbids.
// The pool here owns the full lifecycle ThreadPool would otherwise give
// us: lazy spawn up to the cap, exception capture per job (in JobState),
// and a drain/join teardown. See DESIGN.md §14.
//
// Deadlock-freedom: jobs are dequeued in submit order, and a job's `after`
// predecessor is always submitted strictly earlier — so by the time any
// worker starts a job, its predecessor has been dequeued by some worker
// (possibly this one) and is running or done. The wait in JobState::run()
// therefore never waits on anything still queued.
#include "sim/driver.hpp"

#include <deque>
#include <thread>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/error.hpp"

namespace stellaris::sim {
namespace {

class ThreadPoolDriver final : public Driver {
 public:
  explicit ThreadPoolDriver(std::size_t max_threads)
      : max_threads_(max_threads == 0 ? 1 : max_threads) {}

  ~ThreadPoolDriver() override {
    drain();
    std::vector<std::thread> workers;  // analyze:raw-thread-ok — see header comment
    {
      MutexLock lock(mu_);
      stopping_ = true;
      workers.swap(workers_);
    }
    cv_.notify_all();
    for (auto& w : workers) w.join();
  }

  const char* name() const override { return "concurrent"; }

  std::size_t worker_threads() const override { return max_threads_; }

  Job submit(std::function<void()> body, const Job& after) override {
    auto job = std::make_shared<JobState>(std::move(body), after);
    {
      MutexLock lock(mu_);
      STELLARIS_CHECK_MSG(!stopping_, "submit on a stopping driver");
      queue_.push_back(job);
      ++outstanding_;
      // Thread-per-in-flight-function up to the cap: spawn another worker
      // only when every live one is busy (none idle to take this job).
      if (idle_workers_ == 0 && workers_.size() < max_threads_)
        workers_.emplace_back([this] { worker_loop(); });
    }
    cv_.notify_one();
    return job;
  }

  void drain() override {
    MutexLock lock(mu_);
    while (outstanding_ > 0) idle_cv_.wait(mu_);
  }

 private:
  bool has_work_or_stop() const REQUIRES(mu_) {
    return stopping_ || !queue_.empty();
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        MutexLock lock(mu_);
        while (!has_work_or_stop()) {
          ++idle_workers_;
          cv_.wait(mu_);
          --idle_workers_;
        }
        if (queue_.empty()) return;  // stopping_ and nothing left
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job->run();  // no driver lock held: bodies run fully concurrently
      {
        MutexLock lock(mu_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  const std::size_t max_threads_;
  Mutex mu_{"sim/driver-queue", lock_rank::kDriverQueue};
  CondVar cv_;       ///< workers: work available / stopping
  CondVar idle_cv_;  ///< drain(): outstanding reached zero
  std::deque<Job> queue_ GUARDED_BY(mu_);
  std::size_t outstanding_ GUARDED_BY(mu_) = 0;
  std::size_t idle_workers_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  // Raw threads on purpose: driver workers must block on job dependencies,
  // which ThreadPool tasks may not do (see header comment).
  std::vector<std::thread> workers_ GUARDED_BY(mu_);  // analyze:raw-thread-ok
};

}  // namespace

std::unique_ptr<Driver> make_concurrent_driver(std::size_t threads) {
  return std::make_unique<ThreadPoolDriver>(threads);
}

}  // namespace stellaris::sim
