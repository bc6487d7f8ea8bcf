#include "sim/driver.hpp"

#include <thread>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace stellaris::sim {

std::optional<DriverKind> parse_driver_kind(std::string_view name) {
  if (name == "virtual") return DriverKind::kVirtual;
  if (name == "concurrent") return DriverKind::kConcurrent;
  return std::nullopt;
}

std::size_t resolve_driver_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t invocation_stream(std::uint64_t run_seed,
                                std::uint64_t invocation_id,
                                std::uint64_t attempt) {
  // Two SplitMix64 rounds mix each key component through the full state, so
  // adjacent (id, attempt) pairs land on decorrelated streams. Constants are
  // SplitMix64's own increments, reused as odd mixers.
  SplitMix64 a(run_seed ^ (invocation_id * 0x9e3779b97f4a7c15ULL));
  SplitMix64 b(a.next() ^ (attempt * 0xbf58476d1ce4e5b9ULL));
  return b.next();
}

// ---------------------------------------------------------------------------
// JobState
// ---------------------------------------------------------------------------

Driver::JobState::JobState(std::function<void()> body,
                           std::shared_ptr<JobState> after)
    : body_(std::move(body)), after_(std::move(after)) {
  STELLARIS_CHECK(body_ != nullptr);
}

Driver::JobState::JobState(std::exception_ptr error)
    : finished_(true), error_(std::move(error)) {}

Driver::JobState::~JobState() {
  // A job abandoned by the platform (its invocation was reclaim-killed, so
  // the merge never ran) drops here with its error unread. The result was
  // going to be discarded anyway — the container's output died with the VM
  // — but a throwing body is still worth a line in the log.
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    if (error_ && !error_consumed_) err = error_;
  }
  if (!err) return;
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    LOG_WARN << "abandoned driver job had thrown: " << e.what();
  } catch (...) {
    LOG_WARN << "abandoned driver job had thrown a non-std exception";
  }
}

void Driver::JobState::run() {
  // Predecessor wait happens with NO lock held; `after_` was dequeued
  // strictly before this job (submit-order FIFO), so it is already running
  // or done on some thread and this wait always terminates.
  if (after_) after_->wait_finished();
  try {
    body_();
  } catch (...) {
    MutexLock lock(mu_);
    error_ = std::current_exception();
  }
  {
    MutexLock lock(mu_);
    finished_ = true;
  }
  cv_.notify_all();
  // Release captured resources (payload views, model refs) deterministically
  // at finish, not at whenever the last Job handle dies.
  body_ = nullptr;
  after_.reset();
}

void Driver::JobState::wait_finished() {
  MutexLock lock(mu_);
  while (!finished_locked()) cv_.wait(mu_);
}

void Driver::JobState::rethrow_if_error() {
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    STELLARIS_CHECK_MSG(finished_, "rethrow_if_error before job finished");
    err = error_;
    error_consumed_ = true;
  }
  if (err) std::rethrow_exception(err);
}

void Driver::join(const Job& job) {
  STELLARIS_CHECK(job != nullptr);
  job->wait_finished();
  job->rethrow_if_error();
}

// ---------------------------------------------------------------------------
// InlineDriver
// ---------------------------------------------------------------------------

Driver::Job InlineDriver::submit(std::function<void()> body,
                                 const Job& /*after*/) {
  // The predecessor already ran at ITS submit, so the body runs now. Only a
  // throw needs a job of its own, to carry the exception to join().
  STELLARIS_CHECK(body != nullptr);
  try {
    body();
  } catch (...) {
    return std::make_shared<JobState>(std::current_exception());
  }
  static const Job finished = std::make_shared<JobState>(nullptr);
  return finished;
}

Driver& inline_driver() {
  static InlineDriver driver;
  return driver;
}

std::unique_ptr<Driver> make_driver(DriverKind kind, std::size_t threads) {
  if (kind == DriverKind::kConcurrent)
    return make_concurrent_driver(threads);
  return std::make_unique<InlineDriver>();
}

}  // namespace stellaris::sim
