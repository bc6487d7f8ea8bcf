// Execution drivers: where invocation *bodies* run.
//
// The engine owns virtual time; a Driver owns real compute. An invocation's
// lifecycle is split into three sections (DESIGN.md §14):
//
//   capture   on the engine thread, at dispatch: every input the body needs
//             (policy snapshot, payload views, the keyed RNG seed) is read
//             from shared state and bound into the body closure;
//   body      a pure function of the captured inputs — no engine, cache,
//             ledger, or trainer state. This is what a Driver executes,
//             inline (InlineDriver) or on a worker thread (the concurrent
//             ThreadPoolDriver);
//   merge     on the engine thread, at the invocation's virtual completion
//             event: join() the job, then publish its outputs into shared
//             state. Because the engine alone decides event order, merges
//             are totally ordered by virtual time — results are therefore
//             byte-identical across drivers, by construction.
//
// Submission-order FIFO dequeue plus the `after` chain (a job may name one
// EARLIER-submitted predecessor it must run after, e.g. consecutive
// invocations of the same stateful actor) guarantees progress: a body only
// ever waits on a job dequeued strictly before it, so no worker-count
// starves and no cycle can form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "util/annotated_mutex.hpp"

namespace stellaris::sim {

/// Which Driver a run executes bodies on (`--driver=` in the benches).
enum class DriverKind {
  kVirtual,     ///< bodies run inline on the engine thread (the default)
  kConcurrent,  ///< bodies run on a worker pool; merge order unchanged
};

std::optional<DriverKind> parse_driver_kind(std::string_view name);

/// Resolve a `--driver-threads` request: 0 means "one per hardware thread".
std::size_t resolve_driver_threads(std::size_t requested);

/// Derive the seed of an invocation's private RNG stream from
/// (run seed, ledger/invocation id, attempt). Worker-thread bodies draw
/// ONLY from streams keyed this way — never from a shared generator — so
/// the draws an invocation sees are independent of which thread runs it and
/// of how bodies interleave in real time.
std::uint64_t invocation_stream(std::uint64_t run_seed,
                                std::uint64_t invocation_id,
                                std::uint64_t attempt);

class Driver {
 public:
  /// One submitted body. Shared between the submitter (who joins or
  /// abandons it) and the executing thread.
  class JobState {
   public:
    JobState(std::function<void()> body, std::shared_ptr<JobState> after);
    /// A job that has already finished, carrying `error` (null: it
    /// returned normally).
    explicit JobState(std::exception_ptr error);
    ~JobState();
    JobState(const JobState&) = delete;
    JobState& operator=(const JobState&) = delete;

    /// Execute: wait for the predecessor (if any), run the body capturing
    /// any exception, mark finished, wake waiters. Called exactly once, by
    /// whichever thread the Driver hands the job to.
    void run();

    /// Block until run() has completed. Does not rethrow.
    void wait_finished();

    /// Rethrow the body's exception, if it threw. Engine-thread merge path.
    void rethrow_if_error();

   private:
    bool finished_locked() const REQUIRES(mu_) { return finished_; }

    mutable Mutex mu_{"sim/driver-job", lock_rank::kDriverJob};
    CondVar cv_;
    bool finished_ GUARDED_BY(mu_) = false;
    bool error_consumed_ GUARDED_BY(mu_) = false;
    std::exception_ptr error_ GUARDED_BY(mu_);
    std::function<void()> body_;
    std::shared_ptr<JobState> after_;
  };
  using Job = std::shared_ptr<JobState>;

  virtual ~Driver() = default;

  virtual const char* name() const = 0;

  /// Worker threads executing bodies; 0 = bodies run inline at submit().
  virtual std::size_t worker_threads() const = 0;

  /// Hand a body to the driver. `after`, when set, must be a job submitted
  /// strictly earlier to this driver; the body will not start before it
  /// finishes (serializes same-actor invocations in dispatch order).
  virtual Job submit(std::function<void()> body, const Job& after = {}) = 0;

  /// Merge point: block until the job's body finished, then rethrow its
  /// exception (if any) on the calling (engine) thread.
  static void join(const Job& job);

  /// Block until every submitted body — joined or abandoned — has finished.
  /// Called once at end of run (and from the concurrent driver's dtor).
  virtual void drain() = 0;
};

/// Runs bodies inline at submit(): the virtual-clock driver, semantically
/// identical to pre-driver builds (the body just runs a little earlier in
/// the same event — capture and body see the same state either way, since
/// both happen before the dispatch event returns). Every body that returns
/// normally gets the same shared finished job, so a submit allocates only
/// when its body throws.
class InlineDriver final : public Driver {
 public:
  const char* name() const override { return "virtual"; }
  std::size_t worker_threads() const override { return 0; }
  Job submit(std::function<void()> body, const Job& after = {}) override;
  void drain() override {}
};

/// Process-wide InlineDriver used when no driver is installed on an Engine.
Driver& inline_driver();

/// Worker-pool driver (src/sim/concurrent_driver.cpp).
std::unique_ptr<Driver> make_concurrent_driver(std::size_t threads);

/// Factory over DriverKind; `threads` is ignored for kVirtual.
std::unique_ptr<Driver> make_driver(DriverKind kind, std::size_t threads);

}  // namespace stellaris::sim
