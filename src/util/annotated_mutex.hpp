// Capability-annotated synchronization primitives + the project lock
// hierarchy.
//
// Every mutex in the codebase lives behind these wrappers, for three
// reasons:
//
//  1. **Compile-time lock discipline.** The wrappers carry Clang
//     thread-safety capability attributes (no-ops on other compilers), so
//     a Clang build with -Wthread-safety proves, at every call site, that
//     each GUARDED_BY field is only touched with its mutex held and that
//     REQUIRES/EXCLUDES contracts hold. CI promotes the warning to
//     -Werror=thread-safety; see DESIGN.md §11 for the conventions.
//
//  2. **Deterministic deadlock detection.** Each Mutex is constructed with
//     a name and a rank from the lock hierarchy below. When
//     STELLARIS_LOCK_ORDER_CHECK is enabled (the default; disable with
//     -DSTELLARIS_LOCK_ORDER_CHECK=OFF for shaving nanoseconds off perf
//     runs), every acquisition checks a per-thread held-lock stack and
//     aborts — printing both lock names and ranks — if a lock is acquired
//     while holding one of equal or higher rank. Cross-subsystem deadlocks
//     (e.g. cache waiter vs. metrics registry) are therefore caught on the
//     first inverted acquisition, on any single-threaded code path, not
//     just when two threads actually collide.
//
//  3. **Lintability.** stellaris_analyze's raw-mutex rule forbids raw
//     std::mutex / std::condition_variable / std::lock_guard outside this
//     header, so "is every lock annotated and ranked?" reduces to a grep.
//
// Lock hierarchy (ranks; a thread may only acquire strictly increasing
// ranks — full table and rationale in DESIGN.md §11):
//
//   100  cache/shard               logs + wakes waiters while held
//   120  serverless/container-pool leaf (metrics atomics + RNG only)
//   150  tensor/kernel-pool        constructs the kernel ThreadPool
//   200  util/thread-pool          work-queue mutex
//   210  sim/driver-queue          execution-driver job queue
//   220  sim/driver-job            per-job done flag + error slot
//   230  core/worker-contexts      worker-context free list
//   240  serve/contexts            serving model-context free list
//   250  util/parallel-for-errors  error capture inside pool tasks
//   300  obs/metrics-registry      instrument registration + export
//   350  obs/trace-recorder        trace event buffer
//   360  obs/ledger                run-ledger line buffer
//   370  obs/timeseries            sampled-series buffer
//   800  obs/counter-shards        per-thread counter shard list (leaf)
//   900  util/logger               terminal leaf: any subsystem may log
//                                  while holding its own lock
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety analysis attributes. Canonical macro set from the
// Clang documentation; all expand to nothing on compilers without the
// attributes (GCC builds locally, Clang proves the invariants in CI).
// ---------------------------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define STELLARIS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define STELLARIS_THREAD_ANNOTATION_(x)  // no-op off-Clang
#endif

#define CAPABILITY(x) STELLARIS_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY STELLARIS_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) STELLARIS_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) STELLARIS_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  STELLARIS_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  STELLARIS_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  STELLARIS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  STELLARIS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  STELLARIS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  STELLARIS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  STELLARIS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  STELLARIS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  STELLARIS_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  STELLARIS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) STELLARIS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  STELLARIS_THREAD_ANNOTATION_(assert_capability(x))
#define RETURN_CAPABILITY(x) \
  STELLARIS_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  STELLARIS_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Lock-order checking defaults to ON; CMake passes =0 for perf builds.
#ifndef STELLARIS_LOCK_ORDER_CHECK
#define STELLARIS_LOCK_ORDER_CHECK 1
#endif

namespace stellaris {

/// Ranks for the documented lock hierarchy (see header comment and
/// DESIGN.md §11). New subsystems pick an unused rank that is greater than
/// every lock they may hold a lock across, and smaller than every lock
/// they acquire while held.
namespace lock_rank {
// Every cache stripe (DistributedCache's per-shard mutexes) shares kCache:
// stripes are peers that must never nest, and the strictly-greater check
// makes a nested stripe acquisition abort (DESIGN.md §12).
inline constexpr int kCache = 100;
inline constexpr int kContainerPool = 120;
inline constexpr int kKernelPool = 150;
inline constexpr int kThreadPool = 200;
// Execution-driver locks (sim/driver): a worker holds the queue lock only
// around dequeue bookkeeping, and a job lock only around its done flag; a
// body waiting on its predecessor holds NOTHING (sequential, never nested).
inline constexpr int kDriverQueue = 210;
inline constexpr int kDriverJob = 220;
// Worker-context free-list (core/worker_context): leased at body start,
// returned at body end, never held across the lease.
inline constexpr int kWorkerContexts = 230;
// Serving-tier per-tenant scratch contexts (serve/serve_context): same
// lease-at-body-start discipline as kWorkerContexts, a distinct rank so a
// serve body may legally lease while a training context is held (mixed
// train+serve processes).
inline constexpr int kServeContexts = 240;
inline constexpr int kParallelForErrors = 250;
inline constexpr int kMetricsRegistry = 300;
inline constexpr int kTraceRecorder = 350;
// Telemetry sinks (run ledger, time-series recorder): terminal like the
// trace recorder — emitters may hold subsystem locks while appending, but
// the recorders never call out while holding their own.
inline constexpr int kLedger = 360;
inline constexpr int kTimeSeries = 370;
// Counter shard list (obs/metrics): taken by a thread's first add to a
// counter, at thread exit and by counter reads, so it sits above every
// lock a counter is touched under; it acquires nothing while held.
inline constexpr int kCounterShards = 800;
inline constexpr int kLogger = 900;
}  // namespace lock_rank

namespace detail {
/// Per-thread held-lock stack maintenance. `lock_order_push` aborts (after
/// printing both lock names and ranks to stderr) when `rank` is not
/// strictly greater than the rank of the most recently acquired held lock.
void lock_order_push(const void* mu, const char* name, int rank);
void lock_order_pop(const void* mu);
}  // namespace detail

/// Exclusive mutex with a name and a hierarchy rank.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name, int rank) : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_push(this, name_, rank_);
#endif
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_pop(this);
#endif
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const char* name_;
  const int rank_;
};

/// Reader/writer mutex with the same naming, ranking, and annotation
/// discipline. Shared acquisitions obey the same rank order as exclusive
/// ones (a reader can still deadlock a writer across subsystems).
class CAPABILITY("mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name, int rank)
      : name_(name), rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_push(this, name_, rank_);
#endif
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_pop(this);
#endif
  }

  void lock_shared() ACQUIRE_SHARED() {
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_push(this, name_, rank_);
#endif
    mu_.lock_shared();
  }

  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
#if STELLARIS_LOCK_ORDER_CHECK
    detail::lock_order_pop(this);
#endif
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* name_;
  const int rank_;
};

/// RAII exclusive lock (std::lock_guard/std::unique_lock replacement).
/// Supports early release for the unlock-then-log pattern.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before scope end (idempotence is NOT provided: call once).
  void unlock() RELEASE() {
    mu_->unlock();
    held_ = false;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

/// RAII exclusive lock over a SharedMutex (registration / mutation paths).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~WriterLock() RELEASE() { mu_->unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock over a SharedMutex (concurrent read/export paths).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~ReaderLock() RELEASE() { mu_->unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable paired with Mutex. The wait overloads take the Mutex
/// itself (not a lock object) so they can carry a REQUIRES(mu) contract
/// the analysis understands; internally std::condition_variable_any drives
/// Mutex::lock/unlock, which keeps the lock-order checker's held-stack
/// exact across the wait.
///
/// Waits are deliberately predicate-free: callers loop on a
/// REQUIRES-annotated helper instead of passing a lambda, because Clang's
/// analysis cannot see through predicate closures (see DESIGN.md §11).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep until notified, re-acquire `mu`.
  /// Subject to spurious wakeups — always call in a predicate loop.
  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace stellaris
