// Deterministic discrete-event simulation engine.
//
// The benchmark harness replays the paper's cluster (GPUs, actors,
// serverless invocations, cache round-trips) in *virtual time*: every
// latency is an event scheduled on this engine, so an entire training run
// is exactly reproducible regardless of host core count. Events at equal
// timestamps execute in schedule order (a monotone sequence number breaks
// ties), which pins the interleaving of concurrent learner completions —
// exactly the source of staleness the paper studies.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace stellaris::sim {

/// Virtual time in seconds.
using SimTime = double;

class Driver;

class Engine {
 public:
  /// Cancellation handle for events scheduled via the *_cancellable
  /// variants: setting `*handle = true` before the event's timestamp makes
  /// the engine discard it WITHOUT advancing virtual time to it. This is
  /// how periodic timers (fault reclamation arrivals, retry deadlines) are
  /// torn down when a run finishes — a dead timer far in the future must
  /// not stretch the run's measured makespan. Atomic so a cancellation can
  /// be requested from outside the engine thread when a concurrent
  /// execution driver is active (sim/driver.hpp).
  using CancelHandle = std::shared_ptr<std::atomic<bool>>;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` `delay` seconds from now.
  void schedule_after(SimTime delay, std::function<void()> fn);

  /// Like schedule_at, but returns a handle that cancels the event.
  CancelHandle schedule_cancellable_at(SimTime t, std::function<void()> fn);
  CancelHandle schedule_cancellable_after(SimTime delay,
                                          std::function<void()> fn);

  /// Execute the earliest live event (cancelled events are discarded
  /// silently, without advancing the clock); returns false if none remain.
  bool step();

  /// Run until the event queue is empty.
  void run();

  /// Run until the queue is empty or virtual time would exceed `deadline`.
  void run_until(SimTime deadline);

  /// Install the execution driver invocation bodies run on (non-owning;
  /// nullptr restores the process-wide inline fallback). The engine itself
  /// never calls the driver — it only carries the reference so subsystems
  /// reached through the engine (the serverless platform, the trainer's
  /// body factories) agree on one driver per run.
  void set_driver(Driver* driver) { driver_ = driver; }
  Driver& driver() const;

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    std::function<void()> fn;
    CancelHandle cancelled;  ///< null for ordinary (non-cancellable) events
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  Driver* driver_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace stellaris::sim
