// Deterministic discrete-event simulation engine.
//
// The benchmark harness replays the paper's cluster (GPUs, actors,
// serverless invocations, cache round-trips) in *virtual time*: every
// latency is an event scheduled on this engine, so an entire training run
// is exactly reproducible regardless of host core count. Events at equal
// timestamps execute in schedule order (a monotone sequence number breaks
// ties), which pins the interleaving of concurrent learner completions —
// exactly the source of staleness the paper studies.
//
// Events allocate nothing in steady state (DESIGN.md §14). The heap holds
// `{t, seq, slot}` records; each event's callable is constructed in place
// in a slot of a chunked pool, whose storage never moves, and runs there.
// A freed slot goes on a free list, so after warm-up the pool and the heap
// have reached the run's peak pending-event count and stop growing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace stellaris::sim {

/// Virtual time in seconds.
using SimTime = double;

class Driver;

class Engine {
 public:
  /// Largest capture an event callable may hold. A callable that needs more
  /// state captures a pointer to it.
  static constexpr std::size_t kEventCapture = 48;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Cancellation token for events scheduled via the *_cancellable
  /// variants: Engine::cancel(handle) before the event's timestamp makes
  /// the engine discard it WITHOUT advancing virtual time to it. This is
  /// how periodic timers (fault reclamation arrivals, retry deadlines) are
  /// torn down when a run finishes — a dead timer far in the future must
  /// not stretch the run's measured makespan. The token names a slot and
  /// the slot's generation at scheduling; the generation moves on when the
  /// slot is freed, so a stale token (its event fired or was cancelled,
  /// and the slot now holds another event) cancels nothing. Engine-thread
  /// only: bodies on a driver's workers never reach the engine (the
  /// driver-purity rule, DESIGN.md §16.3), so nothing cancels from
  /// another thread.
  struct CancelHandle {
    std::uint32_t slot = kNoSlot;
    std::uint32_t generation = 0;
    explicit operator bool() const { return slot != kNoSlot; }
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Destroys the callables of every event still pending.
  ~Engine();

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now). `fn` is any
  /// `void()` callable, move-only ones included, of at most kEventCapture
  /// bytes.
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    emplace(t, std::forward<F>(fn));
  }

  /// Schedule `fn` `delay` seconds from now.
  template <typename F>
  void schedule_after(SimTime delay, F&& fn) {
    emplace(after(delay), std::forward<F>(fn));
  }

  /// Like schedule_at, but returns a token that cancels the event.
  template <typename F>
  CancelHandle schedule_cancellable_at(SimTime t, F&& fn) {
    return emplace(t, std::forward<F>(fn));
  }
  template <typename F>
  CancelHandle schedule_cancellable_after(SimTime delay, F&& fn) {
    return emplace(after(delay), std::forward<F>(fn));
  }

  /// Cancel the event `handle` names, destroying its callable now. Returns
  /// false, and does nothing, when the event already ran, is running or
  /// was cancelled, or when `handle` is empty.
  bool cancel(CancelHandle handle);

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
  static constexpr std::size_t kChunkSlots = 256;

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled, kRunning };

  /// One event's callable, constructed in place in `storage`.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kEventCapture];
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    std::uint32_t generation = 0;
    SlotState state = SlotState::kFree;
  };

  /// A heap record: ordered by (t, seq); `slot` holds the callable.
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  template <typename F>
  CancelHandle emplace(SimTime t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kEventCapture,
                  "event capture exceeds Engine::kEventCapture; capture a "
                  "pointer to the state instead");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned event capture");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "an event is a void() callable");
    const std::uint32_t s = acquire(t);
    Slot& slot = slot_at(s);
    try {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
    } catch (...) {
      release(s);
      throw;
    }
    slot.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
    slot.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    return push(t, s);
  }

  SimTime after(SimTime delay) const;
  /// Check `t` and take a free slot for an event at `t`.
  std::uint32_t acquire(SimTime t);
  /// Mark the slot pending and push its heap record.
  CancelHandle push(SimTime t, std::uint32_t s);
  /// Destroy the slot's callable, if any, and return it to the free list.
  void release(std::uint32_t s);
  Slot& slot_at(std::uint32_t s) {
    return chunks_[s / kChunkSlots][s % kChunkSlots];
  }
  Entry pop();

  Driver* driver_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  ///< min-heap on (t, seq)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slots_ = 0;  ///< slots allocated across chunks_
};

}  // namespace stellaris::sim
