#include "sim/engine.hpp"

#include <algorithm>

#include "sim/driver.hpp"
#include "util/error.hpp"

namespace stellaris::sim {

namespace {

/// Heap order: the later (t, seq) sinks, so the heap's front is the
/// earliest event. seq is unique, so the order is total.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

}  // namespace

Engine::~Engine() {
  for (std::uint32_t s = 0; s < slots_; ++s) {
    Slot& slot = slot_at(s);
    if (slot.destroy) slot.destroy(slot.storage);
  }
}

Driver& Engine::driver() const {
  return driver_ ? *driver_ : inline_driver();
}

SimTime Engine::after(SimTime delay) const {
  STELLARIS_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return now_ + delay;
}

std::uint32_t Engine::acquire(SimTime t) {
  STELLARIS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                                << " now="
                                                                << now_);
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  STELLARIS_CHECK_MSG(slots_ < kNoSlot, "event pool exhausted");
  if (slots_ % kChunkSlots == 0)
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  return slots_++;
}

Engine::CancelHandle Engine::push(SimTime t, std::uint32_t s) {
  Slot& slot = slot_at(s);
  slot.state = SlotState::kPending;
  heap_.push_back(Entry{t, next_seq_++, s});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return CancelHandle{s, slot.generation};
}

void Engine::release(std::uint32_t s) {
  Slot& slot = slot_at(s);
  if (slot.destroy) slot.destroy(slot.storage);
  slot.invoke = nullptr;
  slot.destroy = nullptr;
  slot.state = SlotState::kFree;
  ++slot.generation;  // every token naming the old occupant goes stale
  free_.push_back(s);
}

Engine::Entry Engine::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Engine::cancel(CancelHandle handle) {
  if (!handle || handle.slot >= slots_) return false;
  Slot& slot = slot_at(handle.slot);
  if (slot.generation != handle.generation ||
      slot.state != SlotState::kPending)
    return false;
  // The heap record stays until it surfaces; the callable (and whatever it
  // captured) goes now.
  slot.destroy(slot.storage);
  slot.invoke = nullptr;
  slot.destroy = nullptr;
  slot.state = SlotState::kCancelled;
  return true;
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Entry e = pop();
    Slot& slot = slot_at(e.slot);
    // Cancelled events are dropped without touching the clock: a dead timer
    // must leave no trace in `now()`.
    if (slot.state == SlotState::kCancelled) {
      release(e.slot);
      continue;
    }
    now_ = e.t;
    slot.state = SlotState::kRunning;
    // The callable runs in place: chunk storage never moves, so events it
    // schedules cannot relocate it. Its slot is freed when it returns or
    // throws.
    struct Release {
      Engine* engine;
      std::uint32_t s;
      ~Release() { engine->release(s); }
    } release_after{this, e.slot};
    slot.invoke(slot.storage);
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

// analyze:test-only-ok tests drive never-ending event streams to a deadline
void Engine::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slot_at(top.slot).state == SlotState::kCancelled) {
      release(pop().slot);
      continue;
    }
    if (top.t > deadline) break;
    step();
  }
  if (now_ < deadline && heap_.empty()) now_ = deadline;
}

}  // namespace stellaris::sim
