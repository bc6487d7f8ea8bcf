#include "sim/engine.hpp"

#include "sim/driver.hpp"
#include "util/error.hpp"

namespace stellaris::sim {

Driver& Engine::driver() const {
  return driver_ ? *driver_ : inline_driver();
}

void Engine::schedule_at(SimTime t, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                                << " now="
                                                                << now_);
  queue_.push(Event{t, next_seq_++, std::move(fn), nullptr});
}

void Engine::schedule_after(SimTime delay, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  schedule_at(now_ + delay, std::move(fn));
}

Engine::CancelHandle Engine::schedule_cancellable_at(SimTime t,
                                                     std::function<void()> fn) {
  STELLARIS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                                << " now="
                                                                << now_);
  auto handle = std::make_shared<std::atomic<bool>>(false);
  queue_.push(Event{t, next_seq_++, std::move(fn), handle});
  return handle;
}

Engine::CancelHandle Engine::schedule_cancellable_after(
    SimTime delay, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_cancellable_at(now_ + delay, std::move(fn));
}

bool Engine::step() {
  while (!queue_.empty()) {
    // priority_queue::top() is const; move out via const_cast is UB-adjacent,
    // so copy the function handle (cheap: shared state inside std::function).
    Event ev = queue_.top();
    queue_.pop();
    // Cancelled events are dropped without touching the clock: a dead timer
    // must leave no trace in `now()`.
    if (ev.cancelled && *ev.cancelled) continue;
    now_ = ev.t;
    ev.fn();
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
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (top.cancelled && *top.cancelled) {
      queue_.pop();
      continue;
    }
    if (top.t > deadline) break;
    step();
  }
  if (now_ < deadline && queue_.empty()) now_ = deadline;
}

}  // namespace stellaris::sim
