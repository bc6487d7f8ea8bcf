#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "util/error.hpp"

namespace stellaris::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(2.0, [&] {
    engine.schedule_after(0.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_after(1.0, recurse);
  };
  engine.schedule_at(0.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(4.0, [] {}), Error);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), Error);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  engine.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  engine.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(7.0);
  EXPECT_DOUBLE_EQ(engine.now(), 7.0);
}

TEST(Engine, CancelledEventIsDiscardedWithoutAdvancingClock) {
  Engine engine;
  bool ran = false;
  engine.schedule_at(1.0, [] {});
  auto handle = engine.schedule_cancellable_at(5.0, [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(handle));
  engine.run();
  EXPECT_FALSE(ran);
  // The dead timer at t=5 must not stretch the measured makespan.
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(Engine, CancellableEventRunsWhenNotCancelled) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_cancellable_after(2.5, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Engine, CancellationMidRunSkipsTheEvent) {
  Engine engine;
  std::vector<int> order;
  auto handle =
      engine.schedule_cancellable_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] {
    order.push_back(1);
    engine.cancel(handle);  // cancel the later event from an earlier one
  });
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Engine, DeterministicInterleaving) {
  // Two "processes" ping-ponging at equal times resolve identically on
  // every run — the property the staleness measurements rely on.
  auto run_once = [] {
    Engine engine;
    std::vector<int> trace;
    for (int i = 0; i < 3; ++i) {
      engine.schedule_at(1.0, [&trace] { trace.push_back(0); });
      engine.schedule_at(1.0, [&trace] { trace.push_back(1); });
    }
    engine.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Counts its own constructions and destructions, so a test can see that
/// every copy or move the engine made was destroyed exactly once.
struct Probe {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  Probe() { ++constructed; }
  Probe(const Probe&) { ++constructed; }
  Probe(Probe&&) noexcept { ++constructed; }
  ~Probe() { ++destroyed; }
  static int live() { return constructed - destroyed; }
};

TEST(Engine, EveryCallableIsDestroyedExactlyOnce) {
  Probe::constructed = Probe::destroyed = 0;
  int fired = 0;
  {
    Engine engine;
    engine.schedule_at(1.0, [p = Probe(), &fired] { ++fired; });
    auto cancelled =
        engine.schedule_cancellable_at(2.0, [p = Probe(), &fired] { ++fired; });
    engine.schedule_at(9.0, [p = Probe(), &fired] { ++fired; });
    EXPECT_EQ(Probe::live(), 3);
    // Cancelling destroys the callable at once, not when it surfaces.
    EXPECT_TRUE(engine.cancel(cancelled));
    EXPECT_EQ(Probe::live(), 2);
    engine.run_until(5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(Probe::live(), 1);  // the fired one is gone; t=9 is pending
  }
  // The engine's destructor destroyed the event still pending at t=9.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(Probe::live(), 0);
}

TEST(Engine, ACallableThatThrowsIsStillDestroyed) {
  Probe::constructed = Probe::destroyed = 0;
  Engine engine;
  engine.schedule_at(1.0, [p = Probe()] { throw Error("boom"); });
  EXPECT_THROW(engine.step(), Error);
  EXPECT_EQ(Probe::live(), 0);
  engine.schedule_at(2.0, [] {});  // the slot is free for reuse
  EXPECT_TRUE(engine.step());
}

TEST(Engine, MoveOnlyCapturesWork) {
  Engine engine;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  engine.schedule_at(1.0, [v = std::move(value), &seen] { seen = *v; });
  auto owned = std::make_unique<int>(11);
  auto handle = engine.schedule_cancellable_after(
      2.0, [v = std::move(owned), &seen] { seen += *v; });
  engine.run();
  EXPECT_EQ(seen, 18);
  EXPECT_FALSE(engine.cancel(handle));  // it already ran
}

TEST(Engine, StaleTokenCannotCancelTheSlotsNextEvent) {
  Engine engine;
  std::vector<int> order;
  auto first = engine.schedule_cancellable_at(1.0, [&] { order.push_back(1); });
  engine.run();
  // The freed slot is reused by the next event.
  auto second =
      engine.schedule_cancellable_at(2.0, [&] { order.push_back(2); });
  ASSERT_EQ(first.slot, second.slot);
  EXPECT_NE(first.generation, second.generation);
  EXPECT_FALSE(engine.cancel(first));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // The same holds for a token whose event was cancelled and discarded.
  auto third = engine.schedule_cancellable_at(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(engine.cancel(third));
  EXPECT_FALSE(engine.cancel(third));  // cancelling twice is a no-op
  engine.run();
  auto fourth = engine.schedule_cancellable_at(4.0, [&] { order.push_back(4); });
  ASSERT_EQ(third.slot, fourth.slot);
  EXPECT_FALSE(engine.cancel(third));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_FALSE(engine.cancel(Engine::CancelHandle{}));
}

TEST(Engine, ARunningEventCannotCancelItself) {
  Engine engine;
  Engine::CancelHandle self;
  bool cancelled = true;
  self = engine.schedule_cancellable_at(1.0, [&] {
    cancelled = engine.cancel(self);
  });
  engine.run();
  EXPECT_FALSE(cancelled);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(Engine, CancelledEventsLeaveRunUntilUnchanged) {
  {
    // A cancelled event past the deadline is discarded; with the queue then
    // empty, the clock idles forward to the deadline.
    Engine engine;
    engine.schedule_at(1.0, [] {});
    auto dead = engine.schedule_cancellable_at(5.0, [] {});
    engine.cancel(dead);
    engine.run_until(3.0);
    EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  }
  {
    // A live event behind it keeps the clock at the last event that ran.
    Engine engine;
    engine.schedule_at(1.0, [] {});
    auto dead = engine.schedule_cancellable_at(2.0, [] {});
    engine.schedule_at(6.0, [] {});
    engine.cancel(dead);
    engine.run_until(3.0);
    EXPECT_DOUBLE_EQ(engine.now(), 1.0);
    engine.run();
    EXPECT_DOUBLE_EQ(engine.now(), 6.0);
  }
  {
    // run() past a cancelled tail leaves now() at the last live event.
    Engine engine;
    engine.schedule_at(1.0, [] {});
    auto dead = engine.schedule_cancellable_at(8.0, [] {});
    engine.cancel(dead);
    engine.run();
    EXPECT_DOUBLE_EQ(engine.now(), 1.0);
    EXPECT_FALSE(engine.step());
  }
}

TEST(Engine, EventsScheduledByARunningEventDoNotMoveIt) {
  // The running callable's storage must survive the pool growing under it.
  Engine engine;
  std::vector<int> order;
  std::vector<int> payload(64, 3);
  engine.schedule_at(1.0, [&engine, &order, payload] {
    for (int i = 0; i < 1000; ++i)
      engine.schedule_after(1.0, [&order, i] { order.push_back(i); });
    order.push_back(payload.back() + static_cast<int>(payload.size()));
  });
  engine.run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), 67);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i + 1], i);
}

}  // namespace
}  // namespace stellaris::sim
