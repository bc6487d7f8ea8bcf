#include "sim/engine.hpp"

#include <gtest/gtest.h>

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
  *handle = true;
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
    *handle = true;  // cancel the later event from an earlier one
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

}  // namespace
}  // namespace stellaris::sim
