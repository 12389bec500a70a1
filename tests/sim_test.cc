#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace rainbow {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.PopNext().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreakIsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.PopNext().cb();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  auto id = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(id);
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(EventQueueTest, KeyOrdersWithinSameTime) {
  // (time, key, seq): explicit keys order same-tick events regardless
  // of insertion order; key 0 (plain Schedule) fires first; equal keys
  // stay FIFO.
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, 7, [&] { fired.push_back(7); });
  q.Schedule(10, 3, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(0); });
  q.Schedule(10, 3, [&] { fired.push_back(4); });
  q.Schedule(5, 9, [&] { fired.push_back(-1); });  // earlier time wins
  while (!q.empty()) q.PopNext().cb();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 3, 4, 7}));
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim;
  SimTime seen = -1;
  sim.After(100, [&] { seen = sim.Now(); });
  EXPECT_EQ(sim.Now(), 0);
  sim.RunToQuiescence();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.After(10, [&] { ++count; });
  sim.After(20, [&] { ++count; });
  sim.After(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunToQuiescence();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.After(10, [&] {
    times.push_back(sim.Now());
    sim.After(5, [&] { times.push_back(sim.Now()); });
  });
  sim.RunToQuiescence();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, TimerHandleCancel) {
  Simulator sim;
  bool fired = false;
  TimerHandle h = sim.After(10, [&] { fired = true; });
  EXPECT_TRUE(h.Cancel());
  sim.RunToQuiescence();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, DefaultTimerHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.Cancel());
}

TEST(SimulatorTest, QuiescenceCap) {
  Simulator sim;
  // Self-perpetuating event chain: the cap must stop it.
  std::function<void()> loop = [&] { sim.After(1, loop); };
  sim.After(1, loop);
  size_t executed = sim.RunToQuiescence(100);
  EXPECT_EQ(executed, 100u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithEventsRemaining) {
  // Pin: RunUntil(t) lands the clock exactly on t even when later
  // events remain pending (they stay queued for the next run).
  Simulator sim;
  int count = 0;
  sim.After(10, [&] { ++count; });
  sim.After(100, [&] { ++count; });
  sim.RunUntil(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_FALSE(sim.idle());
  sim.RunToQuiescence();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 100);
}

}  // namespace
}  // namespace rainbow
