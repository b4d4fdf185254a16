// Unit tests for the discrete-event simulation core.
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace l3::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimestampsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(5.5, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_EQ(seen, 5.5);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndKeepsLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(9.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { seen = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_EQ(seen, 5.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), l3::ContractViolation);
}

TEST(Simulator, ReentrantSchedulingFromEvent) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicTaskFiresAtInterval) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_every(5.0, [&] { times.push_back(sim.now()); });
  sim.run_until(21.0);
  ASSERT_EQ(times.size(), 5u);  // t = 0, 5, 10, 15, 20
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[4], 20.0);
}

TEST(Simulator, PeriodicTaskInitialDelay) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_every(5.0, [&] { times.push_back(sim.now()); }, 5.0);
  sim.run_until(12.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
}

TEST(Simulator, PeriodicTaskCancel) {
  Simulator sim;
  int count = 0;
  auto handle = sim.schedule_every(1.0, [&] { ++count; }, 1.0);
  sim.schedule_at(3.5, [&] { handle.cancel(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);  // t = 1, 2, 3
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, PeriodicTaskCancelFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicHandle handle;
  handle = sim.schedule_every(1.0, [&] {
    ++count;
    if (count == 2) handle.cancel();
  }, 1.0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ExecutedCountsAllEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run_until(100.0);
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepDrainMatchesRunUntil) {
  // step() and run_until() pop through the same EventQueue::dispatch_batch,
  // so one schedule — tied timestamps, a re-entrant push at the current
  // time and a periodic task — must fire in the same order, at the same
  // clock readings, either way.
  struct Fired {
    int id;
    SimTime at;
    bool operator==(const Fired&) const = default;
  };
  const auto build = [](Simulator& sim, std::vector<Fired>& log) {
    const auto note = [&sim, &log](int id) {
      log.push_back({id, sim.now()});
    };
    for (int i = 0; i < 3; ++i) sim.schedule_at(1.0, [note, i] { note(i); });
    sim.schedule_at(2.0, [&sim, note] {
      note(10);
      sim.schedule_at(sim.now(), [note] { note(11); });
    });
    sim.schedule_at(2.0, [note] { note(12); });
    PeriodicHandle tick = sim.schedule_every(0.5, [note] { note(20); });
    // Cancelled before its t=5 firing, which still pops as a no-op.
    sim.schedule_at(4.9, [tick]() mutable { tick.cancel(); });
    sim.schedule_at(5.0, [note] { note(30); });
  };

  Simulator stepped;
  std::vector<Fired> stepped_log;
  build(stepped, stepped_log);
  while (stepped.step()) {
  }

  Simulator ran;
  std::vector<Fired> ran_log;
  build(ran, ran_log);
  ran.run_until(5.0);

  // Ties run in scheduling order: a tick scheduled by the previous tick
  // runs after same-time events scheduled up front, and the re-entrant
  // push runs last at its timestamp.
  const std::vector<Fired> expected = {
      {20, 0.0}, {20, 0.5}, {0, 1.0},  {1, 1.0},  {2, 1.0},  {20, 1.0},
      {20, 1.5}, {10, 2.0}, {12, 2.0}, {20, 2.0}, {11, 2.0}, {20, 2.5},
      {20, 3.0}, {20, 3.5}, {20, 4.0}, {20, 4.5}, {30, 5.0}};
  EXPECT_EQ(stepped_log, expected);
  EXPECT_EQ(ran_log, expected);
  EXPECT_EQ(stepped.now(), 5.0);
  EXPECT_EQ(ran.now(), stepped.now());
  EXPECT_EQ(ran.executed(), stepped.executed());
  EXPECT_EQ(ran.pending(), 0u);
  EXPECT_EQ(stepped.pending(), 0u);
}

TEST(Simulator, PeriodicFiringsAreDriftFree) {
  // 0.1 is not exactly representable in binary; an accumulating
  // `t += interval` drifts off the n*interval grid after enough firings.
  // The nth firing must land at exactly first + n*interval.
  Simulator sim;
  std::vector<double> times;
  const double interval = 0.1;
  sim.schedule_every(interval, [&] { times.push_back(sim.now()); }, interval);
  sim.run_until(100.0);
  ASSERT_GE(times.size(), 990u);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(times[k], interval + static_cast<double>(k) * interval)
        << "firing " << k << " drifted";
  }
}

}  // namespace
}  // namespace l3::sim
