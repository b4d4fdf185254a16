// Tests for the event-core building blocks: EventFn small-buffer semantics
// and the tiered EventQueue's (time, seq) pop order — including a
// randomized interleaving checked against a reference model, which is what
// exercises the heap/run/staging promotion paths.
#include "l3/sim/event.h"

#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace l3::sim {
namespace {

struct SmallCapture {
  int* target;
  std::uint64_t a;
  std::uint64_t b;
  void operator()() { ++*target; }
};
static_assert(sizeof(SmallCapture) <= EventFn::kInlineCapacity);

struct BigCapture {
  int* target;
  double pad[8];
  void operator()() { *target += 2; }
};
static_assert(sizeof(BigCapture) > EventFn::kInlineCapacity);

TEST(EventFn, SmallCapturesAreStoredInline) {
  int fired = 0;
  EventFn fn(SmallCapture{&fired, 1, 2});
  EXPECT_TRUE(fn.stored_inline());
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, OversizedCapturesFallBackToHeap) {
  int fired = 0;
  EventFn fn(BigCapture{&fired, {}});
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stored_inline());
  fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventFn, FitsInlinePredicateMatchesStorage) {
  EXPECT_TRUE(EventFn::fits_inline<SmallCapture>());
  EXPECT_FALSE(EventFn::fits_inline<BigCapture>());
}

TEST(EventFn, DefaultConstructedIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stored_inline());
}

TEST(EventFn, MoveTransfersCallableAndEmptiesSource) {
  int fired = 0;
  EventFn a(SmallCapture{&fired, 0, 0});
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, MoveAssignDestroysPreviousCallable) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  EventFn fn([token] { (void)token; });
  token.reset();
  EXPECT_FALSE(alive.expired());
  int fired = 0;
  fn = EventFn(SmallCapture{&fired, 0, 0});
  EXPECT_TRUE(alive.expired());
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, NonTrivialCaptureSurvivesMoveChain) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  EventFn a([token] { ++*token; });
  token.reset();
  EventFn b(std::move(a));
  EventFn c(std::move(b));
  c();
  ASSERT_FALSE(alive.expired());
  EXPECT_EQ(*alive.lock(), 1);
  c.reset();
  EXPECT_TRUE(alive.expired());
}

TEST(EventFn, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  {
    EventFn fn([token] { (void)token; });
    token.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

constexpr SimTime kNoEnd = std::numeric_limits<SimTime>::infinity();

/// Pops the earliest event (a dispatch batch of one), runs it and returns
/// its timestamp.
SimTime pop_and_run(EventQueue& q) {
  SimTime popped = -1.0;
  EXPECT_EQ(q.dispatch_batch(kNoEnd, 1,
                             [&popped](SimTime t, EventFn& fn) {
                               popped = t;
                               fn();
                               return true;
                             }),
            1u);
  return popped;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, 0, [] {});
  q.push(1.0, 1, [] {});
  q.push(2.0, 2, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(pop_and_run(q), 1.0);
  EXPECT_EQ(pop_and_run(q), 2.0);
  EXPECT_EQ(pop_and_run(q), 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopFifoBySeq) {
  EventQueue q;
  std::uint64_t ran = 0;
  for (std::uint64_t s = 0; s < 64; ++s) {
    q.push(1.0, s, [&ran, s] { ran = s; });
  }
  for (std::uint64_t s = 0; s < 64; ++s) {
    EXPECT_EQ(pop_and_run(q), 1.0);
    EXPECT_EQ(ran, s);
  }
}

TEST(EventQueue, PopMovesCallableOut) {
  // The sink may take the callable out of its pool slot; the moved-out
  // callable stays valid after the slot is reclaimed and reused.
  EventQueue q;
  int fired = 0;
  q.push(1.0, 0, SmallCapture{&fired, 0, 0});
  EventFn taken;
  q.dispatch_batch(kNoEnd, 1, [&taken](SimTime, EventFn& fn) {
    taken = std::move(fn);
    return true;
  });
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
  q.push(2.0, 1, [] {});  // reuses the reclaimed slot
  taken();
  EXPECT_EQ(fired, 1);
}

// Randomized interleaving against a reference model. The push bursts and
// full drains force events through every tier of the queue — the direct
// heap path (times below the horizon), the staging buffer, staging→run
// flushes, and batched run→heap refills.
TEST(EventQueue, RandomInterleavingMatchesReferenceModel) {
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> jitter(0.0, 10.0);

  EventQueue q;
  std::set<std::pair<double, std::uint64_t>> reference;
  std::uint64_t next_seq = 0;
  std::uint64_t invoked_seq = 0;
  double cursor = 0.0;

  const auto push_one = [&](double time) {
    const std::uint64_t seq = next_seq++;
    q.push(time, seq, [&invoked_seq, seq] { invoked_seq = seq; });
    reference.emplace(time, seq);
  };
  const auto pop_and_check = [&] {
    ASSERT_FALSE(reference.empty());
    const auto expected = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(q.min_time(), expected.first);
    EXPECT_EQ(pop_and_run(q), expected.first);
    EXPECT_EQ(invoked_seq, expected.second);
    cursor = expected.first;
  };

  for (int phase = 0; phase < 4; ++phase) {
    // Burst: plenty of far-future events so refills and flushes happen.
    for (int i = 0; i < 3000; ++i) push_one(cursor + jitter(rng));
    // Interleave pushes (some at/near the current minimum, some far out,
    // some tied — seq must break the tie FIFO) with pops.
    for (int i = 0; i < 6000; ++i) {
      const int action = static_cast<int>(rng() % 4);
      if (action == 0) {
        push_one(cursor + jitter(rng));
      } else if (action == 1 && !reference.empty()) {
        push_one(reference.begin()->first);  // tie with the current min
      } else if (!reference.empty()) {
        pop_and_check();
      }
    }
    // Drain so the next phase restarts the horizon from an empty queue.
    while (!reference.empty()) pop_and_check();
    EXPECT_TRUE(q.empty());
  }
  EXPECT_EQ(q.size(), 0u);
}

// The same property through the public Simulator API, with periodic tasks
// cancelled at random: no callback may observe a clock that moved
// backwards, and no cancelled task may fire after its cancellation time.
TEST(Simulator, RandomScheduleAndCancelKeepsClockMonotonic) {
  std::mt19937 rng(97u);
  std::uniform_real_distribution<double> delay(0.0, 5.0);

  Simulator sim;
  double last_seen = 0.0;
  std::uint64_t fired = 0;
  struct Task {
    PeriodicHandle handle;
    double cancelled_at = -1.0;
  };
  std::vector<Task> tasks;
  auto observe = [&] {
    EXPECT_GE(sim.now(), last_seen);
    last_seen = sim.now();
    ++fired;
  };

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) sim.schedule_after(delay(rng), observe);
    Task task;
    task.handle = sim.schedule_every(0.25 + delay(rng) * 0.1, [&, idx = tasks.size()] {
      observe();
      ASSERT_LT(idx, tasks.size());
      EXPECT_LT(tasks[idx].cancelled_at, 0.0)
          << "cancelled task fired after cancellation";
    });
    tasks.push_back(std::move(task));
    if (!tasks.empty() && rng() % 2 == 0) {
      Task& victim = tasks[rng() % tasks.size()];
      if (victim.cancelled_at < 0.0) {
        victim.handle.cancel();
        victim.cancelled_at = sim.now();
      }
    }
    sim.run_for(1.0);
  }
  for (Task& task : tasks) task.handle.cancel();
  sim.run_for(10.0);
  EXPECT_GT(fired, 1000u);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace l3::sim
