// DES core tests: ordering, FIFO tie-breaking, nested scheduling, and the
// allocation-free engine's arena/wheel behavior under adversarial schedules.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace psp {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulation, SimultaneousEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// Self-rescheduling handler: captures are a plain struct (the engine stores
// handlers inline, so they must be trivially copyable — no std::function).
struct Chain {
  Simulation* sim;
  int* fired;

  void operator()() const {
    ++*fired;
    if (*fired < 100) {
      sim->ScheduleAfter(7, Chain{sim, fired});
    }
  }
};

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(0, Chain{&sim, &fired});
  sim.RunToCompletion();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.Now(), 99 * 7);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesTimeWhenIdle) {
  Simulation sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.Now(), 500);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  Nanos seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { seen = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 150);
}

// --- Adversarial schedules ---------------------------------------------------

TEST(Simulation, HandlerSchedulingAtNowRunsInSameTick) {
  // A handler that schedules at Now() (zero delay) must see its event run
  // before time advances, after all earlier-scheduled same-tick events.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.ScheduleAt(sim.Now(), [&] { order.push_back(3); });
  });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.ScheduleAt(11, [&] { order.push_back(4); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulation, RunUntilIncludesEventsAtExactlyUntil) {
  // Boundary contract: an event at exactly `until` runs, including one a
  // handler schedules *at* the boundary mid-run; one at until+1 does not.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(50, [&] {
    order.push_back(1);
    sim.ScheduleAt(100, [&] { order.push_back(3); });
  });
  sim.ScheduleAt(100, [&] { order.push_back(2); });
  sim.ScheduleAt(101, [&] { order.push_back(4); });
  sim.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(100);  // idempotent: nothing else is due
  EXPECT_EQ(order.size(), 3u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulation, SameTickFifoSurvivesArenaReuse) {
  // Fill and drain the engine repeatedly so arena slots recycle through the
  // free list (in LIFO order), then verify same-tick FIFO still follows the
  // global schedule order, not slot order.
  Simulation sim;
  for (int round = 0; round < 5; ++round) {
    std::vector<int> order;
    const Nanos t = 1000 * (round + 1);
    // Interleave two ticks scheduled out of time order.
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAt(t + 1, [&order, i] { order.push_back(100 + i); });
      sim.ScheduleAt(t, [&order, i] { order.push_back(i); });
    }
    sim.RunToCompletion();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(order[i], i) << "round " << round;
      EXPECT_EQ(order[8 + i], 100 + i) << "round " << round;
    }
  }
}

TEST(Simulation, SteadyStateDoesNotGrowArena) {
  // After a warmup at peak occupancy, further churn at the same occupancy
  // must recycle slots through the free list without new allocations.
  constexpr int kPending = 256;
  Simulation engine;
  int fired = 0;
  for (int i = 0; i < kPending; ++i) {
    engine.ScheduleAt(10 + i, [&engine, &fired] {
      ++fired;
      engine.ScheduleAfter(kPending, [&fired] { ++fired; });
    });
  }
  engine.RunUntil(10 + kPending - 1);  // all initial events ran, kPending pending
  const uint64_t allocs_after_warmup = engine.arena_allocations();
  engine.RunToCompletion();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kPending; ++i) {
      engine.ScheduleAfter(1 + i, [&fired] { ++fired; });
    }
    engine.RunToCompletion();
  }
  EXPECT_EQ(engine.arena_allocations(), allocs_after_warmup);
  EXPECT_EQ(fired, 2 * kPending + 3 * kPending);
}

TEST(Simulation, ReservePreallocatesArena) {
  Simulation sim;
  sim.Reserve(512);
  const uint64_t allocs = sim.arena_allocations();
  int fired = 0;
  for (int i = 0; i < 512; ++i) {
    sim.ScheduleAt(i, [&fired] { ++fired; });
  }
  sim.RunToCompletion();
  EXPECT_EQ(fired, 512);
  EXPECT_EQ(sim.arena_allocations(), allocs);
}

TEST(Simulation, InterleavedRunUntilPreservesOrderAcrossReuse) {
  // Alternate schedule/run phases with varying occupancy; every event records
  // (time, global sequence) and the observed execution order must be the
  // lexicographic (time, seq) order.
  Simulation sim;
  struct Obs {
    Nanos time;
    int seq;
  };
  std::vector<Obs> observed;
  int seq = 0;
  auto record = [&observed, &sim](int s) {
    observed.push_back(Obs{sim.Now(), s});
  };
  for (int phase = 0; phase < 4; ++phase) {
    const Nanos base = sim.Now();
    for (int i = 0; i < 16; ++i) {
      const int s = seq++;
      // Mix of duplicate and distinct times, deliberately non-monotone.
      const Nanos t = base + ((i * 7) % 5);
      sim.ScheduleAt(t, [&record, s] { record(s); });
    }
    sim.RunUntil(base + 2);  // split each batch across two run calls
    sim.RunUntil(base + 10);
  }
  ASSERT_EQ(observed.size(), 64u);
  for (size_t i = 1; i < observed.size(); ++i) {
    const bool ordered =
        observed[i - 1].time < observed[i].time ||
        (observed[i - 1].time == observed[i].time &&
         observed[i - 1].seq < observed[i].seq);
    EXPECT_TRUE(ordered) << "event " << i << " out of (time, seq) order";
  }
}

}  // namespace
}  // namespace psp
