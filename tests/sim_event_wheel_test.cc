// Adversarial tests for the hierarchical timer wheel (src/sim/event_queue.h):
// far-future horizons that land in the top levels, multi-level cascade
// correctness, the same-tick FIFO golden, a large randomized differential
// against an in-test sorting oracle, and the bounded-peek regression
// (scheduling into the gap RunUntil stopped in must not land behind the
// wheel).
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace psp {
namespace {

// Records its id into a shared order log — the probe used by every test to
// observe the exact execution sequence.
struct Rec {
  std::vector<uint64_t>* out;
  uint64_t id;
  void operator()() const { out->push_back(id); }
};

TEST(WheelBackend, FarFutureHorizonsExecuteInOrder) {
  // Times spanning every wheel level, including ones only the top levels can
  // index (there is no overflow list: 8 one-byte levels cover all 64 bits).
  const std::vector<Nanos> times = {
      (Nanos{1} << 62),      1,    (Nanos{1} << 50), 255,  (Nanos{1} << 40),
      256,                   0,    (Nanos{1} << 30), 257,  65536,
      (Nanos{1} << 20) + 17, 4096, (Nanos{1} << 45), 2,
  };
  Simulation sim;
  std::vector<uint64_t> order;
  for (size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleAt(times[i], Rec{&order, i});
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), times.size());
  std::vector<Nanos> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(times[order[i]], sorted[i]) << "position " << i;
  }
  EXPECT_EQ(sim.Now(), Nanos{1} << 62);
  // The far events started at high levels, so reaching them must cascade.
  EXPECT_GT(sim.wheel_cascades(), 0u);
  EXPECT_GT(sim.wheel_rollovers(), 0u);
}

TEST(WheelBackend, MultiLevelCascadePreservesTotalOrder) {
  // A few thousand events spread over a ~2^26-tick horizon: every one is
  // inserted at level 2-3 and must pour down through the intermediate levels
  // before it can run.
  constexpr uint64_t kEvents = 5000;
  Simulation sim;
  std::vector<uint64_t> order;
  std::vector<Nanos> times(kEvents);
  for (uint64_t i = 0; i < kEvents; ++i) {
    times[i] = static_cast<Nanos>((i * 2654435761u) % (uint64_t{1} << 26));
    sim.ScheduleAt(times[i], Rec{&order, i});
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), kEvents);
  for (size_t i = 1; i < order.size(); ++i) {
    ASSERT_LE(times[order[i - 1]], times[order[i]]) << "position " << i;
  }
  EXPECT_EQ(sim.executed_events(), kEvents);
  EXPECT_GT(sim.wheel_cascades(), kEvents / 2);  // deep inserts all cascade
}

// The FIFO golden: three ticks' handlers scheduled interleaved must drain
// each tick in schedule order — the exact sequence the determinism goldens
// (p99.9 replays, fleet byte-equality) depend on.
TEST(WheelBackend, SameTickFifoGolden) {
  Simulation sim;
  std::vector<uint64_t> order;
  constexpr uint64_t kPerTick = 100;
  const Nanos ticks[3] = {40, 10, 20};
  for (uint64_t i = 0; i < kPerTick; ++i) {
    for (uint64_t t = 0; t < 3; ++t) {
      sim.ScheduleAt(ticks[t], Rec{&order, t * kPerTick + i});
    }
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), 3 * kPerTick);
  // Drain order: tick 10 (ids 100..199), tick 20 (200..299), tick 40 (0..99),
  // each in schedule (id) order.
  const uint64_t tick_base[3] = {1 * kPerTick, 2 * kPerTick, 0 * kPerTick};
  for (uint64_t t = 0; t < 3; ++t) {
    for (uint64_t i = 0; i < kPerTick; ++i) {
      ASSERT_EQ(order[t * kPerTick + i], tick_base[t] + i)
          << "tick group " << t << " position " << i;
    }
  }
}

// Randomized differential: 1e6 mixed schedules — heavy same-tick ties,
// short-horizon churn, mid-range spreads, and deep-cascade far futures,
// interleaved with partial RunUntil drains — must execute in the order a
// stable sort by (time, schedule index) predicts. The oracle is exact
// because nothing is ever scheduled before Now(): an event runs once every
// earlier (time, index) pair has, whichever drain it lands in.
TEST(WheelBackend, RandomizedDifferentialMatchesSortOracle) {
  constexpr uint64_t kBatches = 100;
  constexpr uint64_t kPerBatch = 10000;  // 1e6 events total
  Simulation sim;
  std::vector<uint64_t> order;
  std::vector<Nanos> times;
  order.reserve(kBatches * kPerBatch);
  times.reserve(kBatches * kPerBatch);
  uint64_t lcg = 0x853c49e6748fea9bull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg;
  };
  for (uint64_t b = 0; b < kBatches; ++b) {
    const Nanos base = sim.Now();
    for (uint64_t i = 0; i < kPerBatch; ++i) {
      const uint64_t r = next();
      const uint64_t pick = r & 3;
      Nanos t = base;
      if (pick == 0) {
        t += static_cast<Nanos>((r >> 8) % 16);  // heavy FIFO ties
      } else if (pick == 1) {
        t += static_cast<Nanos>((r >> 8) % 4096);  // levels 0-1
      } else if (pick == 2) {
        t += static_cast<Nanos>((r >> 8) % (uint64_t{1} << 20));  // level 2-3
      } else {
        t += static_cast<Nanos>((r >> 8) % (uint64_t{1} << 34));  // deep
      }
      sim.ScheduleAt(t, Rec{&order, times.size()});
      times.push_back(t);
    }
    // Partial drain: far events stay pending across batches, so later
    // batches schedule *around* older high-level entries.
    sim.RunUntil(base + static_cast<Nanos>(next() % (uint64_t{1} << 22)));
  }
  sim.RunToCompletion();

  std::vector<uint64_t> oracle(times.size());
  for (uint64_t id = 0; id < oracle.size(); ++id) {
    oracle[id] = id;
  }
  std::stable_sort(oracle.begin(), oracle.end(),
                   [&times](uint64_t a, uint64_t b) {
                     return times[a] < times[b];
                   });
  ASSERT_EQ(order.size(), 1000000u);
  // Element-wise loop instead of EXPECT_EQ on the vectors: on mismatch this
  // reports the first diverging position, not a 1e6-element dump.
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], oracle[i]) << "first divergence at " << i;
  }
}

// Regression: RunUntil's peek must not advance the wheel past `until`. If it
// did, an event scheduled afterwards into [until, next-pending) would land
// behind the wheel and be lost or misordered.
TEST(WheelBackend, ScheduleIntoRunUntilGapStaysOrdered) {
  Simulation sim;
  std::vector<uint64_t> order;
  sim.ScheduleAt(1000, Rec{&order, 0});
  sim.RunUntil(100);  // peeks the 1000-tick event, runs nothing
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_TRUE(order.empty());
  sim.ScheduleAt(500, Rec{&order, 1});  // into the gap the peek spanned
  sim.ScheduleAt(200, Rec{&order, 2});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_EQ(sim.Now(), 1000);
}

// Same regression across a level boundary: the pending event sits in a
// higher level, so the bounded peek must also stop mid-cascade.
TEST(WheelBackend, ScheduleIntoGapAcrossLevelBoundary) {
  Simulation sim;
  std::vector<uint64_t> order;
  sim.ScheduleAt(70000, Rec{&order, 0});  // level 2 relative to tick 0
  sim.RunUntil(100);
  sim.ScheduleAt(300, Rec{&order, 1});
  sim.RunUntil(400);
  EXPECT_EQ(order, (std::vector<uint64_t>{1}));
  sim.ScheduleAt(65536, Rec{&order, 2});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 0}));
}

// Self-rescheduling handler with a far-future stride: keeps the wheel
// cascading in steady state.
struct FarChain {
  Simulation* sim;
  uint64_t* fired;
  Nanos stride;
  void operator()() const {
    ++*fired;
    sim->ScheduleAfter(stride, *this);
  }
};

TEST(WheelBackend, SteadyStateCascadesDoNotAllocate) {
  Simulation sim;
  uint64_t fired = 0;
  constexpr uint64_t kPending = 64;
  sim.Reserve(kPending + 8);
  for (uint64_t i = 0; i < kPending; ++i) {
    // Strides up to ~2^24 ticks: every re-arm lands 2-3 levels up and must
    // cascade back down before firing.
    sim.ScheduleAt(static_cast<Nanos>(1 + i),
                   FarChain{&sim, &fired, static_cast<Nanos>(
                                              (uint64_t{1} << 16) +
                                              i * 257 * 1024)});
  }
  sim.RunUntil(Nanos{1} << 22);  // warmup: reach peak arena footprint
  const uint64_t allocs_before = sim.arena_allocations();
  const uint64_t cascades_before = sim.wheel_cascades();
  sim.RunUntil(Nanos{1} << 26);
  EXPECT_EQ(sim.arena_allocations(), allocs_before)
      << "wheel path must be allocation-free in steady state";
  EXPECT_GT(sim.wheel_cascades(), cascades_before);
  EXPECT_GT(fired, kPending);
}

}  // namespace
}  // namespace psp
