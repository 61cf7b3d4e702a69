// Adversarial tests for the hierarchical timer wheel (src/sim/event_queue.h):
// far-future horizons that land in the top levels, multi-level cascade
// correctness, the same-tick FIFO golden, a large randomized differential
// against an in-test sorting oracle, the bounded-peek regression (scheduling
// into the gap RunUntil stopped in must not land behind the wheel), the
// direct run of lone events against a (time, seq) priority-queue reference,
// and the cascades-per-event gate on a DES-shaped chain.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
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

// A single sparse chain keeps exactly one event pending, and every re-arm is
// at least 256 ticks out, so it lands above level 0 in a bucket of its own:
// each one must run straight from that bucket, with nothing poured down.
TEST(WheelBackend, LoneSparseChainRunsDirectly) {
  Simulation sim;
  uint64_t fired = 0;
  sim.ScheduleAt(1, FarChain{&sim, &fired, 3 * kMicrosecond + 17});
  sim.RunUntil(10 * kMillisecond);
  EXPECT_GT(fired, 3000u);
  EXPECT_EQ(sim.wheel_cascades(), 0u);
  EXPECT_EQ(sim.wheel_rollovers(), 0u);
}

// RunUntil bounds between a lone event's bucket start and its time: the lone
// event is beyond the bound, so nothing runs, the wheel stays at or below
// the bound, and later schedules into the gap run in order ahead of it.
TEST(WheelBackend, BoundInsideLoneEventsBucketStopsTheWheel) {
  // 5 * 65536 + 1000: level 2, bucket 5 relative to tick 0; that bucket's
  // span starts at 327680, and at level 1 the event sits in bucket 3
  // (span start 327680 + 768).
  constexpr Nanos kSpan = 5 * 65536;
  constexpr Nanos kLone = kSpan + 1000;
  Simulation sim;
  std::vector<uint64_t> order;
  sim.ScheduleAt(kLone, Rec{&order, 0});
  sim.RunUntil(kSpan + 500);  // past the level-2 span start, short of level 1
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.Now(), kSpan + 500);
  sim.ScheduleAt(kSpan + 600, Rec{&order, 1});  // same level-1 bucket gap
  sim.ScheduleAt(kSpan + 500, Rec{&order, 2});  // at Now()
  sim.RunUntil(kSpan + 900);  // past the level-1 span start, short of kLone
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 1}));
  EXPECT_EQ(sim.Now(), kSpan + 900);
  sim.ScheduleAt(kSpan + 999, Rec{&order, 3});  // same tick window as kLone
  sim.ScheduleAt(kLone, Rec{&order, 4});        // same tick, scheduled later
  sim.RunUntil(kLone);
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 1, 3, 0, 4}));
  EXPECT_EQ(sim.Now(), kLone);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Dynamic differential: handlers schedule children while they run, so a
// child can land at Now(), inside the running event's own 256-tick window,
// inside its level-1 span, or microseconds out in a bucket of its own, which
// then runs directly. Partial RunUntil drains with bounds anywhere in the
// horizon interleave external schedules into the gaps. The reference is a
// (time, seq) priority queue run through the same process; seq is the
// global schedule order, so both sides give every event the same id.
class DynamicDifferential {
 public:
  static constexpr uint64_t kMaxEvents = 200000;

  // Schedules a leaf (an event with no children) at `t` on both sides.
  void ScheduleLeaf(Nanos t) { ScheduleBoth(t, /*leaf=*/true); }
  // Schedules the root of a self-extending chain at `t` on both sides.
  void ScheduleChain(Nanos t) { ScheduleBoth(t, /*leaf=*/false); }

  // Runs the wheel to `until`, then the reference over the same horizon.
  // The reference's children take the ids the wheel's children took, as
  // long as both sides ran the same events in the same order.
  void RunUntil(Nanos until) {
    const uint64_t first_child = next_id_;
    sim_.RunUntil(until);
    reference_id_ = first_child;
    while (!reference_.empty() && std::get<0>(reference_.top()) <= until) {
      const auto [t, id, leaf] = reference_.top();
      reference_.pop();
      reference_order_.push_back(id);
      SpawnChildren(id, t, leaf, /*on_wheel=*/false);
    }
  }

  void RunToCompletion() { RunUntil(std::numeric_limits<Nanos>::max()); }

  Simulation& sim() { return sim_; }
  const std::vector<uint64_t>& order() const { return order_; }
  const std::vector<uint64_t>& reference_order() const {
    return reference_order_;
  }
  bool reference_empty() const { return reference_.empty(); }

 private:
  struct Node {
    DynamicDifferential* self;
    uint64_t id;
    bool leaf;
    void operator()() const {
      self->order_.push_back(id);
      self->SpawnChildren(id, self->sim_.Now(), leaf, /*on_wheel=*/true);
    }
  };

  void ScheduleBoth(Nanos t, bool leaf) {
    reference_.push({t, next_id_, leaf});
    sim_.ScheduleAt(t, Node{this, next_id_++, leaf});
  }

  // A child scheduled from a running event: onto the wheel, or onto the
  // reference with the id the wheel gave the same child.
  void Schedule(Nanos t, bool leaf, bool on_wheel) {
    if (on_wheel) {
      sim_.ScheduleAt(t, Node{this, next_id_++, leaf});
    } else {
      reference_.push({t, reference_id_++, leaf});
    }
  }

  // A chain event re-arms once, at a delay drawn from its id, and one in four
  // also schedules a leaf within its own level-1 span. The children are a
  // pure function of the id, so both sides spawn the same ones.
  void SpawnChildren(uint64_t id, Nanos now, bool leaf, bool on_wheel) {
    if (leaf || id >= kMaxEvents) {
      return;
    }
    uint64_t r = (id + 1) * 0x9E3779B97F4A7C15ull;
    r ^= r >> 29;
    Nanos delay;
    switch (r & 7) {
      case 0:
        delay = 0;  // at Now()
        break;
      case 1:
        delay = static_cast<Nanos>((r >> 20) % 256);  // same 256-tick window
        break;
      case 2:
        delay = static_cast<Nanos>((r >> 20) % 65536);  // level 0-1
        break;
      default:  // sparse: 1-500 us out, a bucket of its own
        delay = static_cast<Nanos>(kMicrosecond +
                                   (r >> 20) % (499 * kMicrosecond));
        break;
    }
    Schedule(now + delay, /*leaf=*/false, on_wheel);
    if (((r >> 3) & 3) == 0) {
      Schedule(now + static_cast<Nanos>((r >> 40) % 65536), /*leaf=*/true,
               on_wheel);
    }
  }

  using Entry = std::tuple<Nanos, uint64_t, bool>;  // (time, seq, leaf)
  Simulation sim_;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> order_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
      reference_;
  uint64_t reference_id_ = 0;
  std::vector<uint64_t> reference_order_;
};

TEST(WheelBackend, DynamicDifferentialMatchesPriorityQueueReference) {
  DynamicDifferential diff;
  uint64_t lcg = 0x2545F4914F6CDD1Dull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  };
  for (int i = 0; i < 32; ++i) {
    diff.ScheduleChain(static_cast<Nanos>(next() % (200 * kMicrosecond)));
  }
  // Bounded drains from a few ticks to a few hundred µs, so many bounds fall
  // between a lone event's bucket start and its time; after each, leaves are
  // scheduled into the gap the drain left.
  while (diff.sim().executed_events() < DynamicDifferential::kMaxEvents) {
    const uint64_t horizon = (next() & 1) != 0 ? 300 : 300000;
    const Nanos until = diff.sim().Now() + static_cast<Nanos>(next() % horizon);
    diff.RunUntil(until);
    ASSERT_EQ(diff.sim().Now(), until);
    for (uint64_t k = next() % 3; k > 0; --k) {
      diff.ScheduleLeaf(until + static_cast<Nanos>(next() % 2000));
    }
  }
  diff.RunToCompletion();
  EXPECT_TRUE(diff.reference_empty());
  EXPECT_EQ(diff.sim().pending_events(), 0u);
  ASSERT_EQ(diff.order().size(), diff.reference_order().size());
  for (size_t i = 0; i < diff.order().size(); ++i) {
    ASSERT_EQ(diff.order()[i], diff.reference_order()[i])
        << "first divergence at " << i;
  }
}

// The DES shape: 32 self-rescheduling handlers (arrivals, completions,
// dispatch decisions), each re-arming 1-500 µs out. Level 0 spans only
// 256 ns, so every re-arm lands at level 1 or 2. A level-2 bucket (65.5 µs)
// usually holds several events and cascades once; the level-1 buckets
// (256 ns) it pours into usually hold one, which then runs directly. The
// count is deterministic: 250131 cascades over 255578 events (0.979 per
// event). Cascading every lone event down to level 0 instead costs 496835
// (1.944 per event), which fails the gate.
struct DesChain {
  Simulation* sim;
  uint64_t state;
  void operator()() const {
    const uint64_t next =
        state * 6364136223846793005ull + 1442695040888963407ull;
    const auto stride = static_cast<Nanos>(
        kMicrosecond + (next >> 24) % (499 * kMicrosecond));
    sim->ScheduleAfter(stride, DesChain{sim, next});
  }
};

TEST(WheelBackend, DesShapedChainCascadesPerEventGate) {
  Simulation sim;
  for (uint64_t i = 0; i < 32; ++i) {
    sim.ScheduleAt(static_cast<Nanos>(i * 997),
                   DesChain{&sim, 0x9E3779B97F4A7C15ull * (i + 1)});
  }
  sim.RunUntil(2 * kSecond);
  const double cascades_per_event =
      static_cast<double>(sim.wheel_cascades()) /
      static_cast<double>(sim.executed_events());
  EXPECT_GT(sim.executed_events(), 100000u);
  EXPECT_LE(cascades_per_event, 1.0) << "executed " << sim.executed_events()
                                     << ", cascades " << sim.wheel_cascades();
}

}  // namespace
}  // namespace psp
