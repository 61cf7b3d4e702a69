// Heap-allocation gate for the discrete-event engine (src/sim/event_queue.h):
// once warm, scheduling and running events must not touch the heap at all.
// This binary replaces the global operator new (plain and over-aligned) with
// counting versions, so it sees every allocation on the event path, not only
// the arena growth that arena_allocations() reports.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sim/event_queue.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

void* CountingAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  size = size == 0 ? align : (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) {
  return CountingAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountingAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountingAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountingAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace psp {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
uint64_t AllocsDuring(Fn&& fn) {
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  fn();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

// The engine's real call sites capture `this` plus a few scalars: 32 bytes,
// past std::function's small buffer, inside the engine's inline payload.
struct ChurnHandler {
  uint64_t* fired;
  uint64_t a;
  uint64_t b;
  uint64_t c;
  void operator()() const { ++*fired; }
};

// One round of `batch` events at `spread(i)` ticks past now, run to empty.
template <typename Spread>
void ScheduleDrainRound(Simulation& sim, uint64_t batch, uint64_t* fired,
                        Spread spread) {
  const Nanos base = sim.Now() + 1;
  for (uint64_t i = 0; i < batch; ++i) {
    sim.ScheduleAt(base + spread(i), ChurnHandler{fired, i, i + 1, i + 2});
  }
  sim.RunToCompletion();
}

TEST(SimEngineAllocs, ScheduleDrainChurnAllocatesNothing) {
  constexpr uint64_t kBatch = 4096;
  const auto spread = [](uint64_t i) {
    return static_cast<Nanos>((i * 7919) % kBatch);
  };
  Simulation sim;
  uint64_t fired = 0;
  ScheduleDrainRound(sim, kBatch, &fired, spread);  // warm-up sizes the arena
  const uint64_t arena = sim.arena_allocations();
  const uint64_t allocs = AllocsDuring([&] {
    for (int round = 0; round < 8; ++round) {
      ScheduleDrainRound(sim, kBatch, &fired, spread);
    }
  });
  EXPECT_EQ(fired, 9 * kBatch);
  EXPECT_EQ(allocs, 0u) << "allocations over " << 8 * kBatch << " events";
  EXPECT_EQ(sim.arena_allocations(), arena);
}

TEST(SimEngineAllocs, CascadeStressAllocatesNothing) {
  // Every event lands levels above the level-0 window (a ~2^34-tick
  // horizon) and must cascade down before it runs: the wheel's worst case.
  constexpr uint64_t kBatch = 4096;
  const auto spread = [](uint64_t i) {
    return static_cast<Nanos>((i * 0x9E3779B97F4A7C15ull) >> 30);
  };
  Simulation sim;
  uint64_t fired = 0;
  ScheduleDrainRound(sim, kBatch, &fired, spread);
  const uint64_t arena = sim.arena_allocations();
  const uint64_t cascades = sim.wheel_cascades();
  const uint64_t allocs = AllocsDuring([&] {
    for (int round = 0; round < 4; ++round) {
      ScheduleDrainRound(sim, kBatch, &fired, spread);
    }
  });
  EXPECT_GT(sim.wheel_cascades(), cascades);
  EXPECT_EQ(allocs, 0u) << "allocations over " << 4 * kBatch << " events";
  EXPECT_EQ(sim.arena_allocations(), arena);
}

// The simulator's hot-loop shape: a fixed population of pending events whose
// handlers re-arm themselves.
struct SelfReschedule {
  Simulation* sim;
  uint64_t* fired;
  uint64_t stride;
  void operator()() const {
    ++*fired;
    sim->ScheduleAfter(static_cast<Nanos>(stride), *this);
  }
};

TEST(SimEngineAllocs, SteadyStateAllocatesNothing) {
  constexpr uint64_t kPending = 512;
  Simulation sim;
  uint64_t fired = 0;
  sim.Reserve(kPending);
  for (uint64_t i = 0; i < kPending; ++i) {
    sim.ScheduleAt(static_cast<Nanos>(1 + (i * 7919) % kPending),
                   SelfReschedule{&sim, &fired, 1 + i % 97});
  }
  sim.RunUntil(sim.Now() + 4 * kPending);  // warm-up
  const uint64_t arena = sim.arena_allocations();
  const uint64_t executed = sim.executed_events();
  const uint64_t allocs =
      AllocsDuring([&] { sim.RunUntil(sim.Now() + 64 * kPending); });
  EXPECT_GT(sim.executed_events() - executed, 64 * kPending);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sim.arena_allocations(), arena);
}

}  // namespace
}  // namespace psp
