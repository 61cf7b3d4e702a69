// Microbenchmarks for the discrete-event engine (src/sim/event_queue.h):
// events/sec through schedule+drain churn, with heap allocations per event
// measured via an instrumented global operator new.
//
// An in-file "legacy" engine — std::priority_queue over std::function
// events, the seed implementation — runs the same workloads. The report
// harness (scripts/bench_report.sh) gates on the paired-speedup counters
// (BM_ScheduleDrainSpeedup, >= 3x at representative batch sizes) and on
// zero steady-state allocations for the new engine.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "src/common/time.h"
#include "src/sim/event_queue.h"

// --- Instrumented global allocator -------------------------------------------
// Counts every heap allocation in the process. Benchmarks snapshot the
// counter around their measured region after a warmup pass, so steady-state
// allocs/event is exact (google-benchmark's own bookkeeping between
// iterations is outside the snapshots' deltas only if it doesn't allocate in
// the hot loop, which it does not).
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

namespace {
void* CountingAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountingAlloc(size); }
void* operator new[](std::size_t size) { return CountingAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psp {
namespace {

// --- Legacy engine (the seed implementation) ---------------------------------
// Binary heap via std::priority_queue; one std::function per event. Kept
// verbatim in spirit: (time, seq) ordering, move-out-of-top dispatch.
class LegacySimulation {
 public:
  void ScheduleAt(Nanos time, std::function<void()> fn) {
    queue_.push(Event{time, next_seq_++, std::move(fn)});
  }
  void ScheduleAfter(Nanos delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }
  void RunToCompletion() {
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.time;
      ++executed_;
      event.fn();
    }
  }
  void RunUntil(Nanos until) {
    while (!queue_.empty() && queue_.top().time <= until) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.time;
      ++executed_;
      event.fn();
    }
    if (now_ < until) {
      now_ = until;
    }
  }
  Nanos Now() const { return now_; }
  uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    Nanos time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

// A representative event payload: the engine's real call sites capture a
// `this` pointer plus a few scalars (32-40 bytes) — beyond std::function's
// small-buffer size, so the legacy engine pays one heap allocation per event.
struct ChurnHandler {
  uint64_t* fired;
  uint64_t a;
  uint64_t b;
  uint64_t c;
  void operator()() const {
    ++*fired;
    benchmark::DoNotOptimize(a + b + c);
  }
};
static_assert(sizeof(ChurnHandler) == 32);

// Deterministic out-of-order schedule times: exercises bucket spread and
// the legacy heap's sift paths instead of a trivial append-only fast path.
inline Nanos ChurnTime(Nanos base, uint64_t i, uint64_t batch) {
  return base + static_cast<Nanos>((i * 7919) % batch);
}

// One schedule+drain round of `batch` events, identical for both engines.
template <typename Engine>
void ChurnRound(Engine& engine, uint64_t batch, uint64_t* fired) {
  const Nanos base = engine.Now() + 1;
  for (uint64_t i = 0; i < batch; ++i) {
    engine.ScheduleAt(ChurnTime(base, i, batch),
                      ChurnHandler{fired, i, i + 1, i + 2});
  }
  engine.RunToCompletion();
}

template <typename Engine>
void RunEngineChurn(benchmark::State& state) {
  Engine engine;
  uint64_t fired = 0;
  const auto batch = static_cast<uint64_t>(state.range(0));
  ChurnRound(engine, batch, &fired);  // warmup: size arena / queue storage
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    ChurnRound(engine, batch, &fired);
  }
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(fired);
  const auto events = static_cast<uint64_t>(state.iterations()) * batch;
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0
          ? static_cast<double>(allocs_after - allocs_before) /
                static_cast<double>(events)
          : 0.0);
}

void BM_EngineScheduleDrain(benchmark::State& state) {
  RunEngineChurn<Simulation>(state);
}
BENCHMARK(BM_EngineScheduleDrain)->Arg(256)->Arg(4096);

void BM_LegacyScheduleDrain(benchmark::State& state) {
  RunEngineChurn<LegacySimulation>(state);
}
BENCHMARK(BM_LegacyScheduleDrain)->Arg(256)->Arg(4096);

// Paired comparison: alternates engine and legacy churn rounds inside the
// same measured loop and reports the TSC ratio as `speedup`. On shared boxes
// the clock wanders on a seconds scale, so two separately-timed benchmarks
// minutes apart can drift 30-50% for reasons that have nothing to do with
// the code; interleaving at round granularity (tens of microseconds) makes
// the noise hit both engines equally and cancel in the ratio. This counter
// is what scripts/bench_report.sh gates on. Cascades per event ride along —
// near zero here, since churn schedules land within a 16K-tick horizon (at
// most two wheel levels).
void BM_ScheduleDrainSpeedup(benchmark::State& state) {
  Simulation engine;
  LegacySimulation legacy;
  uint64_t fired = 0;
  const auto batch = static_cast<uint64_t>(state.range(0));
  ChurnRound(engine, batch, &fired);  // warmup both
  ChurnRound(legacy, batch, &fired);
  uint64_t tsc_engine = 0;
  uint64_t tsc_legacy = 0;
  for (auto _ : state) {
    const uint64_t t0 = ReadTsc();
    ChurnRound(engine, batch, &fired);
    const uint64_t t1 = ReadTsc();
    ChurnRound(legacy, batch, &fired);
    const uint64_t t2 = ReadTsc();
    tsc_engine += t1 - t0;
    tsc_legacy += t2 - t1;
  }
  benchmark::DoNotOptimize(fired);
  const auto events = static_cast<uint64_t>(state.iterations()) * batch;
  state.SetItemsProcessed(static_cast<int64_t>(events) * 2);
  if (tsc_engine > 0) {
    state.counters["speedup"] = benchmark::Counter(
        static_cast<double>(tsc_legacy) / static_cast<double>(tsc_engine));
  }
  if (events > 0) {
    state.counters["cascades_per_event"] = benchmark::Counter(
        static_cast<double>(engine.wheel_cascades()) /
        static_cast<double>(events));
  }
}
BENCHMARK(BM_ScheduleDrainSpeedup)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

// Adversarial wheel workload: every schedule lands far outside the level-0
// window (spans up to ~2^34 ticks), so each event is inserted at level 3-4
// and must cascade down through every intermediate level before it can run.
// This is the wheel's worst case — the report gates that it stays
// allocation-free and records the cascade amplification (moves per event).
void BM_CascadeStress(benchmark::State& state) {
  Simulation engine;
  uint64_t fired = 0;
  const auto batch = static_cast<uint64_t>(state.range(0));
  auto round = [&] {
    const Nanos base = engine.Now() + 1;
    for (uint64_t i = 0; i < batch; ++i) {
      // Deterministic spread over a ~2^34-tick horizon: bits of a cheap
      // integer hash, biased so every level 0-4 gets traffic.
      const uint64_t h = (i * 0x9E3779B97F4A7C15ull) >> 30;
      engine.ScheduleAt(base + static_cast<Nanos>(h),
                        ChurnHandler{&fired, i, i + 1, i + 2});
    }
    engine.RunToCompletion();
  };
  round();  // warmup: size arena + wheel nodes
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const uint64_t cascades_before = engine.wheel_cascades();
  for (auto _ : state) {
    round();
  }
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(fired);
  const auto events = static_cast<uint64_t>(state.iterations()) * batch;
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0
          ? static_cast<double>(allocs_after - allocs_before) /
                static_cast<double>(events)
          : 0.0);
  state.counters["cascades_per_event"] = benchmark::Counter(
      events > 0
          ? static_cast<double>(engine.wheel_cascades() - cascades_before) /
                static_cast<double>(events)
          : 0.0);
  state.counters["rollovers"] =
      benchmark::Counter(static_cast<double>(engine.wheel_rollovers()));
}
BENCHMARK(BM_CascadeStress)->Arg(4096);

// Steady-state self-rescheduling: a fixed population of pending events where
// every handler re-arms itself — the simulator's hot loop shape (arrivals
// and completions re-scheduling continuously). Verifies zero allocations per
// event after warmup via both the global allocator hook and the engine's own
// arena instrumentation.
struct SelfReschedule {
  Simulation* sim;
  uint64_t* fired;
  uint64_t stride;
  void operator()() const {
    ++*fired;
    sim->ScheduleAfter(static_cast<Nanos>(stride), *this);
  }
};

void BM_EngineSteadyState(benchmark::State& state) {
  Simulation engine;
  uint64_t fired = 0;
  constexpr uint64_t kPending = 512;
  engine.Reserve(kPending);
  for (uint64_t i = 0; i < kPending; ++i) {
    engine.ScheduleAt(static_cast<Nanos>(1 + (i * 7919) % kPending),
                      SelfReschedule{&engine, &fired, 1 + i % 97});
  }
  engine.RunUntil(engine.Now() + 4 * kPending);  // warmup
  const uint64_t arena_before = engine.arena_allocations();
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  uint64_t events = 0;
  for (auto _ : state) {
    const uint64_t before = engine.executed_events();
    engine.RunUntil(engine.Now() + kPending);
    events += engine.executed_events() - before;
  }
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(allocs_after - allocs_before) /
                       static_cast<double>(events)
                 : 0.0);
  state.counters["arena_growths"] = benchmark::Counter(
      static_cast<double>(engine.arena_allocations() - arena_before));
}
BENCHMARK(BM_EngineSteadyState);

// Legacy twin of BM_EngineSteadyState: same 512 self-rescheduling handlers on
// the std::function engine, so the report can compare the hot-loop shape
// apples to apples.
struct LegacySelfReschedule {
  LegacySimulation* sim;
  uint64_t* fired;
  uint64_t stride;
  void operator()() const {
    ++*fired;
    sim->ScheduleAfter(static_cast<Nanos>(stride), *this);
  }
};

void BM_LegacySteadyState(benchmark::State& state) {
  LegacySimulation engine;
  uint64_t fired = 0;
  constexpr uint64_t kPending = 512;
  for (uint64_t i = 0; i < kPending; ++i) {
    engine.ScheduleAt(static_cast<Nanos>(1 + (i * 7919) % kPending),
                      LegacySelfReschedule{&engine, &fired, 1 + i % 97});
  }
  engine.RunUntil(engine.Now() + 4 * kPending);  // warmup
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  uint64_t events = 0;
  for (auto _ : state) {
    const uint64_t before = engine.executed_events();
    engine.RunUntil(engine.Now() + kPending);
    events += engine.executed_events() - before;
  }
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(allocs_after - allocs_before) /
                       static_cast<double>(events)
                 : 0.0);
}
BENCHMARK(BM_LegacySteadyState);

}  // namespace
}  // namespace psp

BENCHMARK_MAIN();
