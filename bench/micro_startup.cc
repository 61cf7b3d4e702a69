// Microbenchmarks for the server's one-time start-up work: the phases a
// Persephone pays between exec and its first response (docs/PERF.md §4).
// Each case constructs the object afresh per iteration, so its time is what
// a new process pays for that phase.
#include <benchmark/benchmark.h>

#include "src/common/memory_pool.h"
#include "src/common/time.h"
#include "src/core/scheduler.h"
#include "src/net/packet.h"
#include "src/telemetry/telemetry.h"

namespace psp {
namespace {

void BM_TscCalibration(benchmark::State& state) {
  for (auto _ : state) {
    const TscClock clock;
    benchmark::DoNotOptimize(clock.cycles_per_sec());
  }
}
BENCHMARK(BM_TscCalibration)->Unit(benchmark::kMillisecond);

// The e2e server's telemetry: 2 workers, 1 << 15 records per ring;
// Arg(0) untraced, Arg(1) traced.
void BM_TelemetryRings(benchmark::State& state) {
  TelemetryConfig config;
  config.enable_tracing = state.range(0) != 0;
  config.sample_every = 0;
  config.trace_ring_capacity = 1 << 15;
  for (auto _ : state) {
    Telemetry telemetry(config, /*num_rings=*/2);
    benchmark::DoNotOptimize(telemetry.num_rings());
  }
}
BENCHMARK(BM_TelemetryRings)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// A bimodal DARC server's scheduler: construction plus two seeded types.
void BM_DarcSchedulerRegisterTypes(benchmark::State& state) {
  SchedulerConfig config;
  config.num_workers = 2;
  for (auto _ : state) {
    DarcScheduler scheduler(config);
    scheduler.RegisterType(1, "SHORT", FromMicros(5), 0.9);
    scheduler.RegisterType(2, "LONG", FromMicros(200), 0.1);
    benchmark::DoNotOptimize(scheduler.num_types());
  }
}
BENCHMARK(BM_DarcSchedulerRegisterTypes)->Unit(benchmark::kMicrosecond);

// RuntimeConfig's default packet pool (8192 buffers).
void BM_MemoryPool(benchmark::State& state) {
  for (auto _ : state) {
    MemoryPool pool(kMaxPacketSize, 8192);
    benchmark::DoNotOptimize(pool.AvailableApprox());
  }
}
BENCHMARK(BM_MemoryPool)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace psp

BENCHMARK_MAIN();
