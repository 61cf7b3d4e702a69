// Microbenchmarks for one-time start-up work: the phases a Persephone pays
// between exec and its first response, and the DES engines every simulated
// figure point builds before its first event (docs/PERF.md §4). Each case
// constructs the object afresh per iteration, so its time is what a new
// process (or a new figure point) pays for that phase.
#include <benchmark/benchmark.h>

#include "src/common/memory_pool.h"
#include "src/common/time.h"
#include "src/core/scheduler.h"
#include "src/fleet/fleet_sim.h"
#include "src/net/packet.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/workload.h"
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

std::unique_ptr<SchedulingPolicy> DarcPolicy() {
  PersephoneOptions options;
  options.scheduler.mode = PolicyMode::kDarc;
  return std::make_unique<PersephonePolicy>(options);
}

// One sim-figures point: a 14-worker DARC engine on High Bimodal at load 0.9
// (bench/e2e/sim.cc), default telemetry (tracing 1 in 64).
void BM_ClusterEngineConstruct(benchmark::State& state) {
  const WorkloadSpec workload = HighBimodal();
  ClusterConfig config;
  config.num_workers = 14;
  config.rate_rps = 0.9 * workload.PeakLoadRps(14);
  config.duration = 100 * kMillisecond;
  config.net_one_way = 5 * kMicrosecond;
  config.dispatch_cost = 100;
  config.completion_cost = 40;
  for (auto _ : state) {
    ClusterEngine engine(workload, config, DarcPolicy());
    benchmark::DoNotOptimize(engine.num_workers());
  }
}
BENCHMARK(BM_ClusterEngineConstruct)->Unit(benchmark::kMicrosecond);

// The sim-figures fleet point: 8 servers of 8 DARC workers behind
// power-of-two-choices, at load 0.7.
void BM_FleetSimulationConstruct(benchmark::State& state) {
  const WorkloadSpec workload = HighBimodal();
  FleetSimConfig config;
  config.num_servers = 8;
  config.server.num_workers = 8;
  config.server.net_one_way = kMicrosecond;
  config.server.dispatch_cost = 100;
  config.server.completion_cost = 40;
  config.net_one_way = 5 * kMicrosecond;
  config.dispatch_cost = 50;
  config.rate_rps = 0.7 * 8 * workload.PeakLoadRps(8);
  config.duration = 100 * kMillisecond;
  config.policy = FleetPolicyConfig::Default(FleetPolicyKind::kPowerOfTwo);
  for (auto _ : state) {
    FleetSimulation fleet(workload, config,
                          [](uint32_t) { return DarcPolicy(); });
    benchmark::DoNotOptimize(fleet.generated());
  }
}
BENCHMARK(BM_FleetSimulationConstruct)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace psp

BENCHMARK_MAIN();
