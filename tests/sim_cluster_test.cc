// End-to-end simulation tests: request conservation, latency sanity, and the
// paper's qualitative orderings (DARC < c-FCFS < d-FCFS slowdown on bimodal
// workloads at high load; TS between c-FCFS and DARC; etc.).
#include "src/sim/cluster.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/policies/c_fcfs.h"
#include "src/sim/policies/d_fcfs.h"
#include "src/sim/policies/oracle_policies.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/policies/time_sharing.h"
#include "src/sim/policies/work_stealing.h"

namespace psp {
namespace {

ClusterConfig FastConfig(double load_fraction, const WorkloadSpec& w,
                         uint32_t workers = 14) {
  ClusterConfig c;
  c.num_workers = workers;
  c.rate_rps = w.PeakLoadRps(workers) * load_fraction;
  c.duration = 300 * kMillisecond;
  c.net_one_way = 0;   // ideal network for policy-only comparisons
  c.dispatch_cost = 0;
  c.completion_cost = 0;
  c.seed = 7;
  return c;
}

PersephoneOptions DarcOptions() {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kDarc;
  return o;
}

double RunOverallSlowdown(const WorkloadSpec& w, ClusterConfig c,
                          std::unique_ptr<SchedulingPolicy> policy) {
  ClusterEngine engine(w, c, std::move(policy));
  engine.Run();
  return engine.metrics().OverallSlowdown(99.9);
}

TEST(ClusterEngine, ConservesRequests) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.5, w);
  ClusterEngine engine(w, c, std::make_unique<CentralFcfsPolicy>());
  engine.Run();
  // All generated requests completed or dropped (none lost). Completions
  // include warmup ones, which metrics exclude: compare via drop counter.
  const uint64_t measured = engine.metrics().TotalCount();
  const uint64_t drops = engine.metrics().TotalDrops();
  EXPECT_EQ(drops, 0u);
  EXPECT_GT(measured, 0u);
  EXPECT_LE(measured, engine.generated());
  // Roughly 90% of generated fall after warmup.
  EXPECT_NEAR(static_cast<double>(measured),
              0.9 * static_cast<double>(engine.generated()),
              0.02 * static_cast<double>(engine.generated()));
}

TEST(ClusterEngine, SnapshotExportsEventQueueBackend) {
  const WorkloadSpec w = HighBimodal();
  ClusterEngine engine(w, FastConfig(0.5, w),
                       std::make_unique<CentralFcfsPolicy>());
  engine.Run();
  const TelemetrySnapshot snap = engine.telemetry_snapshot();
  // Owned-simulation mode surfaces the engine counters (fleet servers leave
  // them to the fleet snapshot instead).
  ASSERT_TRUE(snap.counters.count("sim.engine.executed"));
  EXPECT_EQ(snap.counters.at("sim.engine.executed"),
            engine.sim().executed_events());
  ASSERT_TRUE(snap.counters.count("sim.engine.cascades"));
  ASSERT_TRUE(snap.counters.count("sim.engine.rollovers"));
}

TEST(ClusterEngine, LowLoadLatencyIsServiceTimePlusNetwork) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.05, w);
  c.net_one_way = 5 * kMicrosecond;
  ClusterEngine engine(w, c, std::make_unique<CentralFcfsPolicy>());
  engine.Run();
  // Short requests: 1 µs service + 10 µs RTT ≈ 11 µs at near-zero load.
  const Nanos p50 = engine.metrics().TypeLatency(1, 50.0);
  EXPECT_NEAR(static_cast<double>(p50), 11000.0, 500.0);
  const Nanos p50_long = engine.metrics().TypeLatency(2, 50.0);
  EXPECT_NEAR(static_cast<double>(p50_long), 110000.0, 2000.0);
}

TEST(ClusterEngine, ThroughputMatchesOfferedLoad) {
  const WorkloadSpec w = ExtremeBimodal();
  ClusterConfig c = FastConfig(0.5, w);
  ClusterEngine engine(w, c, std::make_unique<CentralFcfsPolicy>());
  engine.Run();
  const double offered = c.rate_rps;
  const double measured = engine.metrics().ThroughputRps(engine.MeasuredWindow());
  EXPECT_NEAR(measured, offered, offered * 0.03);
}

TEST(ClusterEngine, DispatcherSerialResourceIsABottleneck) {
  // With a 1 µs per-request dispatch cost the pipeline saturates at 1 Mrps
  // regardless of worker count. At 2 Mrps offered the dispatcher queue grows
  // for the whole run, so median latency reaches ~half the sending window —
  // despite workers being nearly idle (service is only 0.1 µs).
  WorkloadSpec w;
  w.name = "tiny";
  w.phases.push_back(
      WorkloadPhase{0, {WorkloadType{1, "T", 0.1, 1.0}}, 1.0});
  ClusterConfig c;
  c.num_workers = 14;
  c.rate_rps = 2e6;
  c.duration = 50 * kMillisecond;
  c.net_one_way = 0;
  c.dispatch_cost = 1000;  // 1 µs
  c.completion_cost = 0;
  ClusterEngine engine(w, c, std::make_unique<CentralFcfsPolicy>());
  engine.Run();
  EXPECT_GT(engine.metrics().OverallLatency(50.0), 5 * kMillisecond);
}

// --- Paper orderings ----------------------------------------------------------

TEST(PolicyComparison, DarcBeatsCFcfsOnHighBimodalAtHighLoad) {
  const WorkloadSpec w = HighBimodal();
  const double darc = RunOverallSlowdown(
      w, FastConfig(0.8, w), std::make_unique<PersephonePolicy>(DarcOptions()));
  const double cfcfs = RunOverallSlowdown(w, FastConfig(0.8, w),
                                          std::make_unique<CentralFcfsPolicy>());
  // §5.2: DARC improves overall p99.9 slowdown by an order of magnitude.
  EXPECT_LT(darc * 3, cfcfs);
  EXPECT_LT(darc, 25.0);
}

TEST(PolicyComparison, CFcfsBeatsDFcfs) {
  const WorkloadSpec w = HighBimodal();
  const double cfcfs = RunOverallSlowdown(w, FastConfig(0.6, w),
                                          std::make_unique<CentralFcfsPolicy>());
  const double dfcfs = RunOverallSlowdown(
      w, FastConfig(0.6, w), std::make_unique<DecentralizedFcfsPolicy>());
  EXPECT_LT(cfcfs, dfcfs);
}

TEST(PolicyComparison, WorkStealingApproximatesCentralQueue) {
  const WorkloadSpec w = HighBimodal();
  const double ws = RunOverallSlowdown(w, FastConfig(0.6, w),
                                       std::make_unique<WorkStealingPolicy>());
  const double cfcfs = RunOverallSlowdown(w, FastConfig(0.6, w),
                                          std::make_unique<CentralFcfsPolicy>());
  const double dfcfs = RunOverallSlowdown(
      w, FastConfig(0.6, w), std::make_unique<DecentralizedFcfsPolicy>());
  EXPECT_LT(ws, dfcfs);            // stealing rescues imbalance
  EXPECT_LT(ws, cfcfs * 3 + 5.0);  // and lands near the central queue
}

TEST(PolicyComparison, TimeSharingProtectsShortsBetterThanCFcfs) {
  const WorkloadSpec w = ExtremeBimodal();
  ClusterConfig c = FastConfig(0.7, w, 16);
  TimeSharingOptions ts;
  ts.quantum = 5 * kMicrosecond;
  ts.preempt_overhead = kMicrosecond;
  const double tshare = RunOverallSlowdown(
      w, c, std::make_unique<TimeSharingPolicy>(ts));
  const double cfcfs =
      RunOverallSlowdown(w, c, std::make_unique<CentralFcfsPolicy>());
  EXPECT_LT(tshare, cfcfs);
}

TEST(PolicyComparison, DarcBeatsTimeSharingAtVeryHighLoad) {
  const WorkloadSpec w = ExtremeBimodal();
  ClusterConfig c = FastConfig(0.9, w, 16);
  TimeSharingOptions ts;
  const double tshare =
      RunOverallSlowdown(w, c, std::make_unique<TimeSharingPolicy>(ts));
  const double darc = RunOverallSlowdown(
      w, c, std::make_unique<PersephonePolicy>(DarcOptions()));
  EXPECT_LT(darc, tshare);
}

TEST(PolicyComparison, SjfProtectsShortsOnBimodal) {
  const WorkloadSpec w = HighBimodal();
  const double sjf = RunOverallSlowdown(
      w, FastConfig(0.7, w), std::make_unique<ShortestJobFirstPolicy>());
  const double cfcfs = RunOverallSlowdown(w, FastConfig(0.7, w),
                                          std::make_unique<CentralFcfsPolicy>());
  EXPECT_LT(sjf, cfcfs);
}

TEST(PolicyComparison, StaticPartitionServesBothTypes) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.5, w);
  ClusterEngine engine(w, c, std::make_unique<StaticPartitionPolicy>());
  engine.Run();
  EXPECT_GT(engine.metrics().TypeCount(1), 0u);
  EXPECT_GT(engine.metrics().TypeCount(2), 0u);
}

TEST(PolicyComparison, EdfCompletesEverything) {
  const WorkloadSpec w = TpccMix();
  ClusterConfig c = FastConfig(0.6, w);
  ClusterEngine engine(w, c,
                       std::make_unique<EarliestDeadlineFirstPolicy>(10.0));
  engine.Run();
  EXPECT_EQ(engine.metrics().TotalDrops(), 0u);
  EXPECT_GT(engine.metrics().TotalCount(), 0u);
}

// --- DARC specifics in the full pipeline ---------------------------------------

TEST(DarcInPipeline, ShortTailLatencyStaysNearServiceTime) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.8, w);
  ClusterEngine engine(w, c,
                       std::make_unique<PersephonePolicy>(DarcOptions()));
  engine.Run();
  // Shorts are protected: p99.9 latency within tens of µs (c-FCFS would show
  // ~100 µs+ because shorts queue behind 100 µs longs).
  EXPECT_LT(engine.metrics().TypeLatency(1, 99.9), FromMicros(60));
}

TEST(DarcInPipeline, BootstrapsFromProfilingWithoutSeeds) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.6, w);
  c.duration = 400 * kMillisecond;
  PersephoneOptions options = DarcOptions();
  options.seed_profiles = false;
  options.scheduler.profiler.min_window_samples = 5000;
  auto policy = std::make_unique<PersephonePolicy>(options);
  PersephonePolicy* policy_ptr = policy.get();
  ClusterEngine engine(w, c, std::move(policy));
  engine.Run();
  EXPECT_TRUE(policy_ptr->scheduler().darc_active());
  EXPECT_GE(policy_ptr->scheduler().reservation_updates(), 1u);
  // The profiled reservation matches the seeded one: 1 core for shorts.
  EXPECT_EQ(policy_ptr->scheduler().reserved_workers_of(
                policy_ptr->scheduler().ResolveType(1)),
            1u);
}

TEST(DarcInPipeline, RandomClassifierConvergesToCFcfs) {
  const WorkloadSpec w = HighBimodal();
  ClusterConfig c = FastConfig(0.6, w, 8);
  PersephoneOptions random_options = DarcOptions();
  random_options.random_classifier = true;
  const double random_slowdown = RunOverallSlowdown(
      w, c, std::make_unique<PersephonePolicy>(random_options));
  const double cfcfs =
      RunOverallSlowdown(w, c, std::make_unique<CentralFcfsPolicy>());
  // §5.6: "DARC-random and c-FCFS exhibit similar behaviors" — same order of
  // magnitude, far from DARC's protected slowdown.
  const double darc = RunOverallSlowdown(
      w, c, std::make_unique<PersephonePolicy>(DarcOptions()));
  EXPECT_GT(random_slowdown, darc);
  EXPECT_LT(random_slowdown, cfcfs * 5 + 10);
  EXPECT_GT(random_slowdown * 5, cfcfs);
}

TEST(DarcInPipeline, AdaptsAcrossPhaseChange) {
  // Two-phase workload: B short then B long. The profiler must re-reserve.
  WorkloadSpec w;
  w.name = "flip";
  w.phases.push_back(WorkloadPhase{
      200 * kMillisecond,
      {WorkloadType{1, "A", 100.0, 0.5}, WorkloadType{2, "B", 1.0, 0.5}},
      1.0});
  w.phases.push_back(WorkloadPhase{
      0,
      {WorkloadType{1, "A", 1.0, 0.5}, WorkloadType{2, "B", 100.0, 0.5}},
      1.0});
  ClusterConfig c;
  c.num_workers = 14;
  c.rate_rps = 0.7 * 14e9 / 50500.0;
  c.duration = 500 * kMillisecond;
  c.net_one_way = 0;
  c.dispatch_cost = 0;
  c.completion_cost = 0;
  PersephoneOptions options = DarcOptions();
  options.seed_profiles = false;
  options.scheduler.profiler.min_window_samples = 5000;
  auto policy = std::make_unique<PersephonePolicy>(options);
  PersephonePolicy* policy_ptr = policy.get();
  ClusterEngine engine(w, c, std::move(policy));
  engine.Run();
  const auto& s = policy_ptr->scheduler();
  // After the flip, A (now short) holds few cores, B (now long) holds many.
  EXPECT_LE(s.reserved_workers_of(s.ResolveType(1)), 3u);
  EXPECT_GE(s.reserved_workers_of(s.ResolveType(2)), 11u);
  EXPECT_GE(s.reservation_updates(), 2u);
}

}  // namespace
}  // namespace psp
