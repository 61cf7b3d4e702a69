// Fleet simulation: conservation across servers, bit-determinism of the
// fleet snapshot, policy quality ordering, dispatch accounting, and the
// offline introspection artifacts.
#include "src/fleet/fleet_sim.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/sim/policies/c_fcfs.h"

namespace psp {
namespace {

FleetSimConfig SmallFleet(uint32_t servers, FleetPolicyKind kind,
                          double load_fraction, uint64_t seed = 42) {
  FleetSimConfig config;
  config.num_servers = servers;
  config.server.num_workers = 8;
  config.duration = 40 * kMillisecond;
  config.warmup_fraction = 0.1;
  config.seed = seed;
  config.policy = FleetPolicyConfig::Default(kind);
  const WorkloadSpec w = HighBimodal();
  config.rate_rps =
      load_fraction * static_cast<double>(servers) * w.PeakLoadRps(8);
  return config;
}

FleetSimulation::PolicyFactory Fcfs() {
  return [](uint32_t) { return std::make_unique<CentralFcfsPolicy>(); };
}

TEST(FleetSim, ConservesRequestsAcrossServers) {
  FleetSimulation fleet(HighBimodal(),
                        SmallFleet(3, FleetPolicyKind::kPowerOfTwo, 0.6),
                        Fcfs());
  fleet.Run();
  ASSERT_GT(fleet.generated(), 1000u);

  // Every generated request was dispatched to exactly one server...
  uint64_t dispatched = 0;
  for (uint32_t i = 0; i < fleet.num_servers(); ++i) {
    EXPECT_EQ(fleet.dispatched(i), fleet.server(i).generated());
    dispatched += fleet.dispatched(i);
  }
  EXPECT_EQ(dispatched, fleet.generated());

  // ...and every dispatched request completed or dropped: the per-server
  // outstanding gauges (maintained by the completion/drop hooks, which fire
  // for warmup requests too) all drain to zero. The engine counters are
  // warmup-filtered, so they cover the measured window only.
  uint64_t completed = 0;
  uint64_t dropped = 0;
  for (uint32_t i = 0; i < fleet.num_servers(); ++i) {
    const TelemetrySnapshot snap = fleet.server(i).telemetry_snapshot();
    completed += snap.counter("engine.completed");
    dropped += snap.counter("engine.dropped");
  }
  EXPECT_LE(completed + dropped, fleet.generated());
  EXPECT_GE(completed + dropped,
            fleet.generated() - fleet.generated() / 5);  // ~10% warmup
  const FleetSnapshot fs = fleet.fleet_snapshot();
  for (uint32_t i = 0; i < fleet.num_servers(); ++i) {
    EXPECT_EQ(fs.gauges.at("fleet.server." + std::to_string(i) +
                           ".outstanding"),
              0);
  }
  // The merged rollup's counters are the per-server sums.
  const TelemetrySnapshot merged = fs.Merged();
  EXPECT_EQ(merged.counter("engine.completed"), completed);
  EXPECT_EQ(merged.counter("engine.dropped"), dropped);
}

TEST(FleetSim, SameSeedRunsAreByteIdentical) {
  const auto run_json = [] {
    FleetSimulation fleet(
        HighBimodal(), SmallFleet(2, FleetPolicyKind::kPowerOfTwo, 0.6, 7),
        Fcfs());
    fleet.Run();
    return fleet.fleet_snapshot().ToJson();
  };
  const std::string a = run_json();
  const std::string b = run_json();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 1000u);
}

TEST(FleetSim, DifferentSeedsDiverge) {
  FleetSimulation a(HighBimodal(),
                    SmallFleet(2, FleetPolicyKind::kRandom, 0.5, 1), Fcfs());
  FleetSimulation b(HighBimodal(),
                    SmallFleet(2, FleetPolicyKind::kRandom, 0.5, 2), Fcfs());
  a.Run();
  b.Run();
  EXPECT_NE(a.fleet_snapshot().ToJson(), b.fleet_snapshot().ToJson());
}

TEST(FleetSim, ArrivalStreamIsPolicyIndependent) {
  // The arrival process draws from its own rng stream, so every policy sees
  // the same offered trace for a given seed: generated counts match.
  uint64_t generated[2];
  int idx = 0;
  for (const FleetPolicyKind kind :
       {FleetPolicyKind::kRandom, FleetPolicyKind::kShortestQueue}) {
    FleetSimulation fleet(HighBimodal(), SmallFleet(4, kind, 0.6), Fcfs());
    fleet.Run();
    generated[idx++] = fleet.generated();
  }
  EXPECT_EQ(generated[0], generated[1]);
}

TEST(FleetSim, RoundRobinSpreadsDispatchEvenly) {
  FleetSimulation fleet(HighBimodal(),
                        SmallFleet(4, FleetPolicyKind::kRoundRobin, 0.5),
                        Fcfs());
  fleet.Run();
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_LE(fleet.dispatched(0) > fleet.dispatched(i)
                  ? fleet.dispatched(0) - fleet.dispatched(i)
                  : fleet.dispatched(i) - fleet.dispatched(0),
              1u);
  }
}

TEST(FleetSim, DepthAwarePoliciesBeatRandomAtHighLoad) {
  // The acceptance bar: po2c and centralized shortest-queue improve fleet
  // p99.9 slowdown over random at 70% fleet load under High Bimodal.
  const auto p999 = [](FleetPolicyKind kind) {
    FleetSimulation fleet(HighBimodal(), SmallFleet(4, kind, 0.7), Fcfs());
    fleet.Run();
    EXPECT_GT(fleet.metrics().TotalCount(), 1000u);
    return fleet.metrics().OverallSlowdown(99.9);
  };
  const double random = p999(FleetPolicyKind::kRandom);
  const double po2c = p999(FleetPolicyKind::kPowerOfTwo);
  const double shortest = p999(FleetPolicyKind::kShortestQueue);
  EXPECT_LE(po2c, random);
  EXPECT_LE(shortest, random);
}

TEST(FleetSim, ShortestQueueBoundedStalenessRefreshesSparingly) {
  // With a 10 µs staleness grid the tracker must refresh at most once per
  // grid period — far fewer times than there are decisions.
  FleetSimConfig config = SmallFleet(4, FleetPolicyKind::kShortestQueue, 0.6);
  FleetSimulation fleet(HighBimodal(), config, Fcfs());
  fleet.Run();
  EXPECT_GT(fleet.depth_refreshes(), 0u);
  EXPECT_LT(fleet.depth_refreshes(), fleet.generated());
  const uint64_t grid_periods = static_cast<uint64_t>(
      config.duration / config.policy.depth_staleness) + 2;
  EXPECT_LE(fleet.depth_refreshes(), grid_periods);
}

TEST(FleetSim, WritesFleetIntrospectionArtifacts) {
  char tmpl[] = "/tmp/psp_fleet_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  // Removes the directory on every exit, a failed ASSERT included.
  const std::unique_ptr<char, void (*)(char*)> cleanup(
      tmpl, [](char* path) { std::filesystem::remove_all(path); });
  const std::string dir = std::string(tmpl) + "/fleet";
  FleetSimConfig config = SmallFleet(2, FleetPolicyKind::kPowerOfTwo, 0.4);
  config.introspect_dir = dir;
  FleetSimulation fleet(HighBimodal(), config, Fcfs());
  fleet.Run();

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string fleet_doc = slurp(dir + "/fleet.json");
  EXPECT_NE(fleet_doc.find("\"policy\":\"po2c\""), std::string::npos);
  EXPECT_NE(fleet_doc.find("\"num_servers\":2"), std::string::npos);
  EXPECT_NE(fleet_doc.find("\"merged\":"), std::string::npos);
  EXPECT_EQ(fleet_doc, fleet.fleet_snapshot().ToJson());

  const std::string prom = slurp(dir + "/metrics.prom");
  EXPECT_NE(prom.find("psp_fleet_servers 2"), std::string::npos);
  EXPECT_NE(prom.find("server=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("server=\"1\""), std::string::npos);
  EXPECT_NE(prom.find("server=\"merged\""), std::string::npos);

  // Per-server artifacts render alongside (same files the admin plane
  // serves for a single node).
  EXPECT_FALSE(slurp(dir + "/server0/metrics.prom").empty());
  EXPECT_FALSE(slurp(dir + "/server1/snapshot.json").empty());
}

}  // namespace
}  // namespace psp
