// Rack-scale fleet demo: N simulated Perséphone/DARC servers behind an
// inter-server dispatch policy, writing the fleet introspection artifacts
// (fleet.json, metrics.prom, per-server subdirectories) to --out.
//
// Same seed + same flags => byte-identical fleet.json; scripts/check.sh
// runs this twice and compares to enforce the fleet determinism contract.
//
// Usage:
//   fleet_demo [--servers N] [--policy random|rss|rr|po2c|shortest-q]
//              [--seed S] [--duration-ms MS] [--load F] [--out DIR]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/fleet/fleet_sim.h"
#include "src/sim/policies/persephone.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--servers N] [--policy NAME] [--seed S] "
               "[--duration-ms MS] [--load F] [--out DIR]\n"
               "  policies: random rss rr po2c shortest-q\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psp;

  uint32_t servers = 4;
  FleetPolicyKind kind = FleetPolicyKind::kPowerOfTwo;
  uint64_t seed = 42;
  long duration_ms = 50;
  double load = 0.7;
  std::string out_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--servers" && value != nullptr) {
      servers = static_cast<uint32_t>(std::atoi(value));
      ++i;
    } else if (arg == "--policy" && value != nullptr) {
      if (!ParseFleetPolicy(value, &kind)) {
        std::fprintf(stderr, "unknown policy: %s\n", value);
        return Usage(argv[0]);
      }
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      seed = static_cast<uint64_t>(std::atoll(value));
      ++i;
    } else if (arg == "--duration-ms" && value != nullptr) {
      duration_ms = std::atol(value);
      ++i;
    } else if (arg == "--load" && value != nullptr) {
      load = std::atof(value);
      ++i;
    } else if (arg == "--out" && value != nullptr) {
      out_dir = value;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (servers == 0 || duration_ms <= 0 || load <= 0) {
    return Usage(argv[0]);
  }

  const WorkloadSpec workload = HighBimodal();
  FleetSimConfig config;
  config.num_servers = servers;
  config.server.num_workers = 8;
  config.rate_rps =
      load * static_cast<double>(servers) * workload.PeakLoadRps(8);
  config.duration = duration_ms * kMillisecond;
  config.seed = seed;
  config.policy = FleetPolicyConfig::Default(kind);
  config.introspect_dir = out_dir;

  FleetSimulation fleet(workload, config, [](uint32_t) {
    PersephoneOptions options;
    options.scheduler.mode = PolicyMode::kDarc;
    return std::make_unique<PersephonePolicy>(options);
  });
  fleet.Run();

  std::printf("fleet: %u servers, policy=%s, seed=%llu, %ld ms at %.0f%% load\n",
              servers, FleetPolicyName(kind).c_str(),
              static_cast<unsigned long long>(seed), duration_ms, load * 100);
  std::printf("  generated %llu requests, fleet p99.9 slowdown %.1fx\n",
              static_cast<unsigned long long>(fleet.generated()),
              fleet.metrics().OverallSlowdown(99.9));
  for (uint32_t i = 0; i < fleet.num_servers(); ++i) {
    std::printf("  server %u: %llu dispatched\n", i,
                static_cast<unsigned long long>(fleet.dispatched(i)));
  }
  if (!out_dir.empty()) {
    std::printf("  wrote %s/fleet.json and %s/metrics.prom\n",
                out_dir.c_str(), out_dir.c_str());
  }
  return 0;
}
