#include "bench/e2e/sim.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/common/rng.h"
#include "src/fleet/fleet_sim.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/workload.h"

namespace psp {
namespace e2e {
namespace {

struct PointSpec {
  const char* family;
  bool extreme;  // Extreme Bimodal instead of High Bimodal
  double load;
};

constexpr PointSpec kPoints[] = {
    {"cfcfs", false, 0.5}, {"darc", false, 0.5}, {"edf", false, 0.5},
    {"cfcfs", false, 0.7}, {"darc", false, 0.7}, {"edf", false, 0.7},
    {"cfcfs", false, 0.9}, {"darc", false, 0.9}, {"edf", false, 0.9},
    {"darc", true, 0.9},   {"fleet", false, 0.7},
};

constexpr uint32_t kWorkers = 14;
constexpr uint32_t kFleetServers = 8;
constexpr uint32_t kFleetWorkersPerServer = 8;
// Reference slice size for the digest: small, so it costs well under a
// second, but large enough that every policy sees queueing at load 0.9.
constexpr uint64_t kDigestRequestsPerPoint = 4000;

// fig_deadline's rule: generous floor for short types, 1.4x mean for long.
DeadlineConfig BudgetsFor(const WorkloadSpec& workload) {
  DeadlineConfig config;
  for (const WorkloadType& t : workload.AllTypes()) {
    DeadlineTarget target;
    target.type_name = t.name;
    target.budget = FromMicros(std::max(20.0, 1.4 * t.mean_us));
    config.targets.push_back(target);
  }
  return config;
}

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& family,
                                             const WorkloadSpec& workload) {
  PersephoneOptions options;
  if (family == "cfcfs") {
    options.scheduler.mode = PolicyMode::kCFcfs;
  } else if (family == "edf") {
    options.scheduler.mode = PolicyMode::kEdf;
    options.scheduler.deadline = BudgetsFor(workload);
  } else {
    options.scheduler.mode = PolicyMode::kDarc;
  }
  return std::make_unique<PersephonePolicy>(options);
}

Nanos DurationFor(uint64_t requests, double rate_rps) {
  return static_cast<Nanos>(static_cast<double>(requests) / rate_rps * 1e9);
}

void Fold(uint64_t* hash, int64_t value) {
  unsigned char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  for (const unsigned char b : bytes) {
    *hash = (*hash ^ b) * 0x100000001b3ULL;
  }
}

void FoldMetrics(uint64_t* hash, const Metrics& metrics) {
  for (const TypeId type : metrics.type_ids()) {
    Fold(hash, metrics.TypeLatency(type, 50));
    Fold(hash, metrics.TypeLatency(type, 99));
    Fold(hash, metrics.TypeLatency(type, 99.9));
    Fold(hash, static_cast<int64_t>(metrics.TypeCount(type)));
  }
}

// Simulates one point; folds its results into *hash when non-null.
SimPointRun RunPoint(const PointSpec& spec, uint64_t seed, uint64_t requests,
                     uint64_t* hash) {
  const TscClock& clock = TscClock::Global();
  SimPointRun out;
  out.family = spec.family;
  out.load = spec.load;
  const WorkloadSpec workload = spec.extreme ? ExtremeBimodal() : HighBimodal();

  if (out.family == "fleet") {
    FleetSimConfig config;
    config.num_servers = kFleetServers;
    config.server.num_workers = kFleetWorkersPerServer;
    config.server.net_one_way = kMicrosecond;
    config.server.dispatch_cost = 100;
    config.server.completion_cost = 40;
    config.net_one_way = 5 * kMicrosecond;
    config.dispatch_cost = 50;
    config.rate_rps = spec.load * kFleetServers *
                      workload.PeakLoadRps(kFleetWorkersPerServer);
    config.duration = DurationFor(requests, config.rate_rps);
    config.seed = seed;
    config.policy = FleetPolicyConfig::Default(FleetPolicyKind::kPowerOfTwo);
    const Nanos t0 = clock.Now();
    FleetSimulation fleet(workload, config, [&workload](uint32_t) {
      return MakePolicy("darc", workload);
    });
    const Nanos t1 = clock.Now();
    fleet.Run();
    const Nanos t2 = clock.Now();
    out.construct_ns = t1 - t0;
    out.run_ns = t2 - t1;
    out.generated = fleet.generated();
    out.drops = fleet.metrics().TotalDrops();
    const FleetSnapshot snap = fleet.fleet_snapshot();
    const auto counter = [&snap](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    out.events = counter("fleet.sim.engine.executed");
    out.cascades = counter("fleet.sim.engine.cascades");
    out.backend_switches = counter("fleet.sim.engine.backend_switches");
    const auto wheel = snap.gauges.find("fleet.sim.engine.wheel_active");
    out.wheel_active = wheel != snap.gauges.end() && wheel->second != 0;
    if (hash != nullptr) {
      FoldMetrics(hash, fleet.metrics());
    }
    return out;
  }

  ClusterConfig config;
  config.num_workers = kWorkers;
  config.rate_rps = spec.load * workload.PeakLoadRps(kWorkers);
  config.duration = DurationFor(requests, config.rate_rps);
  config.net_one_way = 5 * kMicrosecond;
  config.dispatch_cost = 100;
  config.completion_cost = 40;
  config.seed = seed;
  const Nanos t0 = clock.Now();
  ClusterEngine engine(workload, config, MakePolicy(out.family, workload));
  const Nanos t1 = clock.Now();
  engine.Run();
  const Nanos t2 = clock.Now();
  out.construct_ns = t1 - t0;
  out.run_ns = t2 - t1;
  out.generated = engine.generated();
  out.drops = engine.metrics().TotalDrops();
  out.sim_goodput_rps = engine.metrics().GoodputRps(engine.MeasuredWindow());
  out.events = engine.sim().executed_events();
  out.cascades = engine.sim().wheel_cascades();
  out.backend_switches = engine.sim().backend_switches();
  out.wheel_active = engine.sim().wheel_active();
  if (hash != nullptr) {
    FoldMetrics(hash, engine.metrics());
  }
  return out;
}

}  // namespace

uint64_t SimReferenceDigest() {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const PointSpec& spec : kPoints) {
    RunPoint(spec, /*seed=*/1, kDigestRequestsPerPoint, &hash);
  }
  return hash;
}

std::vector<std::vector<SimPointRun>> RunSimFigures(
    uint64_t seed, Nanos budget, int min_passes, uint64_t requests_per_point) {
  const TscClock& clock = TscClock::Global();
  std::vector<std::vector<SimPointRun>> passes;
  const Nanos start = clock.Now();
  Nanos last_pass = 0;
  for (uint64_t pass = 0;
       static_cast<int>(pass) < min_passes ||
       clock.Now() - start + last_pass <= budget;
       ++pass) {
    const Nanos pass_start = clock.Now();
    const uint64_t pass_seed = Rng::StreamSeed(seed, pass);
    std::vector<SimPointRun> points;
    for (const PointSpec& spec : kPoints) {
      points.push_back(RunPoint(spec, pass_seed, requests_per_point, nullptr));
    }
    passes.push_back(std::move(points));
    last_pass = clock.Now() - pass_start;
  }
  return passes;
}

}  // namespace e2e
}  // namespace psp
