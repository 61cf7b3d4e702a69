// Fleet extension (RackSched-style tier above the paper's single server):
// N Perséphone/DARC servers behind one rack dispatcher, comparing the
// inter-server policies — random, RSS-hash affinity, round-robin,
// power-of-two-choices on sampled depth, centralized shortest-queue with
// bounded-staleness depth tracking — on fleet-wide p99.9 slowdown under
// High and Extreme Bimodal at 2–8 servers.
//
// Expected shape (mirrors the load-balancing literature): the depth-aware
// policies (po2c, shortest-q) beat the oblivious ones (random, rss) at high
// load because heavy-tailed service times make per-server queue depth wildly
// uneven; round-robin sits between. The ordering that
// tests/bench_policy_order_test.cc gates on this figure's own configuration
// (bench_util.h's FleetConfig): po2c p99.9 <= random p99.9 at 70% fleet load,
// for every (workload, servers) point.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/fleet/fleet_sim.h"

namespace psp {
namespace bench {
namespace {

void SweepWorkload(const char* workload_name, const WorkloadSpec& workload,
                   Table* table) {
  const std::vector<uint32_t> fleets = {2, 4, 8};
  const std::vector<double> loads = {0.5, 0.7, 0.85};
  const std::vector<FleetPolicyKind> policies = {
      FleetPolicyKind::kRandom,     FleetPolicyKind::kRssHash,
      FleetPolicyKind::kRoundRobin, FleetPolicyKind::kPowerOfTwo,
      FleetPolicyKind::kShortestQueue,
  };

  // Headline ratios at the gated point (70% load, 4 servers).
  double random_p999 = 0, po2c_p999 = 0, shortest_p999 = 0;

  for (const uint32_t servers : fleets) {
    for (const double load : loads) {
      for (const FleetPolicyKind kind : policies) {
        FleetSimulation fleet(workload,
                              FleetConfig(workload, servers, load, kind),
                              [](uint32_t) { return MakeDarc(); });
        fleet.Run();
        const double p999 = fleet.metrics().OverallSlowdown(99.9);
        const double achieved =
            fleet.metrics().ThroughputRps(fleet.MeasuredWindow());
        // Fleet-wide time provenance: every server's worker ledger records
        // pooled, so reserved_idle_pct is the rack's deliberate-idling share
        // under this inter-server policy (sum_pct is 100 by construction).
        std::vector<WorkerTimeRecord> ledgers;
        for (uint32_t i = 0; i < fleet.num_servers(); ++i) {
          const TelemetrySnapshot snap = fleet.server(i).telemetry_snapshot();
          ledgers.insert(ledgers.end(), snap.worker_time.begin(),
                         snap.worker_time.end());
        }
        const WorkerTimeShares shares = WorkerTimeSharesFromRecords(ledgers);
        table->AddRow({workload_name, std::to_string(servers), Fmt(load, 2),
                       FleetPolicyName(kind), Fmt(p999, 1),
                       Fmt(achieved / 1e3, 0),
                       std::to_string(fleet.metrics().TotalDrops()),
                       Fmt(shares.Pct(WorkerTimeState::kBusy), 1),
                       Fmt(shares.Pct(WorkerTimeState::kSteal), 1),
                       Fmt(shares.Pct(WorkerTimeState::kReservedIdle), 1),
                       Fmt(shares.Pct(WorkerTimeState::kFreeIdle), 1),
                       Fmt(shares.Sum(), 1)});
        if (servers == 4 && load == 0.7) {
          if (kind == FleetPolicyKind::kRandom) random_p999 = p999;
          if (kind == FleetPolicyKind::kPowerOfTwo) po2c_p999 = p999;
          if (kind == FleetPolicyKind::kShortestQueue) shortest_p999 = p999;
        }
      }
    }
  }

  if (random_p999 > 0) {
    std::printf("\n%s @ 70%% load, 4 servers: po2c improves fleet p99.9 "
                "slowdown over random by %.2fx, shortest-q by %.2fx\n",
                workload_name, random_p999 / po2c_p999,
                random_p999 / shortest_p999);
  }
}

void Main() {
  std::printf("Fleet policies: %u-worker DARC servers behind a rack "
              "dispatcher (5us client hop, 1us rack hop)\n\n",
              kFleetWorkersPerServer);
  Table table({"workload", "servers", "load", "policy", "p999_slowdown",
               "achieved_kRPS", "drops", "busy_pct", "steal_pct",
               "reserved_idle_pct", "free_idle_pct", "sum_pct"});
  SweepWorkload("HighBimodal", HighBimodal(), &table);
  SweepWorkload("ExtremeBimodal", ExtremeBimodal(), &table);
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace psp

int main() {
  psp::bench::Main();
  return 0;
}
