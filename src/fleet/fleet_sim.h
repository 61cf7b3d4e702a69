// FleetSimulation: N ClusterEngine server pipelines behind one inter-server
// dispatch policy, all driven off a single discrete-event queue — the rack
// tier layered over the per-server Perséphone model. Clients send open-loop
// Poisson traffic to the fleet dispatcher (one network hop + a serial
// per-request decision cost, mirroring the RackSched switch pipeline); the
// policy picks a server; the request takes the dispatcher→server hop and runs
// through that server's unmodified net-worker/dispatcher/policy pipeline;
// the response returns server→client directly.
//
// Determinism contract: every random draw derives from config.seed through
// fixed Rng streams (Rng::StreamSeed) —
//   stream 0            fleet arrival process (gaps, type/service draws,
//                       flow hashes) — identical across policies, so policy
//                       comparisons see the same offered trace;
//   stream 1            fleet policy randomness (random / po2c probes);
//   stream 2 + i        server i's engine seed, a pure function of
//                       (fleet seed, i) regardless of server count.
// Everything runs in virtual time, so same-seed runs are bit-deterministic:
// fleet_snapshot().ToJson() is byte-identical (the CI determinism smoke).
//
// Depth tracking: the fleet tier counts outstanding requests per server
// (dispatched − completed − dropped) via the engines' completion/drop hooks.
// Policies read a copy of that table refreshed on a depth_staleness grid
// (0 = copy live at every decision, the po2c probing model; > 0 = the copy
// is renewed at most once per grid period, RackSched's bounded-staleness
// centralized tracker).
#ifndef PSP_SRC_FLEET_FLEET_SIM_H_
#define PSP_SRC_FLEET_FLEET_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fleet/fleet_snapshot.h"
#include "src/fleet/policy.h"
#include "src/sim/cluster.h"
#include "src/sim/metrics.h"
#include "src/sim/workload.h"

namespace psp {

struct FleetSimConfig {
  uint32_t num_servers = 4;
  // Per-server template. duration, warmup_fraction and seed are overridden
  // per server by the fleet (duration/warmup from the fleet's, seed from
  // stream 2+i); rate_rps is unused (servers generate no arrivals).
  ClusterConfig server;
  double rate_rps = 1e6;         // fleet-wide offered load
  Nanos duration = kSecond;      // client sending window
  double warmup_fraction = 0.1;  // discarded prefix, fleet-wide metrics
  Nanos net_one_way = 5 * kMicrosecond;  // client -> fleet dispatcher hop
  Nanos dispatch_cost = 50;      // fleet decision, serial per request
  uint64_t seed = 42;
  FleetPolicyConfig policy;
  // When non-empty, Run() writes fleet.json and metrics.prom here, plus the
  // usual per-server artifacts under <dir>/server<i>/.
  std::string introspect_dir;

  // Empty string = valid; otherwise a description of the misconfiguration.
  std::string Validate() const;
};

class FleetSimulation {
 public:
  // Builds the per-server SchedulingPolicy (e.g. DARC) for server `i`; the
  // fleet constructs one engine per server around it.
  using PolicyFactory =
      std::function<std::unique_ptr<SchedulingPolicy>(uint32_t server)>;

  FleetSimulation(WorkloadSpec workload, FleetSimConfig config,
                  PolicyFactory factory);

  // Runs the experiment to completion (all generated requests completed or
  // dropped on their servers) and renders introspection artifacts if
  // configured.
  void Run();

  // --- Results --------------------------------------------------------------
  // Fleet-wide client-observed metrics (all servers combined), warmed up on
  // the fleet window.
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  uint32_t num_servers() const { return config_.num_servers; }
  ClusterEngine& server(uint32_t i) { return *servers_[i]; }
  const ClusterEngine& server(uint32_t i) const { return *servers_[i]; }
  uint64_t generated() const { return generated_; }
  uint64_t dispatched(uint32_t server) const {
    return dispatched_per_server_[server];
  }
  uint64_t depth_refreshes() const { return depth_refreshes_; }

  Nanos MeasuredWindow() const {
    return config_.duration -
           static_cast<Nanos>(config_.warmup_fraction *
                              static_cast<double>(config_.duration));
  }

  // The fleet-wide introspection surface: per-server TelemetrySnapshots plus
  // the dispatcher's own counters, exportable as fleet.json or Prometheus
  // text with server="N" labels.
  FleetSnapshot fleet_snapshot() const;

 private:
  void StartPhase(size_t phase_index, Nanos start_time);
  void ScheduleNextArrival();
  void Dispatch(Nanos send_time, TypeId wire_type, uint32_t phase_slot,
                Nanos service, uint32_t flow_hash);
  // Brings depth_view_ up to the staleness contract before a decision.
  void MaybeRefreshDepths();

  FleetSimConfig config_;
  WorkloadSpec workload_;
  Simulation sim_;
  std::unique_ptr<FleetDispatchPolicy> policy_;
  std::vector<std::unique_ptr<ClusterEngine>> servers_;

  Rng arrival_rng_;  // stream 0
  Rng policy_rng_;   // stream 1

  // Arrival generation (same phase machinery as ClusterEngine).
  size_t phase_index_ = 0;
  Nanos phase_end_ = 0;
  std::unique_ptr<PhaseSampler> sampler_;
  double gap_mean_nanos_ = 0;
  Nanos next_send_ = 0;
  uint64_t generated_ = 0;

  // Fleet dispatcher serial resource.
  Nanos dispatcher_busy_until_ = 0;

  // Depth tracking: live outstanding counts and the (possibly stale) copy
  // policies read.
  std::vector<int64_t> outstanding_;
  std::vector<int64_t> depth_view_;
  Nanos depth_refreshed_at_ = -1;
  uint64_t depth_refreshes_ = 0;

  std::vector<uint64_t> dispatched_per_server_;
  Metrics metrics_;  // fleet-wide, client-observed
};

}  // namespace psp

#endif  // PSP_SRC_FLEET_FLEET_SIM_H_
