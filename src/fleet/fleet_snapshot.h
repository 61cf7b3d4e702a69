// FleetSnapshot: the fleet-wide introspection surface. One per-server
// TelemetrySnapshot per Perséphone instance plus the fleet dispatcher's own
// counters, merged on demand (TelemetrySnapshot::Merge / Histogram::Merge)
// into the rack-level view.
//
// Exporters:
//   * ToJson()       — the fleet.json artifact: per-server snapshots under
//                      "servers" and the merged rollup under "merged".
//   * ToPrometheus() — RenderFleetPrometheusText: every member's
//                      RenderPrometheusText page federated exactly as
//                      `pspctl federate` merges separate processes, so the
//                      fleet's metrics.prom carries the whole rack under the
//                      same family names.
#ifndef PSP_SRC_FLEET_FLEET_SNAPSHOT_H_
#define PSP_SRC_FLEET_FLEET_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/snapshot.h"

namespace psp {

struct FleetSnapshot {
  // Inter-server policy name ("random", "rss", "rr", "po2c", "shortest-q").
  std::string policy;
  // Fleet-dispatcher counters (requests routed, per-server dispatch counts,
  // depth-table refreshes) and gauges (outstanding per server).
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  // One unified snapshot per server, index = server id.
  std::vector<TelemetrySnapshot> servers;

  uint32_t num_servers() const {
    return static_cast<uint32_t>(servers.size());
  }

  // Rack-level rollup: all per-server snapshots folded into one (counters
  // add, histograms merge; traces/events/timeseries append in server order).
  TelemetrySnapshot Merged() const;

  // {"policy":...,"num_servers":N,"counters":{...},"gauges":{...},
  //  "merged":{...},"servers":[{...},...]} — byte-deterministic for a
  // deterministic fleet run (backs the CI same-seed determinism smoke).
  std::string ToJson() const;

  // Prometheus text exposition 0.0.4: psp_fleet_policy and the dispatcher's
  // counters/gauges ("fleet.x" -> psp_fleet_x, "fleet.server.N.x" ->
  // psp_fleet_server_x{server="N"}), every member sample with server="N"
  // first, server="merged" histogram rollups, summed psp_fleet_* counters,
  // psp_fleet_servers and psp_up.
  std::string ToPrometheus() const;
};

}  // namespace psp

#endif  // PSP_SRC_FLEET_FLEET_SNAPSHOT_H_
