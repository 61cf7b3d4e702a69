#include "src/fleet/fleet_snapshot.h"

#include "src/common/json_escape.h"
#include "src/introspect/prometheus.h"

namespace psp {

TelemetrySnapshot FleetSnapshot::Merged() const {
  TelemetrySnapshot merged;
  for (const auto& server : servers) {
    merged.Merge(server);
  }
  return merged;
}

std::string FleetSnapshot::ToJson() const {
  std::string out = "{\"policy\":\"" + JsonEscape(policy) +
                    "\",\"num_servers\":" + std::to_string(servers.size());
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"merged\":" + Merged().ToJson();
  out += ",\"servers\":[";
  for (size_t i = 0; i < servers.size(); ++i) {
    if (i != 0) out += ',';
    out += servers[i].ToJson();
  }
  out += "]}";
  return out;
}

std::string FleetSnapshot::ToPrometheus() const {
  return RenderFleetPrometheusText(policy, counters, gauges, servers);
}

}  // namespace psp
