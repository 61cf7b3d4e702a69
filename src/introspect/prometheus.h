// Prometheus text exposition (format version 0.0.4) rendered from a
// TelemetrySnapshot: the read side of the live introspection plane. One pure
// function turns the unified snapshot — registry counters/gauges/histograms,
// the latest closed time-series interval, per-worker occupancy — into the
// `# HELP` / `# TYPE` / sample-line format every Prometheus-compatible
// scraper understands. The module also owns the read side: the page
// validator and the one federation that builds both `pspctl federate`'s
// merged page and the in-process fleet page.
//
// Mapping rules (held by tests/introspect_prometheus_test.cc):
//   * snapshot counters  -> `psp_<name>_total` counter samples; hierarchical
//     dots become underscores ("scheduler.dispatched" ->
//     psp_scheduler_dispatched_total). `worker.<N>.<field>`,
//     `ingress.shard.<N>.<field>` and `fleet.server.<N>.<field>` fold into
//     one metric per field with a {worker|shard|server="N"} label.
//   * snapshot gauges    -> `psp_<name>` gauges, same name/label folding.
//   * snapshot histograms-> summaries: {quantile="0.5|0.99|0.999"} samples
//     plus `_sum` and `_count`.
//   * the latest closed interval -> per-type gauges labelled {type="NAME"}:
//     interval arrivals/completions/drops, queue depth, reserved workers,
//     windowed slowdown percentiles (milli units), plus scalar arrival/
//     completion rates and per-worker busy permille.
// Label values are escaped per the exposition spec (backslash, quote,
// newline); metric names are sanitised to [a-zA-Z_:][a-zA-Z0-9_:]*. Output
// is byte-deterministic for a deterministic snapshot (maps iterate sorted,
// floats use fixed formatting).
#ifndef PSP_SRC_INTROSPECT_PROMETHEUS_H_
#define PSP_SRC_INTROSPECT_PROMETHEUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/snapshot.h"

namespace psp {

// Sanitises an instrument name into a legal Prometheus metric-name fragment:
// every character outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// prefixed with '_'.
std::string PrometheusMetricName(const std::string& name);

// Escapes a label value: backslash, double quote and newline, per the text
// exposition format.
std::string PrometheusLabelEscape(const std::string& value);

// Renders the complete exposition page. Every metric is prefixed "psp_".
std::string RenderPrometheusText(const TelemetrySnapshot& snapshot);

// One sample line split into its parts.
struct PrometheusSample {
  std::string name;
  std::string labels;  // the label block without its braces; "" if absent
  std::string value;   // unchecked text after the separating space
};

// Splits a sample line `name[{labels}] value`. Returns "" on success, else
// the problem ("bad metric name", "unterminated labels", "missing value
// separator"). A `}` or `"` inside a quoted, escaped label value does not
// end the block.
std::string ParsePrometheusSample(const std::string& line,
                                  PrometheusSample* out);

// Validates a page: every non-blank line is a `# HELP` / `# TYPE` comment or
// a sample whose value parses as a number, no family is TYPEd twice, and at
// least one sample exists. Returns "" when valid, else the first problem.
std::string CheckExposition(const std::string& text);

// Merges the /metrics pages of N servers into one page (pspctl federate):
// every sample gains server="i" as its first label, each family's HELP/TYPE
// comes from the first page declaring it, counter families are summed into
// psp_fleet_* families per label set, then psp_fleet_servers N and one
// terminal psp_up.
std::string FederateMetrics(const std::vector<std::string>& pages);

// The fleet page: the same federation over RenderPrometheusText of every
// member, preceded by the dispatcher's own families — psp_fleet_policy,
// then its `counters` and `gauges` through the scalar path ("fleet.x" ->
// psp_fleet_x, "fleet.server.<N>.x" -> psp_fleet_server_x{server="N"}) —
// with each summary family's exact Histogram::Merge rollup labelled
// server="merged" inside its block.
std::string RenderFleetPrometheusText(
    const std::string& policy, const std::map<std::string, uint64_t>& counters,
    const std::map<std::string, int64_t>& gauges,
    const std::vector<TelemetrySnapshot>& servers);

}  // namespace psp

#endif  // PSP_SRC_INTROSPECT_PROMETHEUS_H_
