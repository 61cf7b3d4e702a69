// Per-type metrics are named one way: the request type is a `type` label,
// never part of a family name, whatever characters it carries. And each
// per-type record agrees across exporters: every snapshot counter and gauge
// appears on /metrics with its value, and every TypeIntervalStats field of
// the latest interval reads the same in the snapshot JSON, the CSV and
// /metrics — on the threaded runtime and on the simulator alike.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/core/scheduler.h"
#include "src/introspect/prometheus.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"
#include "src/sim/cluster.h"
#include "src/sim/metrics.h"
#include "src/sim/policies/persephone.h"
#include "src/telemetry/timeseries.h"

namespace psp {
namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) {
    out.push_back(part);
  }
  return out;
}

std::set<std::string> LineSet(const std::string& page) {
  const std::vector<std::string> lines = Split(page, '\n');
  return {lines.begin(), lines.end()};
}

std::string TypeLabel(const std::string& name) {
  return "type=\"" + PrometheusLabelEscape(name) + "\"";
}

// The series a snapshot counter or gauge renders as, spelled out here
// independently of the renderer: indexed prefixes fold into a label.
std::string ExpectedSeries(const std::string& name, const std::string& suffix) {
  const struct {
    const char* prefix;
    const char* family;
    const char* label;
    bool numeric;
  } folds[] = {
      {"worker.", "psp_worker_", "worker", true},
      {"ingress.shard.", "psp_ingress_shard_", "shard", true},
      {"fleet.server.", "psp_fleet_server_", "server", true},
      {"scheduler.type.", "psp_scheduler_type_", "type", false},
      {"engine.type.", "psp_engine_type_", "type", false},
      {"deadline.type.", "psp_deadline_type_", "type", false},
  };
  for (const auto& fold : folds) {
    const std::string prefix = fold.prefix;
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const size_t dot =
        fold.numeric ? name.find('.', prefix.size()) : name.rfind('.');
    const std::string index = name.substr(prefix.size(), dot - prefix.size());
    if (fold.numeric &&
        index.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    return fold.family + PrometheusMetricName(name.substr(dot + 1)) + suffix +
           "{" + fold.label + "=\"" + PrometheusLabelEscape(index) + "\"}";
  }
  return "psp_" + PrometheusMetricName(name) + suffix;
}

// Awkward request-type names: two that sanitise to the same metric-name
// fragment, one with the key separator, one that needs label escaping.
const std::vector<std::string> kAwkwardTypes = {"get-item", "get_item", "a.b",
                                                "a\"b"};

TEST(TypeLabel, AwkwardTypeNamesRenderOneValidPage) {
  SchedulerConfig config;
  config.mode = PolicyMode::kEdf;
  config.num_workers = 2;
  DarcScheduler scheduler(config);
  Metrics metrics;
  for (size_t i = 0; i < kAwkwardTypes.size(); ++i) {
    const TypeId wire = static_cast<TypeId>(i + 1);
    scheduler.RegisterType(wire, kAwkwardTypes[i], FromMicros(1), 0.25);
    metrics.RegisterType(wire, kAwkwardTypes[i]);
    metrics.RecordCompletion(wire, 0, FromMicros(2), FromMicros(1));
  }
  TelemetrySnapshot snap;
  scheduler.ExportTelemetry(&snap);
  metrics.ExportTelemetry(&snap);
  const std::string page = RenderPrometheusText(snap);
  ASSERT_EQ(CheckExposition(page), "");

  for (const std::string& line : Split(page, '\n')) {
    PrometheusSample sample;
    if (line.empty() || line[0] == '#' ||
        !ParsePrometheusSample(line, &sample).empty()) {
      continue;
    }
    // No type name (in its sanitised form) inside a family name...
    EXPECT_EQ(sample.name.find("get_item"), std::string::npos) << line;
    EXPECT_EQ(sample.name.find("a_b"), std::string::npos) << line;
    // ...and every per-type family carries the type as a label.
    for (const char* family :
         {"psp_scheduler_type_", "psp_engine_type_", "psp_deadline_type_"}) {
      if (sample.name.rfind(family, 0) == 0) {
        EXPECT_NE(sample.labels.find("type=\""), std::string::npos) << line;
      }
    }
  }
  const std::set<std::string> lines = LineSet(page);
  for (const std::string& name : kAwkwardTypes) {
    std::string label = "{";
    label += TypeLabel(name) + "}";
    EXPECT_TRUE(lines.count("psp_scheduler_type_queue_depth" + label + " 0"))
        << name;
    EXPECT_TRUE(
        lines.count("psp_scheduler_type_queue_drops_total" + label + " 0"))
        << name;
    EXPECT_TRUE(lines.count("psp_deadline_type_missed_total" + label + " 0"))
        << name;
    EXPECT_TRUE(
        lines.count("psp_engine_type_completed_total" + label + " 1"))
        << name;
    EXPECT_TRUE(lines.count("psp_engine_type_latency_count" + label + " 1"))
        << name;
    EXPECT_NE(page.find("\npsp_engine_type_latency{" + TypeLabel(name) +
                        ",quantile=\"0.99\"} "),
              std::string::npos)
        << name;
  }
}

// Every counter and gauge of `snap` is on its /metrics page under its folded
// name with the same value, and every field of the latest interval agrees
// across the snapshot JSON and /metrics.
void ExpectExportersAgree(const TelemetrySnapshot& snap) {
  const std::string page = RenderPrometheusText(snap);
  ASSERT_EQ(CheckExposition(page), "");
  const std::set<std::string> lines = LineSet(page);
  for (const auto& [name, value] : snap.counters) {
    const std::string series = ExpectedSeries(name, "_total");
    EXPECT_TRUE(lines.count(series + " " + std::to_string(value))) << series;
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string series = ExpectedSeries(name, "");
    EXPECT_TRUE(lines.count(series + " " + std::to_string(value))) << series;
  }

  ASSERT_FALSE(snap.timeseries.empty());
  const IntervalRecord& latest = snap.timeseries.back();
  ASSERT_FALSE(latest.types.empty());
  TelemetrySnapshot only_latest;
  only_latest.timeseries = {latest};
  only_latest.type_names = snap.type_names;
  const std::string json = only_latest.ToJson();

  for (const TypeIntervalStats& t : latest.types) {
    const std::string name = TypeNameOf(snap.type_names, t.type);
    const std::string object =
        json.substr(json.find("{\"type\":" + std::to_string(t.type) + ","));
    for (const TypeIntervalField& field : TypeIntervalFields()) {
      const std::string value = std::to_string(field.value(t));
      // JSON: within this type's object (before its closing brace).
      std::string key = "\"";
      key += std::string(field.key) + "\":";
      const size_t at = object.find(key);
      ASSERT_LT(at, object.find('}')) << field.key;
      const size_t begin = at + key.size();
      EXPECT_EQ(object.substr(begin, object.find_first_of(",}", begin) - begin),
                value)
          << field.key;
      // /metrics: the gauge, unless a skip rule omits it.
      bool omitted = field.skip_negative && field.value(t) < 0;
      if (field.skip_if_all_zero) {
        bool all_zero = true;
        for (const TypeIntervalStats& other : latest.types) {
          all_zero = all_zero && field.value(other) == 0;
        }
        omitted = omitted || all_zero;
      }
      const std::string series =
          std::string(field.metric) + "{" + TypeLabel(name) + "}";
      EXPECT_EQ(page.find("\n" + series + " ") != std::string::npos, !omitted)
          << series;
      EXPECT_EQ(lines.count(series + " " + value), omitted ? 0u : 1u)
          << series << " " << value;
    }
  }
}

TEST(ExporterAgreement, RingRuntimeWithDeadlineTier) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.pool_buffers = 1024;
  config.scheduler.mode = PolicyMode::kEdf;
  config.scheduler.deadline.targets.push_back({"SHORT", FromMicros(200), 0});
  config.scheduler.deadline.targets.push_back({"LONG", FromMicros(400), 0});
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 20 * kMillisecond;
  Persephone server(config);
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();
  LoadGenConfig lg;
  lg.rate_rps = 4000;
  lg.total_requests = 1000;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                     MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                    lg);
  gen.Run();
  server.Stop();

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_GT(snap.counter("deadline.stamped"), 0u);
  EXPECT_TRUE(snap.gauges.count("deadline.type.SHORT.budget_ns"));
  ExpectExportersAgree(snap);
}

// worker.N.busy_nanos and the time ledger are one busy time: the gauge is
// the ledger's busy + steal for that worker, in the same snapshot. The
// egress counters beside it count one send per served request, and all of
// them render through the worker fold on /metrics.
TEST(ExporterAgreement, RingRuntimeWorkerBusyIsTheLedgerBusy) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.pool_buffers = 1024;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 20 * kMillisecond;
  Persephone server(config);
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();
  LoadGenConfig lg;
  lg.rate_rps = 4000;
  lg.total_requests = 500;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                     MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                    lg);
  gen.Run();
  server.Stop();

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  ASSERT_EQ(snap.worker_time.size(), config.num_workers + 1u);
  uint64_t total_busy = 0;
  uint64_t total_sends = 0;
  for (uint32_t w = 0; w < config.num_workers; ++w) {
    const std::string prefix = "worker." + std::to_string(w);
    const std::string name = prefix + ".busy_nanos";
    ASSERT_TRUE(snap.gauges.count(name)) << name;
    total_busy += snap.worker_time[w].BusyNs();
    EXPECT_EQ(snap.gauges.at(name),
              static_cast<int64_t>(snap.worker_time[w].BusyNs()))
        << name;
    ASSERT_TRUE(snap.counters.count(prefix + ".egress_sends")) << prefix;
    ASSERT_TRUE(snap.counters.count(prefix + ".egress_nanos")) << prefix;
    const uint64_t sends = snap.counter(prefix + ".egress_sends");
    EXPECT_EQ(sends, snap.counter(prefix + ".requests")) << prefix;
    EXPECT_EQ(sends > 0, snap.counter(prefix + ".egress_nanos") > 0) << prefix;
    total_sends += sends;
  }
  EXPECT_GT(total_busy, 0u);
  EXPECT_EQ(total_sends, snap.counter("scheduler.completed"));
  ExpectExportersAgree(snap);
  const std::set<std::string> lines = LineSet(RenderPrometheusText(snap));
  EXPECT_TRUE(lines.count(
      "psp_worker_egress_sends_total{worker=\"0\"} " +
      std::to_string(snap.counter("worker.0.egress_sends"))));
}

TEST(ExporterAgreement, SimulatedEdfRun) {
  PersephoneOptions options;
  options.scheduler.mode = PolicyMode::kEdf;
  options.scheduler.deadline.targets.push_back({"SHORT", 0, 20.0});
  options.scheduler.deadline.targets.push_back({"LONG", 0, 1.4});
  ClusterConfig config;
  config.num_workers = 8;
  config.rate_rps = 0.85 * HighBimodal().PeakLoadRps(8);
  config.duration = 40 * kMillisecond;
  config.seed = 11;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 5 * kMillisecond;
  config.telemetry.timeseries.slowdown_sample_every = 1;
  ClusterEngine engine(HighBimodal(), config,
                       std::make_unique<PersephonePolicy>(options));
  engine.Run();

  const TelemetrySnapshot snap = engine.telemetry_snapshot();
  EXPECT_GT(snap.counter("deadline.missed"), 0u);
  ExpectExportersAgree(snap);
}

}  // namespace
}  // namespace psp
