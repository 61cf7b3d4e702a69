// Format contract for the Prometheus text exposition module
// (src/introspect/prometheus.h): name sanitisation, label escaping, counter
// vs gauge vs summary shapes, worker-label folding, latest-interval gauges,
// byte determinism, the page validator and the federation.
#include "src/introspect/prometheus.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/telemetry/snapshot.h"

namespace psp {
namespace {

// Splits the exposition into lines for targeted assertions.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    out.push_back(line);
  }
  return out;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(Prometheus, MetricNameSanitisation) {
  EXPECT_EQ(PrometheusMetricName("scheduler.dispatched"),
            "scheduler_dispatched");
  EXPECT_EQ(PrometheusMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(PrometheusMetricName("ns:metric"), "ns:metric");
  // Leading digit gets an underscore prefix.
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(PrometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(PrometheusLabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusLabelEscape("a\nb"), "a\\nb");
}

TEST(Prometheus, CounterGaugeSummaryShapes) {
  TelemetrySnapshot snap;
  snap.counters["scheduler.dispatched"] = 42;
  snap.gauges["engine.num_workers"] = 14;
  snap.histograms["latency"].Add(1000);
  snap.histograms["latency"].Add(3000);

  const std::string text = RenderPrometheusText(snap);

  // Counter: HELP + TYPE + _total suffix.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_scheduler_dispatched_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_scheduler_dispatched_total 42\n"));
  // Gauge: no suffix.
  EXPECT_TRUE(Contains(text, "# TYPE psp_engine_num_workers gauge\n"));
  EXPECT_TRUE(Contains(text, "\npsp_engine_num_workers 14\n"));
  // Summary: quantiles + _sum + _count.
  EXPECT_TRUE(Contains(text, "# TYPE psp_latency summary\n"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.5\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.99\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency{quantile=\"0.999\"}"));
  EXPECT_TRUE(Contains(text, "psp_latency_sum 4000\n"));
  EXPECT_TRUE(Contains(text, "psp_latency_count 2\n"));
  // Liveness marker always present.
  EXPECT_TRUE(Contains(text, "\npsp_up 1\n"));
}

TEST(Prometheus, WorkerMetricsFoldIntoLabels) {
  TelemetrySnapshot snap;
  snap.counters["worker.0.requests"] = 10;
  snap.counters["worker.3.requests"] = 30;
  snap.gauges["worker.0.busy_permille"] = 512;

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(
      Contains(text, "psp_worker_requests_total{worker=\"0\"} 10\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_requests_total{worker=\"3\"} 30\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_busy_permille{worker=\"0\"} 512\n"));
  // The folded family gets exactly one TYPE header.
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_worker_requests_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);
  // The raw dotted name must not leak through.
  EXPECT_FALSE(Contains(text, "worker_0_requests"));
}

// Golden-format contract for the socket-ingress counter families the
// runtime folds out of UdpIngressStats: flat ingress.* counters plus the
// per-shard rx fold into a shard label.
TEST(Prometheus, IngressCountersGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["ingress.rx_datagrams"] = 1000;
  snap.counters["ingress.malformed"] = 7;
  snap.counters["ingress.ring_full_drops"] = 2;
  snap.counters["ingress.tx_datagrams"] = 998;
  snap.counters["ingress.tx_drops"] = 0;
  snap.counters["ingress.poll_sleeps"] = 55;
  snap.counters["ingress.poll_slept_nanos"] = 123456;
  snap.counters["ingress.shard.0.rx_datagrams"] = 600;
  snap.counters["ingress.shard.1.rx_datagrams"] = 400;

  const std::string text = RenderPrometheusText(snap);

  // Flat families: HELP + TYPE + _total, exact sample lines.
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_rx_datagrams_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_rx_datagrams_total 1000\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_malformed_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_malformed_total 7\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_ring_full_drops_total 2\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_tx_datagrams_total 998\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_tx_drops_total 0\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_ingress_poll_sleeps_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_poll_sleeps_total 55\n"));
  EXPECT_TRUE(Contains(text, "\npsp_ingress_poll_slept_nanos_total 123456\n"));

  // Per-shard rx folds into one family with a shard label, like workers.
  EXPECT_TRUE(Contains(
      text, "psp_ingress_shard_rx_datagrams_total{shard=\"0\"} 600\n"));
  EXPECT_TRUE(Contains(
      text, "psp_ingress_shard_rx_datagrams_total{shard=\"1\"} 400\n"));
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_ingress_shard_rx_datagrams_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);
  // The raw dotted per-shard name must not leak through as a flat metric.
  EXPECT_FALSE(Contains(text, "ingress_shard_0_rx_datagrams"));
}

// The event-queue surface (ClusterEngine::telemetry_snapshot in
// owned-simulation mode): engine counters as psp_sim_engine_*_total, the
// pending depth as a gauge.
TEST(Prometheus, SimEngineGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["sim.engine.executed"] = 123456;
  snap.counters["sim.engine.cascades"] = 789;
  snap.counters["sim.engine.rollovers"] = 42;
  snap.counters["sim.engine.arena_allocations"] = 9;
  snap.gauges["sim.engine.pending_events"] = 77;

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_executed_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_executed_total 123456\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_cascades_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_cascades_total 789\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_rollovers_total 42\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_arena_allocations_total 9\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_sim_engine_pending_events gauge\n"));
  EXPECT_TRUE(Contains(text, "\npsp_sim_engine_pending_events 77\n"));
}

// Golden-format contract for the deadline-tier families: flat totals render
// through the generic counter path, the per-type deadline.type.<name>.* keys
// fold into a type label, and dispatch-time slack comes out as a sum/count
// gauge pair (negative sums allowed). Deadline-free snapshots render none of
// it.
TEST(Prometheus, DeadlineFamiliesGoldenFormat) {
  TelemetrySnapshot snap;
  snap.counters["deadline.stamped"] = 900;
  snap.counters["deadline.missed"] = 12;
  snap.counters["deadline.met"] = 888;
  snap.counters["deadline.shed"] = 5;
  snap.counters["deadline.type.SHORT.missed"] = 2;
  snap.counters["deadline.type.SHORT.shed"] = 0;
  snap.gauges["deadline.type.SHORT.slack_ns_sum"] = 123456;
  snap.gauges["deadline.type.SHORT.slack_ns_count"] = 450;
  snap.gauges["deadline.type.SHORT.budget_ns"] = 20000;
  snap.counters["deadline.type.LONG.missed"] = 10;
  snap.counters["deadline.type.LONG.shed"] = 5;
  // Dispatches past the deadline.
  snap.gauges["deadline.type.LONG.slack_ns_sum"] = -789;
  snap.gauges["deadline.type.LONG.slack_ns_count"] = 440;
  snap.gauges["deadline.type.LONG.budget_ns"] = 150000;

  const std::string text = RenderPrometheusText(snap);

  // Flat totals via the generic counter renderer.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_deadline_stamped_total counter\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_stamped_total 900\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_missed_total 12\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_met_total 888\n"));
  EXPECT_TRUE(Contains(text, "\npsp_deadline_shed_total 5\n"));

  // Per-type folds with a type label, one TYPE header per family.
  EXPECT_TRUE(Contains(text,
                       "# TYPE psp_deadline_type_missed_total counter\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_missed_total{type=\"SHORT\"} 2\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_missed_total{type=\"LONG\"} 10\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_shed_total{type=\"LONG\"} 5\n"));
  EXPECT_TRUE(Contains(text, "# TYPE psp_deadline_type_budget_ns gauge\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_budget_ns{type=\"SHORT\"} 20000\n"));

  // Slack gauges: per-type sum/count, negative sums render as-is.
  EXPECT_TRUE(
      Contains(text, "# TYPE psp_deadline_type_slack_ns_sum gauge\n"));
  EXPECT_TRUE(
      Contains(text, "# TYPE psp_deadline_type_slack_ns_count gauge\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_slack_ns_sum{type=\"SHORT\"} 123456\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_slack_ns_count{type=\"SHORT\"} 450\n"));
  EXPECT_TRUE(
      Contains(text, "psp_deadline_type_slack_ns_sum{type=\"LONG\"} -789\n"));
  size_t headers = 0;
  for (const std::string& line : Lines(text)) {
    if (line == "# TYPE psp_deadline_type_missed_total counter") {
      ++headers;
    }
  }
  EXPECT_EQ(headers, 1u);

  // A deadline-free snapshot renders no deadline family at all — the tier is
  // pay-for-what-you-use and existing scrapes stay byte-identical.
  const std::string bare = RenderPrometheusText(TelemetrySnapshot{});
  EXPECT_FALSE(Contains(bare, "psp_deadline"));
}

// Interval deadline gauges ride the latest time-series record and are
// omitted entirely for deadline-free intervals (skip-if-all-zero).
TEST(Prometheus, DeadlineIntervalGauges) {
  TelemetrySnapshot snap;
  snap.type_names[1] = "SHORT";
  snap.type_names[2] = "LONG";
  IntervalRecord rec;
  rec.seq = 3;
  TypeIntervalStats s1;
  s1.type = 1;
  s1.deadline_misses = 4;
  s1.deadline_sheds = 1;
  TypeIntervalStats s2;
  s2.type = 2;
  rec.types = {s1, s2};
  snap.timeseries.push_back(rec);

  const std::string text = RenderPrometheusText(snap);
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_interval_misses{type=\"SHORT\"} 4\n"));
  EXPECT_TRUE(Contains(
      text, "psp_deadline_type_interval_sheds{type=\"SHORT\"} 1\n"));

  // All-zero interval: the families disappear from the scrape.
  TelemetrySnapshot quiet;
  quiet.type_names[1] = "SHORT";
  IntervalRecord calm;
  calm.seq = 4;
  TypeIntervalStats c1;
  c1.type = 1;
  c1.arrivals = 10;
  calm.types = {c1};
  quiet.timeseries.push_back(calm);
  const std::string quiet_text = RenderPrometheusText(quiet);
  EXPECT_FALSE(Contains(quiet_text, "psp_deadline_type_interval"));
}

TEST(Prometheus, LatestIntervalPerTypeGauges) {
  TelemetrySnapshot snap;
  snap.type_names[0] = "SHORT";
  snap.type_names[1] = "LO\"NG";  // exercises label escaping in type names

  IntervalRecord rec;
  rec.seq = 7;
  rec.end = 123456789;
  rec.arrival_rate_rps = 1000.5;
  rec.completion_rate_rps = 999.5;
  rec.reservation_updates = 2;
  TypeIntervalStats s0;
  s0.type = 0;
  s0.arrivals = 90;
  s0.completions = 88;
  s0.queue_depth = 4;
  s0.reserved_workers = 1;
  s0.slowdown_p99_milli = 1500;
  TypeIntervalStats s1;
  s1.type = 1;
  s1.arrivals = 10;
  s1.queue_depth = -1;  // sentinel: engine provided no sampler
  s1.reserved_workers = -1;
  rec.types = {s0, s1};
  rec.worker_busy_permille = {250, 750};
  snap.timeseries.push_back(rec);

  const std::string text = RenderPrometheusText(snap);

  EXPECT_TRUE(Contains(text, "\npsp_interval_seq 7\n"));
  EXPECT_TRUE(
      Contains(text, "psp_type_interval_arrivals{type=\"SHORT\"} 90\n"));
  EXPECT_TRUE(
      Contains(text, "psp_type_interval_arrivals{type=\"LO\\\"NG\"} 10\n"));
  EXPECT_TRUE(Contains(text, "psp_type_queue_depth{type=\"SHORT\"} 4\n"));
  // -1 sentinels are omitted, not rendered.
  EXPECT_FALSE(Contains(text, "psp_type_queue_depth{type=\"LO\\\"NG\"}"));
  EXPECT_TRUE(
      Contains(text, "psp_type_slowdown_p99_milli{type=\"SHORT\"} 1500\n"));
  EXPECT_TRUE(
      Contains(text, "psp_worker_interval_busy_permille{worker=\"1\"} 750\n"));
}

TEST(Prometheus, OnlyLatestIntervalRendered) {
  TelemetrySnapshot snap;
  IntervalRecord old;
  old.seq = 1;
  IntervalRecord latest;
  latest.seq = 2;
  snap.timeseries = {old, latest};
  const std::string text = RenderPrometheusText(snap);
  EXPECT_TRUE(Contains(text, "\npsp_interval_seq 2\n"));
  EXPECT_FALSE(Contains(text, "\npsp_interval_seq 1\n"));
}

TEST(Prometheus, EveryLineWellFormed) {
  TelemetrySnapshot snap;
  snap.counters["a.b"] = 1;
  snap.gauges["worker.2.depth"] = 3;
  snap.histograms["h"].Add(5);
  EXPECT_EQ(CheckExposition(RenderPrometheusText(snap)), "");
}

TEST(Prometheus, ByteDeterministic) {
  TelemetrySnapshot snap;
  snap.counters["x"] = 1;
  snap.counters["worker.0.requests"] = 2;
  snap.gauges["g"] = -5;
  snap.histograms["h"].Add(7);
  snap.type_names[3] = "T";
  IntervalRecord rec;
  rec.seq = 1;
  TypeIntervalStats t;
  t.type = 3;
  t.arrivals = 9;
  rec.types.push_back(t);
  snap.timeseries.push_back(rec);

  EXPECT_EQ(RenderPrometheusText(snap), RenderPrometheusText(snap));
}

TEST(Exposition, ParsesSampleParts) {
  PrometheusSample sample;
  EXPECT_EQ(ParsePrometheusSample("psp_x 42", &sample), "");
  EXPECT_EQ(sample.name, "psp_x");
  EXPECT_EQ(sample.labels, "");
  EXPECT_EQ(sample.value, "42");
  // `}` and `"` inside a quoted, escaped label value stay in the block.
  EXPECT_EQ(ParsePrometheusSample(
                "psp_x{a=\"}\",b=\"q\\\"z\",c=\"\\\\\"} -1.5e3", &sample),
            "");
  EXPECT_EQ(sample.name, "psp_x");
  EXPECT_EQ(sample.labels, "a=\"}\",b=\"q\\\"z\",c=\"\\\\\"");
  EXPECT_EQ(sample.value, "-1.5e3");
}

TEST(Exposition, AcceptsWellFormedPages) {
  EXPECT_EQ(CheckExposition("# HELP psp_x a counter\n"
                            "# TYPE psp_x counter\n"
                            "psp_x{a=\"}\",b=\"q\\\"z\"} 1\n"
                            "\n"
                            "ns:psp_y NaN\n"
                            "psp_z +Inf"),
            "");
}

TEST(Exposition, RejectsMalformedNames) {
  EXPECT_EQ(CheckExposition("9psp 1\n"), "line 1: bad metric name");
  EXPECT_EQ(CheckExposition("psp_ok 1\n{a=\"b\"} 1\n"),
            "line 2: bad metric name");
  EXPECT_EQ(CheckExposition(" psp_x 1\n"), "line 1: bad metric name");
  EXPECT_EQ(CheckExposition("psp-x 1\n"), "line 1: missing value separator");
}

TEST(Exposition, RejectsUnterminatedLabels) {
  EXPECT_EQ(CheckExposition("psp_x{a=\"b\" 1\n"),
            "line 1: unterminated labels");
  // The closing brace sits inside an unterminated quoted value.
  EXPECT_EQ(CheckExposition("psp_x{a=\"b} 1\n"),
            "line 1: unterminated labels");
  // An escaped quote does not close the value.
  EXPECT_EQ(CheckExposition("psp_x{a=\"b\\\"} 1\n"),
            "line 1: unterminated labels");
}

TEST(Exposition, RejectsBadValues) {
  EXPECT_EQ(CheckExposition("psp_x abc\n"), "line 1: bad sample value \"abc\"");
  EXPECT_EQ(CheckExposition("psp_x 1 2\n"), "line 1: bad sample value \"1 2\"");
  EXPECT_EQ(CheckExposition("psp_x \n"), "line 1: bad sample value \"\"");
  EXPECT_EQ(CheckExposition("psp_x\n"), "line 1: missing value separator");
  EXPECT_EQ(CheckExposition("psp_x{a=\"b\"}1\n"),
            "line 1: missing value separator");
}

TEST(Exposition, RejectsStrayComments) {
  EXPECT_EQ(CheckExposition("# a note\npsp_x 1\n"),
            "line 1: comment is neither HELP nor TYPE");
  EXPECT_EQ(CheckExposition("psp_x 1\n#TYPE psp_x gauge\n"),
            "line 2: comment is neither HELP nor TYPE");
}

TEST(Exposition, RejectsEmptyPages) {
  EXPECT_EQ(CheckExposition(""), "no samples in exposition");
  EXPECT_EQ(CheckExposition("\n\n"), "no samples in exposition");
  EXPECT_EQ(CheckExposition("# HELP psp_x x\n# TYPE psp_x gauge\n"),
            "no samples in exposition");
}

TEST(Exposition, RejectsFamilyTypedTwice) {
  EXPECT_EQ(CheckExposition("# TYPE psp_x gauge\npsp_x 1\n"
                            "# TYPE psp_y gauge\npsp_y 1\n"
                            "# TYPE psp_x gauge\npsp_x 2\n"),
            "line 5: second TYPE for family psp_x");
  // A repeated HELP alone is tolerated.
  EXPECT_EQ(CheckExposition("# HELP psp_x a\n# HELP psp_x b\npsp_x 1\n"), "");
}

// Two fixed member pages and their federation, recorded from the federator
// as it stood inside pspctl before it moved into this module.
const std::vector<std::string>& FederationInputs() {
  static const std::vector<std::string> pages = {
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total 10\n"
      "# HELP psp_worker_requests_total counter per worker\n"
      "# TYPE psp_worker_requests_total counter\n"
      "psp_worker_requests_total{worker=\"0\"} 4\n"
      "psp_worker_requests_total{worker=\"1\"} 6\n"
      "# TYPE psp_seconds_total counter\n"
      "psp_seconds_total{type=\"a\\\"b\"} 1.5\n"
      "# HELP psp_depth gauge \"depth\"\n"
      "# TYPE psp_depth gauge\n"
      "psp_depth 3\n"
      "# HELP psp_latency latency as quantile summary\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{quantile=\"0.5\"} 1000\n"
      "psp_latency{quantile=\"0.99\"} 3000\n"
      "psp_latency_sum 4000\n"
      "psp_latency_count 2\n"
      "psp_up 1\n",
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total 5\n"
      "# TYPE psp_worker_requests_total counter\n"
      "psp_worker_requests_total{worker=\"0\"} 5\n"
      "# HELP psp_seconds_total seconds per type\n"
      "# TYPE psp_seconds_total counter\n"
      "psp_seconds_total{type=\"a\\\"b\"} 0.25\n"
      "# HELP psp_latency latency as quantile summary\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{quantile=\"0.5\"} 2000\n"
      "psp_latency{quantile=\"0.99\"} 2000\n"
      "psp_latency_sum 2000\n"
      "psp_latency_count 1\n"
      "# HELP psp_only_b_total counter seen on one page\n"
      "# TYPE psp_only_b_total counter\n"
      "psp_only_b_total 7\n"
      "psp_up 1\n"};
  return pages;
}

TEST(Federation, MatchesPinnedOutput) {
  const std::string expected =
      "# HELP psp_requests_total counter \"requests\"\n"
      "# TYPE psp_requests_total counter\n"
      "psp_requests_total{server=\"0\"} 10\n"
      "psp_requests_total{server=\"1\"} 5\n"
      "# HELP psp_worker_requests_total counter per worker\n"
      "# TYPE psp_worker_requests_total counter\n"
      "psp_worker_requests_total{server=\"0\",worker=\"0\"} 4\n"
      "psp_worker_requests_total{server=\"0\",worker=\"1\"} 6\n"
      "psp_worker_requests_total{server=\"1\",worker=\"0\"} 5\n"
      "# HELP psp_seconds_total seconds per type\n"
      "# TYPE psp_seconds_total counter\n"
      "psp_seconds_total{server=\"0\",type=\"a\\\"b\"} 1.5\n"
      "psp_seconds_total{server=\"1\",type=\"a\\\"b\"} 0.25\n"
      "# HELP psp_depth gauge \"depth\"\n"
      "# TYPE psp_depth gauge\n"
      "psp_depth{server=\"0\"} 3\n"
      "# HELP psp_latency latency as quantile summary\n"
      "# TYPE psp_latency summary\n"
      "psp_latency{server=\"0\",quantile=\"0.5\"} 1000\n"
      "psp_latency{server=\"0\",quantile=\"0.99\"} 3000\n"
      "psp_latency{server=\"1\",quantile=\"0.5\"} 2000\n"
      "psp_latency{server=\"1\",quantile=\"0.99\"} 2000\n"
      "psp_latency_sum{server=\"0\"} 4000\n"
      "psp_latency_sum{server=\"1\"} 2000\n"
      "psp_latency_count{server=\"0\"} 2\n"
      "psp_latency_count{server=\"1\"} 1\n"
      "# HELP psp_only_b_total counter seen on one page\n"
      "# TYPE psp_only_b_total counter\n"
      "psp_only_b_total{server=\"1\"} 7\n"
      "# HELP psp_fleet_requests_total Sum of psp_requests_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_requests_total counter\n"
      "psp_fleet_requests_total 15\n"
      "# HELP psp_fleet_worker_requests_total Sum of "
      "psp_worker_requests_total across federated servers.\n"
      "# TYPE psp_fleet_worker_requests_total counter\n"
      "psp_fleet_worker_requests_total{worker=\"0\"} 9\n"
      "psp_fleet_worker_requests_total{worker=\"1\"} 6\n"
      "# HELP psp_fleet_seconds_total Sum of psp_seconds_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_seconds_total counter\n"
      "psp_fleet_seconds_total{type=\"a\\\"b\"} 1.75\n"
      "# HELP psp_fleet_only_b_total Sum of psp_only_b_total across "
      "federated servers.\n"
      "# TYPE psp_fleet_only_b_total counter\n"
      "psp_fleet_only_b_total 7\n"
      "# HELP psp_fleet_servers Endpoints merged into this page.\n"
      "# TYPE psp_fleet_servers gauge\n"
      "psp_fleet_servers 2\n"
      "psp_up 1\n";
  const std::string merged = FederateMetrics(FederationInputs());
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(CheckExposition(merged), "");
}

TEST(Federation, RenderedPagesFederateToAValidPage) {
  TelemetrySnapshot a;
  a.counters["scheduler.dispatched"] = 3;
  a.counters["worker.0.requests"] = 3;
  a.histograms["latency"].Add(1000);
  TelemetrySnapshot b = a;
  b.counters["scheduler.dispatched"] = 4;
  const std::string merged =
      FederateMetrics({RenderPrometheusText(a), RenderPrometheusText(b)});
  EXPECT_EQ(CheckExposition(merged), "");
  EXPECT_TRUE(Contains(merged, "\npsp_fleet_scheduler_dispatched_total 7\n"));
  EXPECT_TRUE(
      Contains(merged, "\npsp_fleet_worker_requests_total{worker=\"0\"} 6\n"));
  EXPECT_TRUE(Contains(merged, "\npsp_latency_count{server=\"1\"} 1\n"));
  // Each page's own psp_up collapses into one terminal sample.
  EXPECT_EQ(merged.find("psp_up"), merged.rfind("psp_up"));
  EXPECT_TRUE(merged.size() >= 9 &&
              merged.compare(merged.size() - 9, 9, "psp_up 1\n") == 0);
}

// Indexed fleet-dispatcher names fold into a server label, like workers.
TEST(Prometheus, FleetServerMetricsFoldIntoLabels) {
  TelemetrySnapshot snap;
  snap.counters["fleet.server.0.dispatched"] = 5;
  snap.counters["fleet.server.1.dispatched"] = 6;
  const std::string text = RenderPrometheusText(snap);
  EXPECT_TRUE(Contains(
      text, "\npsp_fleet_server_dispatched_total{server=\"0\"} 5\n"));
  EXPECT_TRUE(Contains(
      text, "\npsp_fleet_server_dispatched_total{server=\"1\"} 6\n"));
  EXPECT_FALSE(Contains(text, "fleet_server_0"));
}

}  // namespace
}  // namespace psp
