// Unit tests for the windowed time-series recorder, the SLO monitor, and the
// flight recorder (src/telemetry/{timeseries,slo}.h).
#include "src/telemetry/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/telemetry/slo.h"
#include "src/telemetry/telemetry.h"

namespace psp {
namespace {

TimeSeriesConfig SmallConfig() {
  TimeSeriesConfig config;
  config.enabled = true;
  config.interval = 1000;  // 1 µs intervals keep the test arithmetic obvious
  config.capacity = 4;
  config.slowdown_sample_every = 1;
  return config;
}

// --- SlotHistogram ----------------------------------------------------------

TEST(SlotHistogram, SmallValuesAreExact) {
  for (uint64_t v = 0; v < SlotHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(SlotHistogram::ValueFor(SlotHistogram::IndexFor(v)),
              static_cast<int64_t>(v));
  }
}

TEST(SlotHistogram, LargeValuesKeepRelativePrecision) {
  for (uint64_t v : {100ull, 5000ull, 123456ull, 1ull << 40}) {
    const size_t idx = SlotHistogram::IndexFor(v);
    ASSERT_LT(idx, SlotHistogram::kSlots);
    const int64_t rep = SlotHistogram::ValueFor(idx);
    // The representative is the slot's upper bound: >= v, within ~2/kSubBuckets.
    EXPECT_GE(rep, static_cast<int64_t>(v));
    EXPECT_LE(static_cast<double>(rep), static_cast<double>(v) * 1.07);
  }
}

TEST(SlotHistogram, IndexIsMonotonic) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 37) {
    const size_t idx = SlotHistogram::IndexFor(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(DeltaPercentile, PicksRankedValue) {
  uint64_t delta[SlotHistogram::kSlots] = {};
  // Ten samples of value 5, ten of value 20 (both exact slots).
  delta[SlotHistogram::IndexFor(5)] = 10;
  delta[SlotHistogram::IndexFor(20)] = 10;
  EXPECT_EQ(DeltaPercentile(delta, SlotHistogram::kSlots, 50), 5);
  EXPECT_EQ(DeltaPercentile(delta, SlotHistogram::kSlots, 99), 20);
  uint64_t empty[SlotHistogram::kSlots] = {};
  EXPECT_EQ(DeltaPercentile(empty, SlotHistogram::kSlots, 99), 0);
}

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesRecorder, IntervalsAreDeltasOnAGrid) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  const size_t b = rec.RegisterSeries(2, "B");

  // First record pins the grid to floor(now / interval) = 0.
  rec.RecordArrival(a, 100);
  rec.RecordArrival(a, 200);
  rec.RecordArrival(b, 300);
  rec.RecordCompletion(a, /*latency=*/500, /*service=*/100, /*now=*/600);

  // Crossing the boundary closes [0, 1000).
  rec.RecordArrival(a, 1100);
  auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].seq, 0u);
  EXPECT_EQ(history[0].start, 0);
  EXPECT_EQ(history[0].end, 1000);
  ASSERT_EQ(history[0].types.size(), 2u);
  EXPECT_EQ(history[0].types[a].arrivals, 2u);
  EXPECT_EQ(history[0].types[a].completions, 1u);
  EXPECT_EQ(history[0].types[b].arrivals, 1u);
  EXPECT_EQ(history[0].types[b].completions, 0u);
  // slowdown = 500/100 = 5.0x → 5000 milli, exact-ish in the log-linear grid.
  EXPECT_GE(history[0].types[a].slowdown_p50_milli, 5000);
  EXPECT_LE(history[0].types[a].slowdown_p50_milli, 5200);

  // The second interval only saw the one arrival at t=1100 (deltas, not
  // cumulative values).
  rec.Roll(2000);
  history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].seq, 1u);
  EXPECT_EQ(history[1].types[a].arrivals, 1u);
  EXPECT_EQ(history[1].types[a].completions, 0u);
}

TEST(TimeSeriesRecorder, FlushClosesPartialInterval) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.RecordArrival(a, 100);
  const auto closed = rec.Roll(450, /*flush=*/true);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].start, 0);
  EXPECT_EQ(closed[0].end, 450);
  EXPECT_EQ(closed[0].types[a].arrivals, 1u);
  // The grid is unchanged: the next close still lands on the 1000 boundary.
  rec.RecordArrival(a, 500);
  rec.Roll(1000);
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].start, 450);
  EXPECT_EQ(history[1].end, 1000);
}

TEST(TimeSeriesRecorder, CapacityBoundsHistory) {
  TimeSeriesRecorder rec(SmallConfig());  // capacity 4
  rec.RegisterSeries(1, "A");
  rec.Roll(100);  // align
  for (Nanos t = 1000; t <= 7000; t += 1000) {
    rec.Roll(t);
  }
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(rec.intervals_closed(), 7u);
  // Oldest dropped first: the retained window is the last four.
  EXPECT_EQ(history.front().seq, 3u);
  EXPECT_EQ(history.back().seq, 6u);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, history[i - 1].seq + 1);
    EXPECT_EQ(history[i].start, history[i - 1].end);
  }
}

TEST(TimeSeriesRecorder, LongIdleGapRealignsInsteadOfGrinding) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.RecordArrival(a, 100);
  // A gap far beyond capacity*interval: one stale close + realign.
  rec.Roll(1000 * 1000);
  auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].types[a].arrivals, 1u);
  // The grid resumed at the new position.
  rec.RecordArrival(a, 1000 * 1000 + 10);
  rec.Roll(1000 * 1000 + 1000);
  history = rec.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].types[a].arrivals, 1u);
}

TEST(TimeSeriesRecorder, ViolationCountingUsesTarget) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.SetSlowdownTarget(a, 10.0);
  rec.RecordCompletion(a, /*latency=*/500, /*service=*/100, 100);   // 5x: ok
  rec.RecordCompletion(a, /*latency=*/2000, /*service=*/100, 200);  // 20x!
  rec.RecordCompletion(a, /*latency=*/1000, /*service=*/100, 300);  // 10x: ok
  rec.Roll(1000);
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].types[a].completions, 3u);
  EXPECT_EQ(history[0].types[a].slo_violations, 1u);
}

TEST(TimeSeriesRecorder, GaugeSamplerStampsIntervals) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.set_gauge_sampler([](IntervalRecord* record) {
    for (auto& t : record->types) {
      t.queue_depth = 7;
      t.reserved_workers = 3;
    }
    record->worker_busy_permille = {250, 750};
  });
  rec.RecordArrival(a, 100);
  rec.Roll(1000);
  const auto history = rec.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].types[a].queue_depth, 7);
  EXPECT_EQ(history[0].types[a].reserved_workers, 3);
  ASSERT_EQ(history[0].worker_busy_permille.size(), 2u);
  EXPECT_EQ(history[0].worker_busy_permille[1], 750);
  // Without a sampler the gauges stay at the -1 sentinel.
  TimeSeriesRecorder bare(SmallConfig());
  const size_t slot = bare.RegisterSeries(1, "A");
  bare.RecordArrival(slot, 100);
  bare.Roll(1000);
  EXPECT_EQ(bare.History()[0].types[slot].queue_depth, -1);
}

TEST(TimeSeriesRecorder, CsvSchemaIsStable) {
  TimeSeriesRecorder rec(SmallConfig());
  const size_t a = rec.RegisterSeries(1, "A");
  rec.RecordArrival(a, 100);
  rec.Roll(1000);
  const std::string csv = rec.ToCsv();
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "seq,start_ns,end_ns,type,name,arrivals,completions,drops,"
            "slo_violations,deadline_misses,deadline_sheds,queue_depth,"
            "reserved_workers,slowdown_samples,"
            "slowdown_p50_milli,slowdown_p99_milli,slowdown_p999_milli,"
            "interval_reservation_updates,arrival_rps,completion_rps,"
            "worker_busy_permille");
  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_NE(row.find(",A,"), std::string::npos);
}

TEST(TimeSeriesRecorder, SamplingCadenceIsRespected) {
  TimeSeriesConfig config = SmallConfig();
  config.slowdown_sample_every = 4;
  TimeSeriesRecorder rec(config);
  const size_t a = rec.RegisterSeries(1, "A");
  for (int i = 0; i < 16; ++i) {
    rec.RecordCompletion(a, 200, 100, 100 + i);
  }
  rec.Roll(1000);
  const auto history = rec.History();
  EXPECT_EQ(history[0].types[a].completions, 16u);
  EXPECT_EQ(history[0].types[a].slowdown_samples, 4u);
}

// --- SloMonitor -------------------------------------------------------------

SloConfig MonitorConfig() {
  SloConfig config;
  config.targets.push_back(SloTarget{"A", 10.0, 0.01});
  config.window_intervals = 2;
  config.burn_rate_alert = 1.0;
  config.min_window_completions = 10;
  config.cooldown_intervals = 4;
  return config;
}

IntervalRecord MakeInterval(uint64_t seq, uint64_t completions,
                            uint64_t violations) {
  IntervalRecord rec;
  rec.seq = seq;
  rec.start = static_cast<Nanos>(seq) * 1000;
  rec.end = rec.start + 1000;
  TypeIntervalStats t;
  t.type = 1;
  t.completions = completions;
  t.slo_violations = violations;
  rec.types.push_back(t);
  return rec;
}

TEST(SloMonitor, AlertsOnBurnRateAndCoolsDown) {
  SloMonitor monitor(MonitorConfig());
  EXPECT_DOUBLE_EQ(monitor.TargetSlowdownFor("A"), 10.0);
  EXPECT_DOUBLE_EQ(monitor.TargetSlowdownFor("Z"), 0.0);
  const std::map<uint32_t, std::string> names = {{1, "A"}};

  // 5/100 violations against a 1% budget → burn rate 5.0 ≥ 1.0.
  auto alerts = monitor.OnInterval(MakeInterval(0, 100, 5), names);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].type_name, "A");
  EXPECT_NEAR(alerts[0].burn_rate, 5.0, 1e-9);
  EXPECT_EQ(alerts[0].interval_seq, 0u);
  EXPECT_EQ(alerts[0].window_violations, 5u);

  // Cooldown: same breach in the next interval stays silent.
  alerts = monitor.OnInterval(MakeInterval(1, 100, 5), names);
  EXPECT_TRUE(alerts.empty());

  // Past the cooldown (4 intervals), it re-alerts.
  alerts = monitor.OnInterval(MakeInterval(5, 100, 5), names);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(monitor.alerts_total(), 2u);
  EXPECT_EQ(monitor.alerts().size(), 2u);
}

TEST(SloMonitor, RespectsMinWindowCompletions) {
  SloMonitor monitor(MonitorConfig());
  const std::map<uint32_t, std::string> names = {{1, "A"}};
  // 100% violating, but only 5 completions (< min 10): startup noise guard.
  const auto alerts = monitor.OnInterval(MakeInterval(0, 5, 5), names);
  EXPECT_TRUE(alerts.empty());
}

TEST(SloMonitor, WithinBudgetStaysSilent) {
  SloMonitor monitor(MonitorConfig());
  const std::map<uint32_t, std::string> names = {{1, "A"}};
  for (uint64_t seq = 0; seq < 8; ++seq) {
    // 0.5% violating against a 1% budget → burn rate 0.5 < 1.0.
    const auto alerts = monitor.OnInterval(MakeInterval(seq, 1000, 5), names);
    EXPECT_TRUE(alerts.empty()) << "seq " << seq;
  }
  EXPECT_EQ(monitor.alerts_total(), 0u);
}

TEST(SloMonitor, TakeUndumpedDrainsOnce) {
  SloMonitor monitor(MonitorConfig());
  const std::map<uint32_t, std::string> names = {{1, "A"}};
  monitor.OnInterval(MakeInterval(0, 100, 50), names);
  auto undumped = monitor.TakeUndumped();
  ASSERT_EQ(undumped.size(), 1u);
  EXPECT_TRUE(monitor.TakeUndumped().empty());
  // The permanent alert log still holds it.
  EXPECT_EQ(monitor.alerts().size(), 1u);
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorder, BuildsSelfDescribingRecord) {
  SloAlert alert;
  alert.at = 5000;
  alert.interval_seq = 4;
  alert.type_name = "A";
  alert.burn_rate = 5.0;
  alert.window_completions = 100;
  alert.window_violations = 5;
  const std::vector<IntervalRecord> intervals = {MakeInterval(4, 100, 5)};
  TelemetrySnapshot snapshot;
  snapshot.counters["scheduler.completed"] = 100;
  const std::string record = BuildFlightRecord({alert}, intervals, snapshot);
  EXPECT_NE(record.find("\"alerts\""), std::string::npos);
  EXPECT_NE(record.find("\"A\""), std::string::npos);
  EXPECT_NE(record.find("\"intervals_csv\""), std::string::npos);
  EXPECT_NE(record.find("\"snapshot\""), std::string::npos);
  EXPECT_NE(record.find("scheduler.completed"), std::string::npos);
}

// A long or control-laden type name cannot cut the alert object short.
TEST(FlightRecorder, AlertTypeNameIsEscapedAndWhole) {
  SloAlert alert;
  alert.at = 5000;
  alert.interval_seq = 4;
  alert.type_name = std::string(300, 'x') + "\"\n";
  alert.burn_rate = 5.0;
  alert.window_completions = 100;
  alert.window_violations = 5;
  const std::string record =
      BuildFlightRecord({alert}, {}, TelemetrySnapshot{});
  EXPECT_NE(record.find("{\"at\":5000,\"interval_seq\":4,\"type\":\"" +
                        std::string(300, 'x') +
                        "\\\"\\n\",\"burn_rate\":5.000,"
                        "\"window_completions\":100,"
                        "\"window_violations\":5}],"),
            std::string::npos);
}

TEST(FlightRecorder, TelemetryDumpsOnViolationStorm) {
  const std::string path = "/tmp/psp_flight_test.json";
  std::remove(path.c_str());

  TelemetryConfig config;
  config.timeseries = SmallConfig();
  config.slo.targets.push_back(SloTarget{"A", 10.0, 0.01});
  config.slo.window_intervals = 2;
  config.slo.min_window_completions = 10;
  config.slo.flight_path = path;
  config.slo.flight_intervals = 8;
  ASSERT_EQ(config.Validate(), "");

  Telemetry telemetry(config);
  ASSERT_NE(telemetry.timeseries(), nullptr);
  ASSERT_NE(telemetry.slo(), nullptr);
  const size_t a = telemetry.RegisterSeries(1, "A");
  ASSERT_NE(a, SIZE_MAX);

  // The target armed the recorder's violation threshold via RegisterSeries:
  // a storm of 20x-slowdown completions must trip the monitor.
  TimeSeriesRecorder* rec = telemetry.timeseries();
  for (int i = 0; i < 50; ++i) {
    rec->RecordCompletion(a, /*latency=*/2000, /*service=*/100, 100 + i);
  }
  telemetry.AdvanceTimeSeries(1000);  // closes the interval, alert fires
  telemetry.AdvanceTimeSeries(1100);  // next watchdog tick performs the dump

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flight record was not written";
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"alerts\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"A\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, WriteTextFileRoundTrip) {
  const std::string path = "/tmp/psp_write_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello\nworld\n"));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "hello\nworld\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y", "nope"));
}

}  // namespace
}  // namespace psp
