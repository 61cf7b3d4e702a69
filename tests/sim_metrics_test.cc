// Metrics tests: slowdown semantics, warmup filtering, per-type separation,
// time-series bucketing, and the overall views against a directly fed
// reference.
#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace psp {
namespace {

TEST(Metrics, SlowdownIsLatencyOverService) {
  Metrics m;
  m.RegisterType(1, "T");
  // latency 5000, service 1000 -> slowdown 5.
  m.RecordCompletion(1, 0, 5000, 1000);
  EXPECT_DOUBLE_EQ(m.TypeSlowdown(1, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(m.OverallSlowdown(50.0), 5.0);
  EXPECT_EQ(m.TypeLatency(1, 50.0), 5000);
}

TEST(Metrics, WarmupSamplesDiscarded) {
  Metrics m(/*warmup_end=*/1000);
  m.RegisterType(1, "T");
  m.RecordCompletion(1, 500, 600, 100);   // sent during warmup: dropped
  m.RecordCompletion(1, 1500, 1600, 100);
  EXPECT_EQ(m.TotalCount(), 1u);
  EXPECT_EQ(m.TypeCount(1), 1u);
}

TEST(Metrics, TypesSeparated) {
  Metrics m;
  m.RegisterType(1, "SHORT");
  m.RegisterType(2, "LONG");
  for (int i = 0; i < 100; ++i) {
    m.RecordCompletion(1, 0, 1000, 1000);
    m.RecordCompletion(2, 0, 200000, 100000);
  }
  EXPECT_DOUBLE_EQ(m.TypeSlowdown(1, 99.0), 1.0);
  EXPECT_DOUBLE_EQ(m.TypeSlowdown(2, 99.0), 2.0);
  EXPECT_EQ(m.TypeName(1), "SHORT");
  EXPECT_EQ(m.TypeName(2), "LONG");
  EXPECT_EQ(m.type_ids().size(), 2u);
}

TEST(Metrics, UnregisteredTypeAutoRegisters) {
  Metrics m;
  m.RecordCompletion(42, 0, 1000, 500);
  EXPECT_EQ(m.TypeCount(42), 1u);
  EXPECT_EQ(m.TypeName(42), "type-42");
}

TEST(Metrics, DropsCounted) {
  Metrics m;
  m.RegisterType(1, "T");
  m.RecordDrop(1);
  m.RecordDrop(1);
  m.RecordDrop(2);
  EXPECT_EQ(m.TypeDrops(1), 2u);
  EXPECT_EQ(m.TypeDrops(2), 1u);
  EXPECT_EQ(m.TotalDrops(), 3u);
}

TEST(Metrics, ThroughputOverWindow) {
  Metrics m;
  m.RegisterType(1, "T");
  for (int i = 0; i < 1000; ++i) {
    m.RecordCompletion(1, i, i + 100, 50);
  }
  // 1000 completions over a 1 ms window = 1 Mrps.
  EXPECT_DOUBLE_EQ(m.ThroughputRps(kMillisecond), 1e6);
  EXPECT_EQ(m.ThroughputRps(0), 0.0);
}

TEST(Metrics, ZeroServiceTimeDoesNotDivide) {
  Metrics m;
  m.RecordCompletion(1, 0, 1000, 0);
  EXPECT_DOUBLE_EQ(m.OverallSlowdown(50.0), 1.0);  // defined as 1x
}

TEST(Metrics, TimeSeriesBucketsBySendTime) {
  Metrics m;
  m.RegisterType(1, "T");
  m.EnableTimeSeries(1000);
  // Bucket 0: two samples; bucket 2: one sample.
  m.RecordCompletion(1, 100, 600, 100);    // latency 500
  m.RecordCompletion(1, 900, 2000, 100);   // latency 1100
  m.RecordCompletion(1, 2500, 2700, 100);  // latency 200
  const auto series = m.TimeSeries(1, 99.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].start, 0);
  EXPECT_EQ(series[0].count, 2u);
  EXPECT_EQ(series[0].p999_latency, 1100);
  EXPECT_EQ(series[0].p50_latency, 1100);  // rank 1 of 2
  EXPECT_EQ(series[1].start, 2000);
  EXPECT_EQ(series[1].count, 1u);
  EXPECT_EQ(series[1].p999_latency, 200);
  EXPECT_NEAR(series[0].mean_latency, 800.0, 0.1);
}

TEST(Metrics, TimeSeriesDisabledReturnsEmpty) {
  Metrics m;
  m.RecordCompletion(1, 0, 100, 50);
  EXPECT_TRUE(m.TimeSeries(1).empty());
}

TEST(Metrics, MeanLatency) {
  Metrics m;
  m.RecordCompletion(1, 0, 100, 50);
  m.RecordCompletion(1, 0, 300, 50);
  EXPECT_DOUBLE_EQ(m.TypeMeanLatency(1), 200.0);
}

// Across types, warm-up, deadlines and zero-service completions, the overall
// views and the exported engine.latency / engine.slowdown_milli histograms
// must equal one histogram fed every measured completion directly: the same
// percentiles, count, min, max and mean. This pins the overall views exactly
// whether they are recorded per completion or pooled from the per-type
// histograms.
TEST(Metrics, OverallViewsEqualDirectlyFedHistogram) {
  constexpr Nanos kWarmup = 50 * kMicrosecond;
  Metrics m(kWarmup);
  m.RegisterType(1, "SHORT");
  m.RegisterType(2, "LONG");
  m.RegisterType(3, "ZERO");
  m.RegisterType(4, "WARMUP_ONLY");  // every sample discarded
  Histogram latency_ref;
  Histogram slowdown_ref;
  uint64_t lcg = 0x853c49e6748fea9bull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  };
  for (int i = 0; i < 30000; ++i) {
    const TypeId type = static_cast<TypeId>(1 + next() % 3);
    const Nanos send = static_cast<Nanos>(next() % (10 * kMillisecond));
    Nanos service = 0;
    if (type == 1) {
      service = static_cast<Nanos>(500 + next() % 5000);
    } else if (type == 2) {
      service = static_cast<Nanos>(100 * kMicrosecond + next() % 900000);
    }
    // Queueing delay with a heavy tail: mostly short, sometimes milliseconds.
    const Nanos wait = static_cast<Nanos>(
        next() % 16 == 0 ? next() % (5 * kMillisecond) : next() % 20000);
    const Nanos receive = send + wait + service + 10 * kMicrosecond;
    const Nanos deadline =
        next() % 2 == 0 ? send + static_cast<Nanos>(next() % 200000) : 0;
    m.RecordCompletion(type, send, receive, service, deadline,
                       receive - 5 * kMicrosecond);
    if (send >= kWarmup) {
      const Nanos latency = receive - send;
      latency_ref.Add(latency);
      slowdown_ref.Add(
          service > 0 ? static_cast<int64_t>(std::llround(
                            static_cast<double>(latency) * kSlowdownScale /
                            static_cast<double>(service)))
                      : kSlowdownScale);
    }
  }
  m.RecordCompletion(4, kWarmup - 1, kWarmup + 100, 100);
  m.RecordDrop(2);
  ASSERT_EQ(m.TotalCount(), latency_ref.Count());
  ASSERT_GT(m.TotalDeadlineMisses(), 0u);

  for (const double pct : {50.0, 99.0, 99.9}) {
    EXPECT_EQ(m.OverallLatency(pct), latency_ref.Percentile(pct)) << pct;
    EXPECT_DOUBLE_EQ(m.OverallSlowdown(pct),
                     static_cast<double>(slowdown_ref.Percentile(pct)) /
                         kSlowdownScale)
        << pct;
  }

  TelemetrySnapshot snap;
  m.ExportTelemetry(&snap);
  const auto expect_same = [](const Histogram& got, const Histogram& want,
                              const char* name) {
    EXPECT_EQ(got.Count(), want.Count()) << name;
    EXPECT_EQ(got.Min(), want.Min()) << name;
    EXPECT_EQ(got.Max(), want.Max()) << name;
    EXPECT_DOUBLE_EQ(got.Mean(), want.Mean()) << name;
    for (double pct = 0; pct <= 100.0; pct += 0.5) {
      ASSERT_EQ(got.Percentile(pct), want.Percentile(pct))
          << name << " p" << pct;
    }
    ASSERT_EQ(got.Percentile(99.9), want.Percentile(99.9)) << name;
  };
  expect_same(snap.histograms.at("engine.latency"), latency_ref,
              "engine.latency");
  expect_same(snap.histograms.at("engine.slowdown_milli"), slowdown_ref,
              "engine.slowdown_milli");
}

}  // namespace
}  // namespace psp
