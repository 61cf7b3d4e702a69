// Unit tests for the telemetry subsystem: trace ring ordering/wraparound,
// sampling, registry instruments, snapshot merge, the stage breakdown, the
// exporters, and config validation (telemetry + scheduler + runtime).
#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/scheduler.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace {

RequestTrace MakeTrace(uint64_t id, uint32_t type, Nanos base) {
  // Consecutive stages 10 ns apart so every span is exact and non-zero.
  RequestTrace t;
  t.request_id = id;
  t.type = type;
  t.worker = 1;
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    t.stamp[s] = base + static_cast<Nanos>(10 * s);
  }
  return t;
}

TEST(TraceRing, PreservesPushOrder) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Push(MakeTrace(i, 0, 1000));
  }
  std::vector<RequestTrace> out;
  EXPECT_EQ(ring.Snapshot(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].request_id, i);
  }
  EXPECT_EQ(ring.pushed(), 5u);
}

TEST(TraceRing, WrapsAroundKeepingNewest) {
  TraceRing ring(8);  // power of two, kept as-is
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Push(MakeTrace(i, 0, 1000));
  }
  std::vector<RequestTrace> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 8u);
  // The 8 newest records, oldest first.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].request_id, 12 + i);
  }
  EXPECT_EQ(ring.pushed(), 20u);
}

TEST(TraceRing, RoundsCapacityUpToPowerOfTwo) {
  TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  TraceRing tiny(0);
  EXPECT_GE(tiny.capacity(), 8u);
}

// A record whose every field derives from `id`, so a slot copied from the
// wrong index (or half-copied) shows up as a field mismatch.
RequestTrace MakeKeyedTrace(uint64_t id) {
  RequestTrace t = MakeTrace(id, static_cast<uint32_t>(id % 7),
                             1000 + 100 * static_cast<Nanos>(id));
  t.worker = static_cast<uint32_t>(id % 5);
  t.wire_request_id = id * 3 + 1;
  t.client_id = static_cast<uint32_t>(id % 11);
  return t;
}

void ExpectKeyed(const RequestTrace& t) {
  const RequestTrace want = MakeKeyedTrace(t.request_id);
  EXPECT_EQ(t.type, want.type);
  EXPECT_EQ(t.worker, want.worker);
  EXPECT_EQ(t.wire_request_id, want.wire_request_id);
  EXPECT_EQ(t.client_id, want.client_id);
  EXPECT_EQ(t.stamp, want.stamp);
}

// The ring starts small and doubles up to its capacity: after every push,
// across every doubling and the first two laps past capacity, a snapshot is
// exactly the newest min(n, capacity) records in push order.
TEST(TraceRing, GrowingRingMatchesBoundedReference) {
  for (const size_t capacity : {size_t{8}, size_t{64}, size_t{1024}}) {
    TraceRing ring(capacity);
    std::vector<RequestTrace> out;
    for (uint64_t n = 0; n <= 3 * capacity; ++n) {
      if (n > 0) {
        ring.Push(MakeKeyedTrace(n - 1));
      }
      out.clear();
      const size_t want = std::min<uint64_t>(n, capacity);
      ASSERT_EQ(ring.Snapshot(&out), want) << "capacity " << capacity
                                           << " after " << n << " pushes";
      ASSERT_EQ(out.size(), want);
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(out[i].request_id, n - want + i)
            << "capacity " << capacity << " after " << n << " pushes";
        ExpectKeyed(out[i]);
      }
      EXPECT_EQ(ring.pushed(), n);
      EXPECT_EQ(ring.capacity(), capacity);
    }
  }
}

// The reader snapshots concurrently while the writer grows the ring from 64
// slots to its capacity and then laps it. The writer waits for one more
// snapshot at every doubling, so reads overlap each block size.
TEST(TraceRing, SnapshotIsSafeWhileWriting) {
  constexpr size_t kCapacity = 4096;
  TraceRing ring(kCapacity);
  std::atomic<uint64_t> snapshots{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < 3 * kCapacity; ++i) {
      if (i >= 64 && i < kCapacity && (i & (i - 1)) == 0) {
        const uint64_t seen = snapshots.load();
        while (snapshots.load() < seen + 2) {
          std::this_thread::yield();
        }
      }
      ring.Push(MakeKeyedTrace(i));
    }
    done.store(true);
  });
  // Concurrent snapshots must only ever observe fully committed records, in
  // push order.
  size_t partial = 0;
  std::vector<RequestTrace> out;
  while (!done.load()) {
    out.clear();
    ring.Snapshot(&out);
    snapshots.fetch_add(1);
    EXPECT_LE(out.size(), kCapacity);
    if (!out.empty() && out.size() < kCapacity) {
      ++partial;
    }
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].Span(TraceStage::kRx, TraceStage::kTx), 60);
      ExpectKeyed(out[i]);
      if (i > 0) {
        EXPECT_GT(out[i].request_id, out[i - 1].request_id);
      }
    }
  }
  writer.join();
  // One snapshot per doubling at least (64 -> 4096 is six of them).
  EXPECT_GE(partial, 6u);
  out.clear();
  EXPECT_EQ(ring.Snapshot(&out), kCapacity);
  EXPECT_EQ(out.front().request_id, 2 * kCapacity);
}

TEST(TraceSampler, OneInNCadence) {
  TraceSampler sampler(4);
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    if (sampler.Tick()) {
      ++hits;
    }
  }
  EXPECT_EQ(hits, 25);
}

TEST(TraceSampler, ZeroDisablesAndOneTracesAll) {
  TraceSampler off(0);
  TraceSampler all(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(off.Tick());
    EXPECT_TRUE(all.Tick());
  }
}

TEST(MetricsRegistry, InstrumentsAreStableAndExported) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("x.count");
  c.Add(3);
  registry.GetCounter("x.count").Add(2);  // same instrument
  EXPECT_EQ(c.Value(), 5u);

  TelemetrySnapshot snap;
  registry.Export(&snap);
  EXPECT_EQ(snap.counter("x.count"), 5u);
  EXPECT_EQ(snap.counter("missing", 42), 42u);
}

TEST(MetricsRegistry, ConcurrentWritersDoNotLoseCounts) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& c = registry.GetCounter("shared");
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.GetCounter("shared").Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetrySnapshot, MergeFoldsEveryField) {
  TelemetrySnapshot a;
  a.counters["n"] = 5;
  a.gauges["g"] = 1;
  a.histograms["h"].Add(100);
  a.traces.push_back(MakeTrace(1, 7, 1000));
  a.events.push_back({10, "resize"});
  a.type_names[7] = "SHORT";

  TelemetrySnapshot b;
  b.counters["n"] = 3;
  b.counters["m"] = 1;
  b.gauges["g"] = 9;
  b.histograms["h"].Add(300);
  b.traces.push_back(MakeTrace(2, 7, 2000));
  b.events.push_back({20, "reservation"});

  a.Merge(b);
  EXPECT_EQ(a.counter("n"), 8u);
  EXPECT_EQ(a.counter("m"), 1u);
  EXPECT_EQ(a.gauges.at("g"), 9);  // gauges take the newer value
  EXPECT_EQ(a.histograms.at("h").Count(), 2u);
  EXPECT_EQ(a.traces.size(), 2u);
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.type_names.at(7), "SHORT");
}

TEST(TelemetrySnapshot, StageBreakdownSumsToTotal) {
  TelemetrySnapshot snap;
  snap.type_names[3] = "GET";
  for (uint64_t i = 0; i < 10; ++i) {
    snap.traces.push_back(MakeTrace(i, 3, 1000 + static_cast<Nanos>(i)));
  }
  const auto breakdown = snap.StageBreakdown();
  ASSERT_TRUE(breakdown.contains(3));
  const TypeStageBreakdown& b = breakdown.at(3);
  EXPECT_EQ(b.name, "GET");
  EXPECT_EQ(b.traces, 10u);
  // Stages are 10 ns apart: preprocess 20, queueing/handoff/service/reply 10.
  EXPECT_EQ(b.preprocess.Mean(), 20.0);
  EXPECT_EQ(b.queueing.Mean(), 10.0);
  EXPECT_EQ(b.service.Mean(), 10.0);
  EXPECT_EQ(b.total.Mean(), 60.0);
  const double parts = b.preprocess.Mean() + b.queueing.Mean() +
                       b.handoff.Mean() + b.service.Mean() + b.reply.Mean();
  EXPECT_EQ(parts, b.total.Mean());
}

TEST(TelemetrySnapshot, ExportersRoundTrip) {
  TelemetrySnapshot snap;
  snap.counters["scheduler.completed"] = 123;
  snap.gauges["scheduler.idle_workers"] = 4;
  snap.histograms["engine.latency"].Add(5000);
  snap.type_names[1] = "SHORT";
  snap.traces.push_back(MakeTrace(9, 1, 1000));
  snap.events.push_back({77, "reservation update"});

  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("scheduler.completed"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"scheduler.completed\""), std::string::npos);
  EXPECT_NE(json.find("123"), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.idle_workers\""), std::string::npos);
  EXPECT_NE(json.find("reservation update"), std::string::npos);

  const std::string report = snap.StageReport();
  EXPECT_NE(report.find("SHORT"), std::string::npos);
  EXPECT_NE(report.find("queueing"), std::string::npos);
}

TEST(Telemetry, FacadeSnapshotsRingsEventsAndRegistry) {
  TelemetryConfig config;
  config.sample_every = 1;
  Telemetry telemetry(config, /*num_rings=*/2);
  EXPECT_TRUE(telemetry.tracing_enabled());
  EXPECT_EQ(telemetry.sample_every(), 1u);
  telemetry.registry().GetCounter("a").Add(2);
  telemetry.ring(0).Push(MakeTrace(1, 0, 1000));
  telemetry.ring(1).Push(MakeTrace(2, 0, 2000));
  telemetry.RecordEvent(5, "hello");

  const TelemetrySnapshot snap = telemetry.Snapshot();
  EXPECT_EQ(snap.counter("a"), 2u);
  EXPECT_EQ(snap.counter("telemetry.traces_recorded"), 2u);
  EXPECT_EQ(snap.traces.size(), 2u);
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].what, "hello");
}

TEST(Telemetry, DisabledTracingReportsSampleEveryZero) {
  TelemetryConfig config;
  config.enable_tracing = false;
  config.trace_ring_capacity = 1 << 15;  // unused without tracing
  Telemetry telemetry(config, /*num_rings=*/4);
  EXPECT_FALSE(telemetry.tracing_enabled());
  EXPECT_EQ(telemetry.sample_every(), 0u);
  EXPECT_EQ(telemetry.num_rings(), 0u);  // nothing can commit a record
  EXPECT_TRUE(telemetry.Snapshot().traces.empty());
}

TEST(Validation, TelemetryConfig) {
  TelemetryConfig ok;
  EXPECT_EQ(ok.Validate(), "");
  TelemetryConfig bad;
  bad.trace_ring_capacity = 0;
  EXPECT_NE(bad.Validate(), "");
  bad.enable_tracing = false;  // no tracing -> no ring needed
  EXPECT_EQ(bad.Validate(), "");
}

TEST(Validation, SchedulerConfigCatchesMisconfigurations) {
  SchedulerConfig ok;
  EXPECT_EQ(ok.Validate(), "");

  SchedulerConfig zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_NE(zero_workers.Validate(), "");

  SchedulerConfig zero_capacity;
  zero_capacity.typed_queue_capacity = 0;
  EXPECT_NE(zero_capacity.Validate(), "");

  SchedulerConfig spillway;
  spillway.num_workers = 2;
  spillway.num_spillway = 3;
  EXPECT_NE(spillway.Validate(), "");

  SchedulerConfig delta;
  delta.delta = 1.0;
  EXPECT_NE(delta.Validate(), "");

  SchedulerConfig static_all;
  static_all.mode = PolicyMode::kDarcStatic;
  static_all.num_workers = 2;
  static_all.static_reserved = 2;
  EXPECT_NE(static_all.Validate(), "");

  EXPECT_THROW(DarcScheduler scheduler(zero_workers), std::invalid_argument);
}

TEST(Validation, RuntimeConfigCatchesMisconfigurations) {
  RuntimeConfig ok;
  EXPECT_EQ(ok.Validate(), "");

  RuntimeConfig zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_NE(zero_workers.Validate(), "");

  RuntimeConfig small_pool;
  small_pool.pool_buffers = 16;
  small_pool.nic_queue_depth = 1024;
  EXPECT_NE(small_pool.Validate(), "");

  RuntimeConfig zero_channel;
  zero_channel.channel_depth = 0;
  EXPECT_NE(zero_channel.Validate(), "");

  RuntimeConfig bad_telemetry;
  bad_telemetry.telemetry.trace_ring_capacity = 0;
  EXPECT_NE(bad_telemetry.Validate(), "");

  EXPECT_THROW(Persephone server(zero_workers), std::invalid_argument);
}

}  // namespace
}  // namespace psp
