// Threaded-runtime integration tests: real dispatcher + worker threads over
// the lock-free channels and simulated NIC, driven by the in-process load
// generator. Kept small so they run quickly on single-core machines.
#include "src/runtime/persephone.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "src/apps/kvstore.h"
#include "src/apps/synthetic.h"
#include "src/net/packet.h"
#include "src/runtime/loadgen.h"

namespace psp {
namespace {

RuntimeConfig SmallRuntime(PolicyMode mode = PolicyMode::kDarc) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.scheduler.mode = mode;
  config.pool_buffers = 1024;
  return config;
}

TEST(Runtime, EchoesSyntheticRequestsEndToEnd) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 3000;
  lg.total_requests = 1500;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                     MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                    lg);
  const LoadGenReport report = gen.Run();
  server.Stop();

  EXPECT_EQ(report.sent, 1500u);
  // Everything sent must come back (no drops at this trivial load).
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_EQ(report.received + report.send_drops +
                snap.counter("scheduler.dropped"),
            report.sent);
  EXPECT_GT(report.overall.Count(), 0u);
  // Client-observed latency must be at least the service time.
  EXPECT_GE(report.latency.at(2).Min(), FromMicros(45));
  EXPECT_EQ(snap.counter("runtime.malformed"), 0u);
}

TEST(Runtime, DarcActivatesWithSeededProfiles) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "A", MakeSpinHandler(), FromMicros(1), 0.5);
  server.RegisterType(2, "B", MakeSpinHandler(), FromMicros(100), 0.5);
  server.Start();
  EXPECT_TRUE(server.scheduler().darc_active());
  server.Stop();
}

TEST(Runtime, UnknownTypesHitUnknownHandler) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "KNOWN", MakeSpinHandler(), FromMicros(1), 1.0);
  std::atomic<int> unknown_hits{0};
  server.set_unknown_handler(
      [&unknown_hits](const std::byte*, uint32_t, std::byte*, uint32_t) {
        ++unknown_hits;
        return 0u;
      });
  server.Start();

  // Send a request whose wire type (77) is not registered.
  LoadGenConfig lg;
  lg.rate_rps = 2000;
  lg.total_requests = 50;
  LoadGenerator gen(&server, {MakeSpinSpec(77, "MYSTERY", 1.0, 0)}, lg);
  const LoadGenReport report = gen.Run();
  server.Stop();
  EXPECT_EQ(report.received, 50u);
  EXPECT_EQ(unknown_hits.load(), 50);
}

TEST(Runtime, MalformedFramesAreCountedAndDropped) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(1), 1.0);
  server.Start();

  // Deliver garbage directly to the NIC RX queue.
  std::byte* buf = server.pool().AllocGlobal();
  std::memset(buf, 0xAB, 64);
  ASSERT_TRUE(server.nic().DeliverToQueue(0, PacketRef{buf, 64}));
  // Wait for the dispatcher to chew on it.
  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 200 * kMillisecond;
  Counter& malformed =
      server.telemetry().registry().GetCounter("runtime.malformed");
  while (malformed.Value() == 0 && clock.Now() < deadline) {
    std::this_thread::yield();
  }
  server.Stop();
  EXPECT_EQ(malformed.Value(), 1u);
  // The buffer went back to the pool: nothing leaked.
  EXPECT_EQ(server.pool().AvailableApprox(), server.pool().num_buffers());
}

TEST(Runtime, KvStoreServiceEndToEnd) {
  Persephone server(SmallRuntime());
  auto store = std::make_shared<KvStore>();
  LoadKvDataset(*store, 500, 32);

  const auto kv_handler = [store](const std::byte* payload, uint32_t length,
                                  std::byte* response,
                                  uint32_t capacity) -> uint32_t {
    const auto request = DecodeKvRequest(payload, length);
    if (!request.has_value()) {
      return 0;
    }
    return ExecuteKvRequest(*store, *request, response, capacity);
  };
  server.RegisterType(1, "GET", kv_handler, FromMicros(2), 0.5);
  server.RegisterType(2, "SCAN", kv_handler, FromMicros(200), 0.5);
  server.Start();

  ClientRequestSpec get_spec;
  get_spec.wire_id = 1;
  get_spec.name = "GET";
  get_spec.ratio = 0.5;
  get_spec.build_payload = [](std::byte* payload, uint32_t capacity,
                              Rng& rng) {
    KvRequest r;
    r.op = KvOp::kGet;
    r.key = rng.NextBounded(500);
    return EncodeKvRequest(r, payload, capacity);
  };
  ClientRequestSpec scan_spec;
  scan_spec.wire_id = 2;
  scan_spec.name = "SCAN";
  scan_spec.ratio = 0.5;
  scan_spec.build_payload = [](std::byte* payload, uint32_t capacity,
                               Rng& rng) {
    KvRequest r;
    r.op = KvOp::kScan;
    r.key = rng.NextBounded(100);
    r.count = 200;
    return EncodeKvRequest(r, payload, capacity);
  };

  LoadGenConfig lg;
  lg.rate_rps = 2000;
  lg.total_requests = 400;
  LoadGenerator gen(&server, {get_spec, scan_spec}, lg);
  const LoadGenReport report = gen.Run();
  server.Stop();

  EXPECT_EQ(report.received, 400u);
  EXPECT_GT(report.latency.at(1).Count(), 0u);
  EXPECT_GT(report.latency.at(2).Count(), 0u);
}

TEST(Runtime, StopIsIdempotentAndRestartable) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(1), 1.0);
  server.Start();
  EXPECT_TRUE(server.running());
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // no-op
  server.Start();
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(Runtime, ProfilerObservesRealServiceTimes) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "SPIN20", MakeSpinHandler(), FromMicros(20), 1.0);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 2000;
  lg.total_requests = 300;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN20", 1.0, FromMicros(20))},
                    lg);
  gen.Run();
  server.Stop();

  // The dispatcher profiled ~20 µs service times from worker completions.
  const TypeIndex t = server.scheduler().ResolveType(1);
  const Nanos mean = server.scheduler().profiler().MeanServiceTime(t);
  EXPECT_GT(mean, FromMicros(15));
  EXPECT_LT(mean, FromMicros(200));  // generous: single-core CI machines
}


TEST(Runtime, WorkerOccupancyAccumulates) {
  Persephone server(SmallRuntime());
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(10), 1.0);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 2000;
  lg.total_requests = 200;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(10))},
                    lg);
  gen.Run();
  server.Stop();

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  ASSERT_EQ(snap.worker_time.size(), server.num_workers() + 1u);
  uint64_t total_requests = 0;
  uint64_t total_busy = 0;
  for (uint32_t w = 0; w < server.num_workers(); ++w) {
    total_requests += snap.counter("worker." + std::to_string(w) + ".requests");
    total_busy += snap.worker_time[w].BusyNs();
    EXPECT_GT(snap.worker_time[w].WallNs(), 0u);
  }
  EXPECT_EQ(total_requests, 200u);
  // 200 requests x ~10 us of spinning.
  EXPECT_GE(total_busy, static_cast<uint64_t>(200 * FromMicros(8)));
}

TEST(Runtime, TelemetryTracesDecomposeEndToEndLatency) {
  RuntimeConfig config = SmallRuntime();
  config.telemetry.sample_every = 1;  // trace every request
  Persephone server(config);
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 2000;
  lg.total_requests = 200;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(5))},
                    lg);
  gen.Run();
  // Stop() drains in-flight completions, so the snapshot and the scheduler
  // accessors below observe the same final counts.
  server.Stop();
  const TelemetrySnapshot snap = server.telemetry_snapshot();

  ASSERT_FALSE(snap.traces.empty());
  for (const RequestTrace& t : snap.traces) {
    // Stamps appear in lifecycle order (same TSC domain on this machine).
    for (size_t s = 1; s < kNumTraceStages; ++s) {
      EXPECT_LE(t.stamp[s - 1], t.stamp[s]) << "stage " << s;
    }
    // The five consecutive stage spans decompose rx→tx exactly.
    const Nanos parts = t.Span(TraceStage::kRx, TraceStage::kEnqueued) +
                        t.Span(TraceStage::kEnqueued, TraceStage::kDispatched) +
                        t.Span(TraceStage::kDispatched,
                               TraceStage::kHandlerStart) +
                        t.Span(TraceStage::kHandlerStart,
                               TraceStage::kHandlerEnd) +
                        t.Span(TraceStage::kHandlerEnd, TraceStage::kTx);
    EXPECT_EQ(parts, t.Span(TraceStage::kRx, TraceStage::kTx));
    // The handler spun for ~5 µs.
    EXPECT_GE(t.Span(TraceStage::kHandlerStart, TraceStage::kHandlerEnd),
              FromMicros(4));
  }

  // One surface: snapshot counters agree with the scheduler's dedicated
  // accessors (the single source of truth for completed/dropped).
  EXPECT_EQ(snap.counter("scheduler.completed"), server.scheduler().completed());
  EXPECT_EQ(snap.counter("scheduler.dropped"), server.scheduler().dropped());
  EXPECT_EQ(server.scheduler().completed(), 200u);
  EXPECT_EQ(snap.counter("runtime.rx_packets"), 200u);
  // Per-type naming flows through for the stage report.
  const auto breakdown = snap.StageBreakdown();
  ASSERT_FALSE(breakdown.empty());
  EXPECT_FALSE(snap.StageReport().empty());
}

TEST(Runtime, TelemetrySamplingThinsTraces) {
  RuntimeConfig config = SmallRuntime();
  config.telemetry.sample_every = 50;
  Persephone server(config);
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(1), 1.0);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 4000;
  lg.total_requests = 500;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "T", 1.0, FromMicros(1))}, lg);
  gen.Run();
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  server.Stop();

  // 500 requests at 1-in-50 → ~10 traces; allow slack for dispatcher
  // batching but require real thinning.
  EXPECT_GE(snap.counter("telemetry.traces_recorded"), 5u);
  EXPECT_LE(snap.counter("telemetry.traces_recorded"), 30u);
}

TEST(Runtime, TracingOffIgnoresWireTraceFlag) {
  // A server configured without tracing allocates no trace rings, so a
  // client's in-band sampling election must not force a lifecycle record.
  RuntimeConfig config = SmallRuntime();
  config.telemetry.enable_tracing = false;
  Persephone server(config);
  EXPECT_EQ(server.telemetry().num_rings(), 0u);
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(1), 1.0);
  server.Start();

  constexpr uint64_t kRequests = 200;
  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 5 * kSecond;
  uint64_t sent = 0;
  uint64_t echoed = 0;
  while (echoed < kRequests && clock.Now() < deadline) {
    if (sent < kRequests) {
      std::byte* buf = server.pool().AllocGlobal();
      ASSERT_NE(buf, nullptr);
      RequestFrame frame;
      frame.flow = FlowTuple{0x0A000001u, 0x0A0000FFu, 4000, 6789};
      frame.request_type = 1;
      frame.request_id = sent;
      frame.client_id = 1;
      frame.trace_flags = PspHeader::kFlagTraceSampled;
      const uint32_t len =
          BuildRequestPacket(frame, buf, server.pool().buffer_size());
      ASSERT_GT(len, 0u);
      ASSERT_TRUE(server.nic().DeliverToQueue(0, PacketRef{buf, len}));
      ++sent;
    }
    PacketRef response;
    if (!server.nic().PollEgress(&response)) {
      std::this_thread::yield();
      continue;
    }
    const auto parsed = ParseRequestPacket(response.data, response.length);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->psp.request_type, 1u);
    EXPECT_LT(parsed->psp.request_id, kRequests);
    EXPECT_EQ(parsed->psp.trace_flags, PspHeader::kFlagTraceSampled);
    server.pool().FreeGlobal(response.data);
    ++echoed;
  }
  server.Stop();

  EXPECT_EQ(echoed, kRequests);
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_TRUE(snap.traces.empty());
  EXPECT_EQ(snap.counter("telemetry.traces_recorded"), 0u);
  EXPECT_EQ(server.scheduler().completed(), kRequests);
  EXPECT_EQ(server.pool().AvailableApprox(), server.pool().num_buffers());
}

TEST(Runtime, SequentialRequestsRecycleAHandfulOfBuffers) {
  // One request in flight at a time: the pool issues buffers on demand and
  // recycles released ones, so the frames seen at egress are a handful, not
  // one per request (a ring pre-filled in FIFO order would walk 1000).
  Persephone server(SmallRuntime());
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(1), 1.0);
  server.Start();

  constexpr uint64_t kRequests = 1000;
  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 10 * kSecond;
  std::set<const std::byte*> frames;
  uint64_t echoed = 0;
  while (echoed < kRequests && clock.Now() < deadline) {
    std::byte* buf = server.pool().AllocGlobal();
    ASSERT_NE(buf, nullptr);
    RequestFrame frame;
    frame.flow = FlowTuple{0x0A000001u, 0x0A0000FFu, 4000, 6789};
    frame.request_type = 1;
    frame.request_id = echoed;
    frame.client_id = 1;
    const uint32_t len =
        BuildRequestPacket(frame, buf, server.pool().buffer_size());
    ASSERT_GT(len, 0u);
    ASSERT_TRUE(server.nic().DeliverToQueue(0, PacketRef{buf, len}));
    PacketRef response;
    while (!server.nic().PollEgress(&response) && clock.Now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_NE(response.data, nullptr) << "no response to request " << echoed;
    frames.insert(response.data);
    server.pool().FreeGlobal(response.data);
    ++echoed;
  }
  server.Stop();

  EXPECT_EQ(echoed, kRequests);
  EXPECT_LE(frames.size(), 8u);
  EXPECT_EQ(server.pool().AvailableApprox(), server.pool().num_buffers());
}

TEST(Runtime, TimeSeriesRecorderOnLiveRuntime) {
  // The continuous layer on the threaded runtime: the sampler thread closes
  // intervals while the dispatcher records, and the gauge hook stamps worker
  // busy fractions. This is also the TSan coverage for the sampler
  // interleaving (scripts/check.sh thread).
  RuntimeConfig config = SmallRuntime();
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 50 * kMillisecond;
  Persephone server(config);
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(2), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(50), 0.1);
  server.Start();

  LoadGenConfig lg;
  lg.rate_rps = 3000;
  lg.total_requests = 1500;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.9, FromMicros(2)),
                     MakeSpinSpec(2, "LONG", 0.1, FromMicros(50))},
                    lg);
  const LoadGenReport report = gen.Run();
  server.Stop();  // drains, then flushes the partial interval

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  ASSERT_FALSE(snap.timeseries.empty());

  // Interval deltas must reconcile exactly with the run totals: arrivals
  // count offered load at dispatcher ingest, completions what came back.
  uint64_t arrivals = 0;
  uint64_t completions = 0;
  bool saw_busy = false;
  for (const IntervalRecord& rec : snap.timeseries) {
    for (const TypeIntervalStats& t : rec.types) {
      arrivals += t.arrivals;
      completions += t.completions;
      EXPECT_GE(t.queue_depth, 0);       // gauge hook attached
      EXPECT_GE(t.reserved_workers, 0);  // seeded DARC: shares published
    }
    for (const int64_t permille : rec.worker_busy_permille) {
      EXPECT_GE(permille, 0);
      EXPECT_LE(permille, 1000);
      saw_busy = true;
    }
  }
  EXPECT_EQ(arrivals, report.sent - report.send_drops);
  EXPECT_EQ(completions, snap.counter("scheduler.completed"));
  EXPECT_TRUE(saw_busy);
}

}  // namespace
}  // namespace psp
