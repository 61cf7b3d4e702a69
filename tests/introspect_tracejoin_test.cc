// Adversarial-timing contract for the cross-process trace join
// (src/introspect/tracejoin.h): clock-offset recovery under asymmetric
// delay, joins under reordered responses, lost datagrams, duplicate
// request_ids across flows, and zero-sample windows; plus the JSON parse
// layer both tools feed (psp_loadgen --json, /lifecycle.json).
#include "src/introspect/tracejoin.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace psp {
namespace {

// A client record whose echoed stamps embed a server clock offset `offset`
// with chosen one-way delays. RTT spans send → recv.
ClientTraceRecord MakeClient(uint64_t id, uint32_t flow, Nanos send,
                             Nanos offset, Nanos out_delay, Nanos back_delay,
                             Nanos service = 1000) {
  ClientTraceRecord rec;
  rec.request_id = id;
  rec.flow = flow;
  rec.wire_type = 1;
  rec.due_ns = send - 100;
  rec.send_ns = send;
  rec.server_rx_ns = send + out_delay + offset;
  rec.server_tx_ns = rec.server_rx_ns + service;
  rec.recv_ns = send + out_delay + service + back_delay;
  return rec;
}

ServerTraceRecord MakeServer(uint64_t wire_id, uint32_t client_id,
                             Nanos rx_server_clock) {
  ServerTraceRecord rec;
  rec.request_id = wire_id * 1000;  // server-local id, deliberately different
  rec.type = 1;
  rec.type_name = "SHORT";
  rec.worker = 0;
  rec.wire_request_id = wire_id;
  rec.client_id = client_id;
  Nanos at = rx_server_clock;
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    rec.stamp[s] = at;
    at += 100;
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Clock-offset estimation

TEST(ClockOffset, RecoversOffsetWithSymmetricMinDelays) {
  // Minimum out and back delays equal (the NTP assumption holds exactly) →
  // the estimator recovers the offset exactly, even with jittered samples
  // layered on top.
  const Nanos kOffset = 5'000'000'000;  // five seconds of clock skew
  std::vector<ClientTraceRecord> samples;
  samples.push_back(MakeClient(1, 0, 10'000, kOffset, 200, 200));
  // Jittered samples: never below the floor in either direction.
  samples.push_back(MakeClient(2, 0, 20'000, kOffset, 900, 350));
  samples.push_back(MakeClient(3, 0, 30'000, kOffset, 240, 4'000));

  const ClockOffsetEstimate est = EstimateClockOffset(samples);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.samples, 3u);
  EXPECT_EQ(est.offset, kOffset);
  EXPECT_EQ(est.uncertainty, 200);
  EXPECT_EQ(est.ToClientClock(kOffset + 777), 777);
}

TEST(ClockOffset, AsymmetryBoundedByUncertainty) {
  // Min delays 100 out / 500 back: the estimate is off by the asymmetry
  // (200ns here) but always within the reported uncertainty.
  const Nanos kOffset = -3'000'000;  // server clock behind the client
  std::vector<ClientTraceRecord> samples;
  samples.push_back(MakeClient(1, 0, 10'000'000, kOffset, 100, 500));
  samples.push_back(MakeClient(2, 0, 20'000'000, kOffset, 150, 800));

  const ClockOffsetEstimate est = EstimateClockOffset(samples);
  ASSERT_TRUE(est.valid);
  const Nanos err = est.offset - kOffset;
  EXPECT_LE(err < 0 ? -err : err, est.uncertainty);
}

TEST(ClockOffset, HugeEpochGapDoesNotOverflow) {
  // TSC-style clocks can disagree by machine uptime. Half-then-subtract must
  // keep the arithmetic inside int64 even near the extremes.
  const Nanos kOffset = int64_t{4'000'000'000} * 1'000'000'000 / 2;
  std::vector<ClientTraceRecord> samples;
  samples.push_back(MakeClient(1, 0, 1'000'000, kOffset, 300, 300));
  const ClockOffsetEstimate est = EstimateClockOffset(samples);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.offset, kOffset);
}

TEST(ClockOffset, SkipsUnstampedAndInvalidWithNone) {
  std::vector<ClientTraceRecord> samples;
  ClientTraceRecord unstamped;  // response arrived without echoed stamps
  unstamped.request_id = 9;
  unstamped.send_ns = 100;
  unstamped.recv_ns = 200;
  samples.push_back(unstamped);

  const ClockOffsetEstimate est = EstimateClockOffset(samples);
  EXPECT_FALSE(est.valid);
  EXPECT_EQ(est.samples, 0u);
  EXPECT_EQ(est.offset, 0);

  EXPECT_FALSE(EstimateClockOffset({}).valid);
}

// ---------------------------------------------------------------------------
// Join semantics

TEST(JoinTraces, ReorderedResponsesSortBySendTime) {
  // Client records arrive in completion order, not send order (a LONG sent
  // first completes last). The join output must be send-ordered regardless.
  std::vector<ClientTraceRecord> client;
  client.push_back(MakeClient(2, 0, 30'000, 0, 200, 200));
  client.push_back(MakeClient(1, 0, 10'000, 0, 200, 200, /*service=*/50'000));
  client.push_back(MakeClient(3, 0, 40'000, 0, 200, 200));
  std::vector<ServerTraceRecord> server = {MakeServer(1, 0, 10'200),
                                           MakeServer(2, 0, 30'200),
                                           MakeServer(3, 0, 40'200)};

  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(stats.joined, 3u);
  EXPECT_EQ(stats.client_only, 0u);
  EXPECT_EQ(stats.server_only, 0u);
  EXPECT_EQ(spans[0].client.request_id, 1u);
  EXPECT_EQ(spans[1].client.request_id, 2u);
  EXPECT_EQ(spans[2].client.request_id, 3u);
  for (const JoinedSpan& s : spans) {
    ASSERT_TRUE(s.has_server);
    EXPECT_EQ(s.server.wire_request_id, s.client.request_id);
  }
}

TEST(JoinTraces, LostDatagramsLeaveUnmatchedHalves) {
  // Request 2's response was lost (client never recorded it, server did);
  // request 3's lifecycle record was overwritten in the ring (client only).
  std::vector<ClientTraceRecord> client = {
      MakeClient(1, 0, 10'000, 0, 200, 200),
      MakeClient(3, 0, 30'000, 0, 200, 200)};
  std::vector<ServerTraceRecord> server = {MakeServer(1, 0, 10'200),
                                           MakeServer(2, 0, 20'200)};

  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(spans.size(), 2u);  // every client sample renders, joined or not
  EXPECT_EQ(stats.joined, 1u);
  EXPECT_EQ(stats.client_only, 1u);
  EXPECT_EQ(stats.server_only, 1u);
  EXPECT_TRUE(spans[0].has_server);
  EXPECT_FALSE(spans[1].has_server);
}

TEST(JoinTraces, DuplicateRequestIdsAcrossFlowsJoinByFlow) {
  // Two flows both carry wire request_id 7: the flow (wire client_id) must
  // disambiguate — a join on request_id alone would cross the streams.
  std::vector<ClientTraceRecord> client = {
      MakeClient(7, /*flow=*/0, 10'000, 0, 200, 200),
      MakeClient(7, /*flow=*/1, 11'000, 0, 200, 200)};
  std::vector<ServerTraceRecord> server = {MakeServer(7, /*client_id=*/1,
                                                      11'200),
                                           MakeServer(7, /*client_id=*/0,
                                                      10'200)};

  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(stats.joined, 2u);
  EXPECT_EQ(stats.duplicate_keys, 0u);
  ASSERT_TRUE(spans[0].has_server);
  ASSERT_TRUE(spans[1].has_server);
  // Send-ordered: flow 0 first, matched to the client_id=0 lifecycle record.
  EXPECT_EQ(spans[0].client.flow, 0u);
  EXPECT_EQ(spans[0].server.client_id, 0u);
  EXPECT_EQ(spans[0].server.stamp[0], 10'200);
  EXPECT_EQ(spans[1].server.client_id, 1u);
  EXPECT_EQ(spans[1].server.stamp[0], 11'200);
}

TEST(JoinTraces, DuplicateServerKeysFirstWins) {
  std::vector<ClientTraceRecord> client = {
      MakeClient(5, 0, 10'000, 0, 200, 200)};
  std::vector<ServerTraceRecord> server = {MakeServer(5, 0, 10'200),
                                           MakeServer(5, 0, 99'999)};

  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(stats.joined, 1u);
  EXPECT_EQ(stats.duplicate_keys, 1u);
  EXPECT_EQ(spans[0].server.stamp[0], 10'200);
}

TEST(JoinTraces, ZeroSampleWindow) {
  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces({}, {}, &stats);
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(stats.joined, 0u);
  // The export of an empty window is still a valid, loadable trace.
  const std::string trace = ExportJoinedTrace(spans, ClockOffsetEstimate{});
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(trace.find("client-queue"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Export shape

TEST(ExportJoinedTrace, FullyJoinedSpanCoversAllStages) {
  std::vector<ClientTraceRecord> client = {
      MakeClient(1, 0, 10'000, /*offset=*/1'000'000, 200, 200)};
  std::vector<ServerTraceRecord> server = {
      MakeServer(1, 0, client[0].server_rx_ns)};
  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(stats.joined, 1u);
  const ClockOffsetEstimate clocks = EstimateClockOffset(client);
  ASSERT_TRUE(clocks.valid);

  const std::string trace = ExportJoinedTrace(spans, clocks);
  for (const char* name :
       {"client-queue", "wire-out", "wire-back", "classify", "enqueue",
        "queue", "handoff", "service", "reply"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
  // Async span open/close pair carries the request identity.
  EXPECT_NE(trace.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(trace.find("f0r1"), std::string::npos);
  // Server slice names come from the lifecycle record's type name.
  EXPECT_NE(trace.find("SHORT"), std::string::npos);
}

TEST(ExportJoinedTrace, InvalidClocksDropServerAndWireSlices) {
  // Without a clock fix the server stamps cannot be placed on the client
  // timeline: render client-side slices only, never garbage coordinates.
  std::vector<ClientTraceRecord> client = {
      MakeClient(1, 0, 10'000, 0, 200, 200)};
  client[0].server_rx_ns = 0;  // unstamped: estimator gets nothing
  client[0].server_tx_ns = 0;
  std::vector<ServerTraceRecord> server = {MakeServer(1, 0, 10'200)};
  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  const ClockOffsetEstimate clocks = EstimateClockOffset(client);
  ASSERT_FALSE(clocks.valid);

  const std::string trace = ExportJoinedTrace(spans, clocks);
  EXPECT_NE(trace.find("client-queue"), std::string::npos);
  EXPECT_EQ(trace.find("wire-out"), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"service\""), std::string::npos);
}

TEST(ExportJoinedTrace, Deterministic) {
  std::vector<ClientTraceRecord> client = {
      MakeClient(1, 0, 10'000, 0, 200, 200),
      MakeClient(2, 1, 12'000, 0, 200, 200)};
  std::vector<ServerTraceRecord> server = {MakeServer(1, 0, 10'200),
                                           MakeServer(2, 1, 12'200)};
  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  const ClockOffsetEstimate clocks = EstimateClockOffset(client);
  EXPECT_EQ(ExportJoinedTrace(spans, clocks), ExportJoinedTrace(spans, clocks));
}

// ---------------------------------------------------------------------------
// Parse layer

TEST(ParseClientSamples, LoadgenReportShape) {
  const std::string json = R"({
    "policy": "darc", "sample_every": 64,
    "samples": [
      {"request_id": 64, "flow": 0, "wire_type": 1, "due_ns": 100,
       "send_ns": 110, "recv_ns": 900, "server_rx_ns": 400,
       "server_tx_ns": 600},
      {"request_id": 128, "flow": 1, "wire_type": 2, "due_ns": 1000,
       "send_ns": 1010, "recv_ns": 2000, "server_rx_ns": 0,
       "server_tx_ns": 0}
    ]
  })";
  std::vector<ClientTraceRecord> out;
  std::string error;
  ASSERT_TRUE(ParseClientSamplesJson(json, &out, &error)) << error;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, 64u);
  EXPECT_EQ(out[0].server_tx_ns, 600);
  EXPECT_EQ(out[1].flow, 1u);
  EXPECT_EQ(out[1].server_rx_ns, 0);
}

TEST(ParseClientSamples, MissingSamplesKeyIsEmptyNotError) {
  std::vector<ClientTraceRecord> out;
  std::string error;
  ASSERT_TRUE(ParseClientSamplesJson(R"({"policy":"darc"})", &out, &error));
  EXPECT_TRUE(out.empty());
}

TEST(ParseClientSamples, PreservesLargeTimestampsExactly) {
  // TSC-derived nanos exceed 2^53: a double round-trip would corrupt them.
  const int64_t big = (int64_t{1} << 62) + 12345;
  const std::string json = "[{\"request_id\": 1, \"flow\": 0, "
                           "\"send_ns\": " + std::to_string(big) + "}]";
  std::vector<ClientTraceRecord> out;
  std::string error;
  ASSERT_TRUE(ParseClientSamplesJson(json, &out, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].send_ns, big);
}

TEST(ParseClientSamples, MalformedJsonFails) {
  std::vector<ClientTraceRecord> out;
  std::string error;
  EXPECT_FALSE(ParseClientSamplesJson("{\"samples\": [", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseClientSamplesJson("", &out, &error));
  EXPECT_FALSE(ParseClientSamplesJson("\"just a string\"", &out, &error));
}

TEST(ParseLifecycle, RoundTripsRecords) {
  const std::string json = R"({
    "traces": [
      {"request_id": 42, "type": 1, "type_name": "SHORT", "worker": 3,
       "wire_request_id": 64, "client_id": 2,
       "stamps": {"rx": 100, "classified": 110, "enqueued": 120,
                  "dispatched": 130, "handler_start": 140,
                  "handler_end": 150, "tx": 160}}
    ]
  })";
  std::vector<ServerTraceRecord> out;
  std::string error;
  ASSERT_TRUE(ParseLifecycleJson(json, &out, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_id, 42u);
  EXPECT_EQ(out[0].type_name, "SHORT");
  EXPECT_EQ(out[0].worker, 3u);
  EXPECT_EQ(out[0].wire_request_id, 64u);
  EXPECT_EQ(out[0].client_id, 2u);
  EXPECT_EQ(out[0].stamp[0], 100);
  EXPECT_EQ(out[0].stamp[kNumTraceStages - 1], 160);
}

// A lifecycle type name decoded from "\n" must be re-escaped when the joined
// trace emits it, or the Perfetto JSON breaks.
TEST(ExportJoinedTrace, EscapesDecodedTypeNames) {
  const std::string json = R"({"traces": [
      {"request_id": 7, "type": 1, "type_name": "A\nB\t\"C\"", "worker": 0,
       "wire_request_id": 1, "client_id": 0,
       "stamps": {"rx": 100, "classified": 110, "enqueued": 120,
                  "dispatched": 130, "handler_start": 140,
                  "handler_end": 150, "tx": 160}}]})";
  std::vector<ServerTraceRecord> server;
  std::string error;
  ASSERT_TRUE(ParseLifecycleJson(json, &server, &error)) << error;
  ASSERT_EQ(server.size(), 1u);
  ASSERT_EQ(server[0].type_name, "A\nB\t\"C\"");
  const std::vector<ClientTraceRecord> client = {
      MakeClient(1, 0, 10'000, /*offset=*/0, 200, 200)};
  JoinStats stats;
  const std::vector<JoinedSpan> spans = JoinTraces(client, server, &stats);
  ASSERT_EQ(stats.joined, 1u);
  const std::string trace =
      ExportJoinedTrace(spans, EstimateClockOffset(client));
  EXPECT_NE(trace.find("\"name\":\"A\\nB\\t\\\"C\\\"\""), std::string::npos);
  EXPECT_EQ(trace.find("A\nB"), std::string::npos);
}

TEST(ParseLifecycle, RequiresTracesArray) {
  std::vector<ServerTraceRecord> out;
  std::string error;
  EXPECT_FALSE(ParseLifecycleJson("{}", &out, &error));
  EXPECT_FALSE(ParseLifecycleJson("[]", &out, &error));
}

}  // namespace
}  // namespace psp
