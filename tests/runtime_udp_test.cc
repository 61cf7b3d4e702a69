// End-to-end tests for the kernel UDP socket ingress (IngressMode::kUdp):
// an external-style client (UdpLoadGenerator over real loopback datagrams)
// drives the full pipeline — recvmmsg net worker → dispatcher → DARC →
// workers → sendmsg egress — and the books must balance. Kept small so they
// run quickly on single-core machines.
#include "src/runtime/persephone.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/synthetic.h"
#include "src/net/udp_loadgen.h"

namespace psp {
namespace {

RuntimeConfig UdpRuntime() {
  RuntimeConfig config;
  config.num_workers = 2;
  config.scheduler.mode = PolicyMode::kDarc;
  config.pool_buffers = 1024;
  config.ingress.mode = IngressMode::kUdp;
  config.ingress.listen_port = 0;  // ephemeral
  return config;
}

UdpRequestSpec SpinSpec(uint32_t wire_id, std::string name, double ratio,
                        Nanos spin) {
  UdpRequestSpec spec;
  spec.wire_id = wire_id;
  spec.name = std::move(name);
  spec.ratio = ratio;
  spec.build_payload = [spin](std::byte* payload, uint32_t capacity,
                              Rng&) -> uint32_t {
    if (capacity < sizeof(Nanos)) {
      return 0;
    }
    std::memcpy(payload, &spin, sizeof(spin));
    return sizeof(spin);
  };
  return spec;
}

UdpLoadGenReport Drive(uint16_t port, uint64_t requests, uint32_t flows = 1) {
  UdpLoadGenConfig lg;
  lg.port = port;
  lg.rate_rps = 2000;
  lg.total_requests = requests;
  lg.num_flows = flows;
  lg.drain_timeout = 2 * kSecond;  // generous for loaded CI machines
  UdpLoadGenerator gen({SpinSpec(1, "SHORT", 0.9, FromMicros(5)),
                        SpinSpec(2, "LONG", 0.1, FromMicros(200))},
                       lg);
  std::string error;
  const UdpLoadGenReport report = gen.Run(&error);
  EXPECT_EQ(error, "");
  return report;
}

TEST(RuntimeUdp, EchoesOverLoopbackEndToEnd) {
  Persephone server(UdpRuntime());
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(5), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(200), 0.1);
  server.Start();
  const uint16_t port = server.udp_port();
  ASSERT_GT(port, 0);

  const UdpLoadGenReport report = Drive(port, 300);
  server.Stop();

  EXPECT_EQ(report.sent, 300u);
  // Loopback at this trivial rate: every request comes back, typed.
  EXPECT_EQ(report.received, 300u);
  EXPECT_GT(report.latency.at(1).Count(), 0u);
  EXPECT_GT(report.latency.at(2).Count(), 0u);
  // Client-observed RTT is at least the spun service time.
  EXPECT_GE(report.latency.at(2).Min(), FromMicros(150));

  // The books balance across every layer: socket frontend, dispatcher,
  // scheduler, egress.
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_EQ(snap.counter("ingress.rx_datagrams"), 300u);
  EXPECT_EQ(snap.counter("runtime.rx_packets"), 300u);
  EXPECT_EQ(snap.counter("scheduler.completed"), 300u);
  EXPECT_EQ(snap.counter("ingress.tx_datagrams"), 300u);
  EXPECT_EQ(snap.counter("ingress.malformed"), 0u);
  EXPECT_EQ(snap.counter("ingress.tx_drops"), 0u);
  EXPECT_EQ(snap.counter("runtime.malformed"), 0u);
}

// DARC's per-type profile is handler time, as the DES's service times are:
// the worker reads service at handler end and signals completion before its
// egress send, so the profiled mean carries no sendmmsg. One worker serves
// every request in arrival order and traces each one, so replaying the
// profiler's lifetime EWMA over the traced handler spans must reproduce its
// mean. A service time read after the send would put the loopback syscall
// (about 1.6 us or more per datagram) into every sample.
TEST(RuntimeUdp, ProfiledServiceMeanExcludesEgress) {
  constexpr uint64_t kRequests = 200;
  RuntimeConfig config = UdpRuntime();
  config.num_workers = 1;
  config.telemetry.sample_every = 1;
  config.telemetry.trace_ring_capacity = 2 * kRequests;
  Persephone server(config);
  const TypeIndex type =
      server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(2), 1.0);
  server.Start();

  UdpLoadGenConfig lg;
  lg.port = server.udp_port();
  lg.rate_rps = 2000;
  lg.total_requests = kRequests;
  lg.drain_timeout = 2 * kSecond;
  UdpLoadGenerator gen({SpinSpec(1, "T", 1.0, FromMicros(2))}, lg);
  std::string error;
  const UdpLoadGenReport report = gen.Run(&error);
  ASSERT_EQ(error, "");
  server.Stop();
  ASSERT_EQ(report.received, kRequests);

  std::vector<RequestTrace> traces = server.telemetry_snapshot().traces;
  ASSERT_EQ(traces.size(), kRequests);
  std::sort(traces.begin(), traces.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.request_id < b.request_id;
            });
  const double alpha = config.scheduler.profiler.ewma_alpha;
  double ewma = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    ASSERT_EQ(traces[i].type, type);
    const double span =
        static_cast<double>(traces[i].At(TraceStage::kHandlerEnd) -
                            traces[i].At(TraceStage::kHandlerStart));
    ewma = i == 0 ? span : ewma + alpha * (span - ewma);
  }
  // The two sums differ only in floating-point rounding.
  const Nanos profiled = server.scheduler().profiler().MeanServiceTime(type);
  EXPECT_NEAR(static_cast<double>(profiled), ewma, 10.0);
}

TEST(RuntimeUdp, WireSamplingEchoesServerStampsEndToEnd) {
  // The distributed-tracing wire contract over real loopback datagrams:
  // every 1-in-N client-sampled request comes back with the server's
  // rx/tx stamps echoed in the PSP header, and the server's lifecycle ring
  // holds records carrying the wire identity for the trace join.
  Persephone server(UdpRuntime());
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(5), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(200), 0.1);
  server.Start();

  UdpLoadGenConfig lg;
  lg.port = server.udp_port();
  lg.rate_rps = 2000;
  lg.total_requests = 256;
  lg.sample_every = 8;
  lg.warmup_fraction = 0.0;  // count every sampled id, 1-in-8 exactly
  lg.drain_timeout = 2 * kSecond;
  UdpLoadGenerator gen({SpinSpec(1, "SHORT", 0.9, FromMicros(5)),
                        SpinSpec(2, "LONG", 0.1, FromMicros(200))},
                       lg);
  std::string error;
  const UdpLoadGenReport report = gen.Run(&error);
  ASSERT_EQ(error, "");
  server.Stop();

  ASSERT_EQ(report.received, 256u);
  // 1-in-8 of 256: every sampled response echoed its stamps and recorded.
  EXPECT_EQ(report.samples.size(), 256u / 8u);
  for (const ClientSpanRecord& rec : report.samples) {
    EXPECT_GT(rec.server_rx_ns, 0);
    EXPECT_GE(rec.server_tx_ns, rec.server_rx_ns);
    EXPECT_GE(rec.recv_ns, rec.send_ns);
    // Server sojourn fits inside the client-observed RTT (same TSC domain
    // in-process, so this holds exactly).
    EXPECT_LE(rec.server_tx_ns - rec.server_rx_ns, rec.recv_ns - rec.send_ns);
  }
  EXPECT_GT(report.server_sojourn.at(1).Count() +
                (report.server_sojourn.count(2) != 0
                     ? report.server_sojourn.at(2).Count()
                     : 0),
            0u);

  // The server half: lifecycle records exist whose wire identity matches
  // client-sampled request ids (multiples of sample_every).
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  size_t wire_sampled = 0;
  for (const RequestTrace& trace : snap.traces) {
    if (trace.wire_request_id % lg.sample_every == 0) {
      ++wire_sampled;
      EXPECT_EQ(trace.client_id, 0u);  // single flow
    }
  }
  EXPECT_GT(wire_sampled, 0u);
}

TEST(RuntimeUdp, ReuseportShardsAcrossNetWorkers) {
  RuntimeConfig config = UdpRuntime();
  config.ingress.num_net_workers = 2;
  config.ingress.reuseport = true;
  Persephone server(config);
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(5), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(200), 0.1);
  server.Start();

  // Several client flows (distinct source ports) so the kernel has something
  // to spread across the two shard sockets.
  const UdpLoadGenReport report = Drive(server.udp_port(), 200, /*flows=*/4);
  server.Stop();

  EXPECT_EQ(report.received, 200u);
  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_EQ(snap.counter("ingress.rx_datagrams"), 200u);
  EXPECT_EQ(snap.counter("scheduler.completed"), 200u);
}

TEST(RuntimeUdp, AdaptivePollServesAndSleepsWhenIdle) {
  RuntimeConfig config = UdpRuntime();
  config.ingress.poll.policy = PollPolicy::kAdaptive;
  config.ingress.poll.idle_streak_before_sleep = 8;
  config.ingress.poll.min_sleep = 2 * kMicrosecond;
  config.ingress.poll.wakeup_budget = 200 * kMicrosecond;
  Persephone server(config);
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(5), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(200), 0.1);
  server.Start();

  const UdpLoadGenReport report = Drive(server.udp_port(), 200);
  ASSERT_NE(server.udp_ingress(), nullptr);
  // An idle stretch after the load: the adaptive poller must spend at least
  // a tenth of it asleep. About three quarters is typical; each capped sleep
  // overshoots its request, and a starved poller waits for a core after each
  // wakeup (down to ~0.2 under sanitizers on an oversubscribed ctest -j).
  // Busy polling never sleeps, and a poller that never backs off sleeps
  // ~0.035, so this is the gate that adaptive polling undercuts busy
  // polling's idle CPU.
  constexpr Nanos kIdle = 50 * kMillisecond;
  const uint64_t slept_before = server.udp_ingress()->stats().slept_nanos;
  std::this_thread::sleep_for(std::chrono::nanoseconds(kIdle));
  const uint64_t idle_slept =
      server.udp_ingress()->stats().slept_nanos - slept_before;
  server.Stop();

  EXPECT_EQ(report.received, 200u);
  const UdpIngressStats stats = server.udp_ingress()->stats();
  EXPECT_GT(stats.sleeps, 0u);
  EXPECT_GT(stats.slept_nanos, 0u);
  EXPECT_GE(idle_slept, static_cast<uint64_t>(kIdle / 10));
}

TEST(RuntimeUdp, TruncatedDatagramFeedsDropTelemetry) {
  Persephone server(UdpRuntime());
  server.RegisterType(1, "T", MakeSpinHandler(), FromMicros(2), 1.0);
  server.Start();

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(server.udp_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr), 1);

  // A 4-byte runt never reaches the dispatcher: the net worker's structural
  // checks drop it into the ingress malformed counter.
  const char runt[4] = {9, 9, 9, 9};
  ASSERT_EQ(::sendto(fd, runt, sizeof(runt), 0,
                     reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
            4);

  // A datagram whose header lies about its payload length (claims 64 bytes,
  // carries none) passes the net worker (magic is fine) and is rejected by
  // the dispatcher's full parse — the existing runtime.malformed path.
  PspHeader psp;
  psp.magic = PspHeader::kMagic;
  psp.request_type = 1;
  psp.request_id = 0;
  psp.client_id = 0;
  psp.payload_length = 64;
  psp.client_timestamp = 0;
  ASSERT_EQ(::sendto(fd, &psp, sizeof(psp), 0,
                     reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
            static_cast<ssize_t>(sizeof(psp)));

  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 2 * kSecond;
  while (clock.Now() < deadline) {
    const TelemetrySnapshot snap = server.telemetry_snapshot();
    if (snap.counter("ingress.malformed") >= 1 &&
        snap.counter("runtime.malformed") >= 1) {
      break;
    }
    std::this_thread::yield();
  }
  server.Stop();
  ::close(fd);

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  EXPECT_EQ(snap.counter("ingress.malformed"), 1u);
  EXPECT_EQ(snap.counter("runtime.malformed"), 1u);
  EXPECT_EQ(snap.counter("scheduler.completed"), 0u);
}

TEST(RuntimeUdp, ValidationRejectsNonsense) {
  // udp mode without a port choice.
  RuntimeConfig no_port;
  no_port.ingress.mode = IngressMode::kUdp;
  EXPECT_THROW(Persephone{no_port}, std::invalid_argument);

  // reuseport with a single net worker.
  RuntimeConfig one_worker = UdpRuntime();
  one_worker.ingress.reuseport = true;
  EXPECT_THROW(Persephone{one_worker}, std::invalid_argument);

  // Several net workers without reuseport (they all bind one port).
  RuntimeConfig no_reuse = UdpRuntime();
  no_reuse.ingress.num_net_workers = 2;
  EXPECT_THROW(Persephone{no_reuse}, std::invalid_argument);
}

TEST(RuntimeUdp, RestartsCleanly) {
  Persephone server(UdpRuntime());
  server.RegisterType(1, "SHORT", MakeSpinHandler(), FromMicros(5), 0.9);
  server.RegisterType(2, "LONG", MakeSpinHandler(), FromMicros(200), 0.1);

  server.Start();
  const UdpLoadGenReport first = Drive(server.udp_port(), 100);
  server.Stop();
  EXPECT_EQ(first.received, 100u);

  // Second lifecycle binds fresh sockets (a fresh ephemeral port is fine)
  // and the pipeline serves again.
  server.Start();
  const UdpLoadGenReport second = Drive(server.udp_port(), 100);
  server.Stop();
  EXPECT_EQ(second.received, 100u);
}

}  // namespace
}  // namespace psp
