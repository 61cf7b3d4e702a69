// IngressSource seam: PollController pacing semantics, plus a conformance
// harness run against both IngressSource implementations (simulated-NIC
// poll, kernel UDP sockets) so they stay interchangeable behind the
// dispatcher.
#include <arpa/inet.h>
#include <atomic>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/memory_pool.h"
#include "src/net/ingress.h"
#include "src/net/nic.h"
#include "src/net/packet.h"
#include "src/net/poll_control.h"
#include "src/net/udp_ingress.h"

namespace psp {
namespace {

// --- PollController ---------------------------------------------------------

TEST(PollControl, BusyAndYieldNeverSleep) {
  for (const PollPolicy policy : {PollPolicy::kBusy, PollPolicy::kYield}) {
    PollControlConfig config;
    config.policy = policy;
    PollController controller(config);
    for (int i = 0; i < 1000; ++i) {
      controller.OnIdle();
    }
    EXPECT_EQ(controller.sleeps(), 0u);
    EXPECT_EQ(controller.slept_nanos(), 0);
  }
}

TEST(PollControl, AdaptiveSpinsThroughStreakThenBacksOffToBudget) {
  PollControlConfig config;
  config.policy = PollPolicy::kAdaptive;
  config.idle_streak_before_sleep = 4;
  config.min_sleep = 1 * kMicrosecond;
  config.wakeup_budget = 8 * kMicrosecond;
  PollController controller(config);

  // The first `idle_streak_before_sleep` empty rounds only yield.
  for (uint32_t i = 0; i < config.idle_streak_before_sleep; ++i) {
    controller.OnIdle();
  }
  EXPECT_EQ(controller.sleeps(), 0u);

  // Beyond the streak: sleeps double from min_sleep and cap at the budget.
  controller.OnIdle();
  EXPECT_EQ(controller.sleeps(), 1u);
  EXPECT_EQ(controller.next_sleep(), 2 * kMicrosecond);
  for (int i = 0; i < 10; ++i) {
    controller.OnIdle();
  }
  EXPECT_EQ(controller.next_sleep(), config.wakeup_budget);
  EXPECT_GE(controller.slept_nanos(), config.min_sleep);
}

TEST(PollControl, WorkResetsBackoff) {
  PollControlConfig config;
  config.policy = PollPolicy::kAdaptive;
  config.idle_streak_before_sleep = 1;
  config.min_sleep = 1 * kMicrosecond;
  config.wakeup_budget = 64 * kMicrosecond;
  PollController controller(config);
  for (int i = 0; i < 10; ++i) {
    controller.OnIdle();
  }
  EXPECT_GT(controller.next_sleep(), config.min_sleep);
  controller.OnWork();
  EXPECT_EQ(controller.next_sleep(), 0);
  // After work, the streak starts over: the next empty round only yields.
  const uint64_t sleeps_before = controller.sleeps();
  controller.OnIdle();
  EXPECT_EQ(controller.sleeps(), sleeps_before);
}

TEST(PollControl, ConfigValidation) {
  PollControlConfig config;
  config.policy = PollPolicy::kAdaptive;
  config.min_sleep = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.min_sleep = 10 * kMicrosecond;
  config.wakeup_budget = 5 * kMicrosecond;
  EXPECT_FALSE(config.Validate().empty());
  config.wakeup_budget = 20 * kMicrosecond;
  config.idle_streak_before_sleep = 0;
  EXPECT_FALSE(config.Validate().empty());
  config.idle_streak_before_sleep = 8;
  EXPECT_TRUE(config.Validate().empty());
  // Non-adaptive policies ignore the sleep knobs entirely.
  config.policy = PollPolicy::kYield;
  config.min_sleep = 0;
  EXPECT_TRUE(config.Validate().empty());
}

// --- IngressConfig validation ----------------------------------------------

TEST(IngressConfig, RejectsNonsenseCombos) {
  IngressConfig config;  // ring defaults
  EXPECT_TRUE(config.Validate().empty());

  config.num_net_workers = 2;  // ring mode has exactly one net worker
  EXPECT_FALSE(config.Validate().empty());
  config.num_net_workers = 1;
  config.reuseport = true;  // udp-only knob
  EXPECT_FALSE(config.Validate().empty());
  config.reuseport = false;
  config.poll.policy = PollPolicy::kAdaptive;  // udp-only knob, valid alone
  ASSERT_TRUE(config.poll.Validate().empty());
  EXPECT_FALSE(config.Validate().empty());
  config.poll.policy = PollPolicy::kYield;
  config.poll.wakeup_budget = 50 * kMicrosecond;  // any non-default setting
  EXPECT_FALSE(config.Validate().empty());

  IngressConfig udp;
  udp.mode = IngressMode::kUdp;
  EXPECT_FALSE(udp.Validate().empty());  // listen_port unset
  udp.listen_port = 0;
  EXPECT_TRUE(udp.Validate().empty());
  udp.reuseport = true;  // reuseport with a single worker does nothing
  EXPECT_FALSE(udp.Validate().empty());
  udp.num_net_workers = 2;
  EXPECT_TRUE(udp.Validate().empty());
  udp.reuseport = false;  // several workers need reuseport
  EXPECT_FALSE(udp.Validate().empty());
}

// --- Conformance harness ----------------------------------------------------
//
// Contract checks shared by every implementation: frames injected by the
// producer come out of PollBurst complete, in order, and in arbitrary chunk
// sizes; an empty source returns 0; IdleHint is callable every round.

void DrainAndCheck(IngressSource* source, MemoryPool* pool, size_t expect_n) {
  std::vector<uint32_t> lengths;
  PacketRef burst[7];  // deliberately not a divisor-friendly width
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lengths.size() < expect_n &&
         std::chrono::steady_clock::now() < deadline) {
    const size_t n = source->PollBurst(burst, 7);
    if (n == 0) {
      source->IdleHint();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NE(burst[i].data, nullptr);
      lengths.push_back(burst[i].length);
      pool->FreeGlobal(burst[i].data);
    }
  }
  ASSERT_EQ(lengths.size(), expect_n) << "source: " << source->Name();
  // Frames were injected with length = kHeadersSize + kPspHeader + i, so
  // arrival order is observable.
  for (size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(lengths[i],
              kHeadersSize + sizeof(PspHeader) + i)
        << "source: " << source->Name() << " frame " << i;
  }
  // Quiescent source keeps returning 0.
  EXPECT_EQ(source->PollBurst(burst, 7), 0u);
}

// Builds the i-th conformance frame (payload length i) into a pool buffer.
PacketRef MakeFrame(MemoryPool* pool, size_t i) {
  std::byte* buf = pool->AllocGlobal();
  EXPECT_NE(buf, nullptr);
  std::byte payload[64] = {};
  RequestFrame frame;
  frame.flow = FlowTuple{0x0A000001, 0x0A0000FF, 1234, 6789};
  frame.request_type = 1;
  frame.request_id = i;
  frame.payload = payload;
  frame.payload_length = static_cast<uint32_t>(i);
  const uint32_t len = BuildRequestPacket(frame, buf, pool->buffer_size());
  EXPECT_GT(len, 0u);
  return PacketRef{buf, len};
}

constexpr size_t kConformanceFrames = 40;

TEST(IngressConformance, NicSource) {
  MemoryPool pool(kMaxPacketSize, 128);
  SimulatedNic nic(1, 64, &pool);
  NicIngressSource source(&nic, 0);
  for (size_t i = 0; i < kConformanceFrames; ++i) {
    ASSERT_TRUE(nic.DeliverToQueue(0, MakeFrame(&pool, i)));
  }
  DrainAndCheck(&source, &pool, kConformanceFrames);
}

TEST(IngressConformance, UdpSource) {
  MemoryPool pool(kMaxPacketSize, 128);
  IngressConfig config;
  config.mode = IngressMode::kUdp;
  config.listen_port = 0;  // ephemeral
  ASSERT_TRUE(config.Validate().empty());
  UdpIngress udp(config, 64, &pool, /*yield_on_idle=*/true);
  ASSERT_EQ(udp.Open(), "");
  ASSERT_GT(udp.port(), 0);

  std::atomic<bool> stop{false};
  std::thread net([&] { udp.RunNetWorker(0, stop); });

  // A real client socket sends the conformance frames as datagrams
  // (PspHeader + payload): what comes out of PollBurst must be full frames
  // with the synthesized headers in front, in send order (one flow, one
  // shard, loopback — ordering holds).
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(udp.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr), 1);
  for (size_t i = 0; i < kConformanceFrames; ++i) {
    std::byte datagram[256] = {};
    PspHeader psp;
    psp.magic = PspHeader::kMagic;
    psp.request_type = 1;
    psp.request_id = i;
    psp.client_id = 0;
    psp.payload_length = static_cast<uint32_t>(i);
    psp.client_timestamp = 0;
    std::memcpy(datagram, &psp, sizeof(psp));
    ASSERT_EQ(::sendto(fd, datagram, sizeof(PspHeader) + i, 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
              static_cast<ssize_t>(sizeof(PspHeader) + i));
  }
  DrainAndCheck(&udp, &pool, kConformanceFrames);

  // Runts and bad magic are dropped by the net worker (its layer-2-style
  // checks) and counted, with the buffers recycled, not leaked.
  const char junk[4] = {1, 2, 3, 4};
  ASSERT_EQ(::sendto(fd, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
            static_cast<ssize_t>(sizeof(junk)));
  std::byte bad[sizeof(PspHeader)] = {};  // right size, wrong magic
  ASSERT_EQ(::sendto(fd, bad, sizeof(bad), 0,
                     reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
            static_cast<ssize_t>(sizeof(bad)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (udp.stats().rx_malformed < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(udp.stats().rx_malformed, 2u);
  PacketRef burst[4];
  EXPECT_EQ(udp.PollBurst(burst, 4), 0u);

  stop.store(true);
  net.join();
  ::close(fd);
  EXPECT_EQ(udp.stats().rx_datagrams, kConformanceFrames);
  // Every buffer the net worker held came back to the pool.
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());
}

// The UDP sink's egress routing: a wrapped + response-formatted frame goes
// back to the address in its (swapped) headers — i.e. the original sender.
TEST(IngressConformance, UdpEgressRoutesBackToClient) {
  MemoryPool pool(kMaxPacketSize, 128);
  IngressConfig config;
  config.mode = IngressMode::kUdp;
  config.listen_port = 0;
  UdpIngress udp(config, 64, &pool, true);
  ASSERT_EQ(udp.Open(), "");

  // Client socket bound to an ephemeral port so the response has a real
  // destination to land on.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in self{};
  self.sin_family = AF_INET;
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &self.sin_addr), 1);
  self.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&self), sizeof(self)), 0);
  socklen_t self_len = sizeof(self);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&self), &self_len),
            0);

  // Build the frame the net worker would have produced for a datagram from
  // that client, then run it through the worker-side TX path.
  std::byte* buf = pool.AllocGlobal();
  PspHeader psp;
  psp.magic = PspHeader::kMagic;
  psp.request_type = 1;
  psp.request_id = 7;
  psp.client_id = 0;
  psp.payload_length = 4;
  psp.client_timestamp = 0;
  std::memcpy(buf + kRequestOffset, &psp, sizeof(psp));
  std::memcpy(buf + kRequestOffset + sizeof(PspHeader), "pong", 4);
  FlowTuple flow;
  flow.src_addr = 0x7F000001;  // the client
  flow.src_port = ntohs(self.sin_port);
  flow.dst_addr = 0x7F000001;
  flow.dst_port = udp.port();
  const uint32_t frame_len =
      WrapDatagramFrame(buf, sizeof(PspHeader) + 4, flow, /*ident=*/0);
  ASSERT_GT(frame_len, 0u);
  const uint32_t response_len = FormatResponseInPlace(buf, 4);
  const PacketRef response{buf, response_len};
  ASSERT_EQ(udp.SendBurst(&response, 1, /*queue=*/1), 1u);
  EXPECT_EQ(udp.stats().tx_datagrams, 1u);
  EXPECT_EQ(pool.AvailableApprox(), pool.num_buffers());  // sink freed it

  std::byte in[256];
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const ssize_t r = ::recv(fd, in, sizeof(in), 0);
  ASSERT_EQ(r, static_cast<ssize_t>(sizeof(PspHeader) + 4));
  PspHeader echoed;
  std::memcpy(&echoed, in, sizeof(echoed));
  EXPECT_EQ(echoed.magic, PspHeader::kMagic);
  EXPECT_EQ(echoed.request_id, 7u);
  EXPECT_EQ(std::memcmp(in + sizeof(PspHeader), "pong", 4), 0);
  ::close(fd);
}

}  // namespace
}  // namespace psp
