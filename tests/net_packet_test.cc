// Wire-format tests: build/parse round trips, malformed-frame rejection,
// in-place response formatting (the zero-copy TX path).
#include "src/net/packet.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"

namespace psp {
namespace {

RequestFrame SampleFrame() {
  RequestFrame f;
  f.flow = FlowTuple{0x0A000001, 0x0A000002, 5555, 6666};
  f.request_type = 3;
  f.request_id = 77;
  f.client_id = 9;
  f.client_timestamp = 123456789;
  return f;
}

TEST(Packet, BuildParseRoundTrip) {
  std::byte buf[kMaxPacketSize];
  const char payload[] = "hello-kv";
  RequestFrame f = SampleFrame();
  f.payload = reinterpret_cast<const std::byte*>(payload);
  f.payload_length = sizeof(payload);

  const uint32_t len = BuildRequestPacket(f, buf, sizeof(buf));
  ASSERT_GT(len, 0u);
  EXPECT_EQ(len, kHeadersSize + sizeof(PspHeader) + sizeof(payload));

  const auto parsed = ParseRequestPacket(buf, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow.src_addr, f.flow.src_addr);
  EXPECT_EQ(parsed->flow.dst_addr, f.flow.dst_addr);
  EXPECT_EQ(parsed->flow.src_port, f.flow.src_port);
  EXPECT_EQ(parsed->flow.dst_port, f.flow.dst_port);
  EXPECT_EQ(parsed->psp.request_type, 3u);
  EXPECT_EQ(parsed->psp.request_id, 77u);
  EXPECT_EQ(parsed->psp.client_id, 9u);
  EXPECT_EQ(parsed->psp.client_timestamp, 123456789);
  ASSERT_EQ(parsed->payload_length, sizeof(payload));
  EXPECT_EQ(std::memcmp(parsed->payload, payload, sizeof(payload)), 0);
}

TEST(Packet, EmptyPayload) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  ASSERT_GT(len, 0u);
  const auto parsed = ParseRequestPacket(buf, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_length, 0u);
}

TEST(Packet, RejectsOversizedPayload) {
  std::byte buf[kMaxPacketSize];
  std::vector<std::byte> big(kMaxPacketSize, std::byte{0});
  RequestFrame f = SampleFrame();
  f.payload = big.data();
  f.payload_length = static_cast<uint32_t>(big.size());
  EXPECT_EQ(BuildRequestPacket(f, buf, sizeof(buf)), 0u);
}

TEST(Packet, RejectsTruncatedFrame) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  EXPECT_FALSE(ParseRequestPacket(buf, len - 1).has_value());
  EXPECT_FALSE(ParseRequestPacket(buf, 10).has_value());
}

TEST(Packet, RejectsBadMagic) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  const uint32_t bad_magic = 0xDEADBEEF;
  std::memcpy(buf + kRequestOffset + offsetof(PspHeader, magic), &bad_magic,
              sizeof(bad_magic));
  EXPECT_FALSE(ParseRequestPacket(buf, len).has_value());
}

TEST(Packet, RejectsNonIpv4EtherType) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  auto* eth = reinterpret_cast<EthernetHeader*>(buf);
  eth->ether_type = HostToNet16(0x0806);  // ARP
  EXPECT_FALSE(ParseRequestPacket(buf, len).has_value());
}

TEST(Packet, RejectsNonUdpProtocol) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  auto* ip = reinterpret_cast<Ipv4Header*>(buf + sizeof(EthernetHeader));
  ip->protocol = 6;  // TCP
  EXPECT_FALSE(ParseRequestPacket(buf, len).has_value());
}

TEST(Packet, Ipv4ChecksumValidates) {
  std::byte buf[kMaxPacketSize];
  BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  const auto* ip =
      reinterpret_cast<const Ipv4Header*>(buf + sizeof(EthernetHeader));
  // Recomputing over a header with a valid checksum must reproduce it.
  EXPECT_EQ(Ipv4Checksum(*ip), ip->checksum);
}

TEST(Packet, FormatResponseInPlaceSwapsDirections) {
  std::byte buf[kMaxPacketSize];
  const char payload[] = "req";
  RequestFrame f = SampleFrame();
  f.payload = reinterpret_cast<const std::byte*>(payload);
  f.payload_length = sizeof(payload);
  BuildRequestPacket(f, buf, sizeof(buf));

  const uint32_t resp_len = FormatResponseInPlace(buf, 16);
  EXPECT_EQ(resp_len, kHeadersSize + sizeof(PspHeader) + 16);
  const auto parsed = ParseRequestPacket(buf, resp_len);
  ASSERT_TRUE(parsed.has_value());
  // Source and destination swapped.
  EXPECT_EQ(parsed->flow.src_addr, 0x0A000002u);
  EXPECT_EQ(parsed->flow.dst_addr, 0x0A000001u);
  EXPECT_EQ(parsed->flow.src_port, 6666);
  EXPECT_EQ(parsed->flow.dst_port, 5555);
  // Request identity preserved so the client can match the response.
  EXPECT_EQ(parsed->psp.request_id, 77u);
  EXPECT_EQ(parsed->payload_length, 16u);
  // IP checksum still valid after the rewrite.
  const auto* ip =
      reinterpret_cast<const Ipv4Header*>(buf + sizeof(EthernetHeader));
  EXPECT_EQ(Ipv4Checksum(*ip), ip->checksum);
}

// --- Wire-level trace context ------------------------------------------------

TEST(Packet, TraceFlagsRoundTrip) {
  std::byte buf[kMaxPacketSize];
  RequestFrame f = SampleFrame();
  f.trace_flags = PspHeader::kFlagTraceSampled;
  const uint32_t len = BuildRequestPacket(f, buf, sizeof(buf));
  ASSERT_GT(len, 0u);
  const auto parsed = ParseRequestPacket(buf, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->psp.trace_flags, PspHeader::kFlagTraceSampled);
  // Fresh requests carry zero server stamps — the server hasn't seen them.
  EXPECT_EQ(parsed->psp.server_rx_timestamp, 0);
  EXPECT_EQ(parsed->psp.server_tx_timestamp, 0);
}

TEST(Packet, TraceFlagsDefaultUnsampled) {
  std::byte buf[kMaxPacketSize];
  const uint32_t len = BuildRequestPacket(SampleFrame(), buf, sizeof(buf));
  const auto parsed = ParseRequestPacket(buf, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->psp.trace_flags, 0u);
}

TEST(Packet, StampServerTimestampsRoundTrip) {
  std::byte buf[kMaxPacketSize];
  RequestFrame f = SampleFrame();
  f.trace_flags = PspHeader::kFlagTraceSampled;
  const uint32_t len = BuildRequestPacket(f, buf, sizeof(buf));
  ASSERT_GT(len, 0u);
  StampServerTimestamps(buf, 111222333, 444555666);
  const auto parsed = ParseRequestPacket(buf, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->psp.server_rx_timestamp, 111222333);
  EXPECT_EQ(parsed->psp.server_tx_timestamp, 444555666);
  // Stamping must not disturb neighbouring fields.
  EXPECT_EQ(parsed->psp.request_id, 77u);
  EXPECT_EQ(parsed->psp.client_timestamp, 123456789);
  EXPECT_EQ(parsed->psp.trace_flags, PspHeader::kFlagTraceSampled);
}

TEST(Packet, FormatResponsePreservesTraceContext) {
  std::byte buf[kMaxPacketSize];
  RequestFrame f = SampleFrame();
  f.trace_flags = PspHeader::kFlagTraceSampled;
  BuildRequestPacket(f, buf, sizeof(buf));
  StampServerTimestamps(buf, 1000, 2000);
  // The zero-copy TX rewrite must keep the echoed trace context intact.
  const uint32_t resp_len = FormatResponseInPlace(buf, 8);
  const auto parsed = ParseRequestPacket(buf, resp_len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->psp.trace_flags, PspHeader::kFlagTraceSampled);
  EXPECT_EQ(parsed->psp.server_rx_timestamp, 1000);
  EXPECT_EQ(parsed->psp.server_tx_timestamp, 2000);
  EXPECT_EQ(parsed->psp.client_timestamp, 123456789);
}

// --- Parser robustness (fuzz-ish) ----------------------------------------------

class PacketFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketFuzzTest, RandomBytesNeverCrashParser) {
  Rng rng(GetParam());
  std::byte buf[kMaxPacketSize];
  for (int round = 0; round < 2000; ++round) {
    const auto len = static_cast<uint32_t>(rng.NextBounded(kMaxPacketSize + 1));
    for (uint32_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::byte>(rng.Next());
    }
    const auto parsed = ParseRequestPacket(buf, len);
    if (parsed.has_value()) {
      // If random bytes happen to parse, the invariants must still hold.
      EXPECT_LE(kRequestOffset + sizeof(PspHeader) + parsed->payload_length,
                len);
      EXPECT_EQ(parsed->psp.magic, PspHeader::kMagic);
    }
  }
}

TEST_P(PacketFuzzTest, CorruptedValidFramesNeverCrash) {
  Rng rng(GetParam() + 1000);
  std::byte buf[kMaxPacketSize];
  RequestFrame f = SampleFrame();
  std::byte payload[100] = {};
  f.payload = payload;
  f.payload_length = sizeof(payload);
  const uint32_t len = BuildRequestPacket(f, buf, sizeof(buf));
  for (int round = 0; round < 2000; ++round) {
    std::byte copy[kMaxPacketSize];
    std::memcpy(copy, buf, len);
    // Flip a handful of random bytes.
    for (int flips = 0; flips < 4; ++flips) {
      copy[rng.NextBounded(len)] = static_cast<std::byte>(rng.Next());
    }
    const auto parsed = ParseRequestPacket(copy, len);
    if (parsed.has_value()) {
      EXPECT_LE(kRequestOffset + sizeof(PspHeader) + parsed->payload_length,
                len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzzTest,
                         ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace psp
