// Simulated NIC tests: queue-full drops and the TX/egress round trip.
#include "src/net/nic.h"

#include <gtest/gtest.h>

namespace psp {
namespace {

class NicTest : public ::testing::Test {
 protected:
  NicTest() : pool_(kMaxPacketSize, 64), nic_(4, 8, &pool_) {}

  PacketRef MakeRequest(uint16_t src_port) {
    std::byte* buf = pool_.AllocGlobal();
    RequestFrame f;
    f.flow = FlowTuple{0x0A000001, 0x0A000002, src_port, 6789};
    f.request_type = 1;
    const uint32_t len = BuildRequestPacket(f, buf, pool_.buffer_size());
    return PacketRef{buf, len};
  }

  MemoryPool pool_;
  SimulatedNic nic_;
};

TEST_F(NicTest, QueueFullDrops) {
  // Queue depth is 8; the 9th delivery to the same queue must drop.
  uint64_t accepted = 0;
  for (int i = 0; i < 12; ++i) {
    if (nic_.DeliverToQueue(0, MakeRequest(1))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(nic_.rx_drops(), 4u);
}

TEST_F(NicTest, TransmitReachesEgress) {
  const PacketRef pkt = MakeRequest(7);
  ASSERT_TRUE(nic_.Transmit(2, pkt));
  PacketRef out;
  ASSERT_TRUE(nic_.PollEgress(&out));
  EXPECT_EQ(out.data, pkt.data);
  EXPECT_FALSE(nic_.PollEgress(&out));
}

TEST_F(NicTest, EgressRoundRobinAcrossQueues) {
  const PacketRef a = MakeRequest(1);
  const PacketRef b = MakeRequest(2);
  ASSERT_TRUE(nic_.Transmit(0, a));
  ASSERT_TRUE(nic_.Transmit(3, b));
  PacketRef out1;
  PacketRef out2;
  ASSERT_TRUE(nic_.PollEgress(&out1));
  ASSERT_TRUE(nic_.PollEgress(&out2));
  EXPECT_NE(out1.data, out2.data);
}

TEST_F(NicTest, NetworkContextAllocTransmit) {
  NetworkContext ctx(&nic_, 1);
  std::byte* buf = ctx.AllocBuffer();
  ASSERT_NE(buf, nullptr);
  RequestFrame f;
  f.flow = FlowTuple{1, 2, 3, 4};
  const uint32_t len = BuildRequestPacket(f, buf, pool_.buffer_size());
  EXPECT_TRUE(ctx.Transmit(PacketRef{buf, len}));
  PacketRef out;
  EXPECT_TRUE(nic_.PollEgress(&out));
  ctx.FreeBuffer(out.data);
}

TEST_F(NicTest, DeliverToInvalidQueueDrops) {
  EXPECT_FALSE(nic_.DeliverToQueue(99, MakeRequest(1)));
  EXPECT_EQ(nic_.rx_drops(), 1u);
}

}  // namespace
}  // namespace psp
