#include "src/net/nic.h"

namespace psp {

SimulatedNic::SimulatedNic(uint32_t num_queues, size_t queue_depth,
                           MemoryPool* pool)
    : num_queues_(num_queues), pool_(pool) {
  queues_.reserve(num_queues);
  egress_.reserve(num_queues);
  for (uint32_t i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<NicQueuePair>(queue_depth));
    egress_.push_back(std::make_unique<SpscRing<PacketRef>>(queue_depth));
  }
}

bool SimulatedNic::DeliverToQueue(uint32_t queue, PacketRef packet) {
  // NIC-hardware-style RX timestamping (one rdtsc per frame): downstream
  // telemetry reads this as the lifecycle rx stamp.
  packet.rx_timestamp = TscClock::Global().Now();
  if (queue >= num_queues_ || !queues_[queue]->rx().TryPush(packet)) {
    rx_drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool SimulatedNic::PollRx(uint32_t queue, PacketRef* out) {
  return queues_[queue]->rx().TryPop(out);
}

bool SimulatedNic::Transmit(uint32_t queue, PacketRef packet) {
  packet.tx_timestamp = TscClock::Global().Now();
  return egress_[queue]->TryPush(packet);
}

bool SimulatedNic::PollEgress(PacketRef* out) {
  // Round-robin over per-queue egress rings; single consumer assumed.
  for (uint32_t i = 0; i < num_queues_; ++i) {
    const uint32_t q = (egress_cursor_ + i) % num_queues_;
    if (egress_[q]->TryPop(out)) {
      egress_cursor_ = (q + 1) % num_queues_;
      return true;
    }
  }
  return false;
}

}  // namespace psp
