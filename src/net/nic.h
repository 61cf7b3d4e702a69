// A simulated NIC for the threaded runtime: hardware RX/TX queue pairs backed
// by lock-free rings, and per-thread NetworkContexts
// that give each worker "unique access to receive and transmit queues in the
// NIC" (paper §4.3.1).
//
// This stands in for the Intel X710 + DPDK substrate of the original testbed.
// The loopback hook lets an in-process load generator play the role of the
// client machines: frames pushed to TX are delivered back to the generator.
#ifndef PSP_SRC_NET_NIC_H_
#define PSP_SRC_NET_NIC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/memory_pool.h"
#include "src/common/spsc_ring.h"
#include "src/net/packet.h"

namespace psp {

// One hardware queue pair (RX + TX descriptor rings).
class NicQueuePair {
 public:
  explicit NicQueuePair(size_t depth) : rx_(depth), tx_(depth) {}

  SpscRing<PacketRef>& rx() { return rx_; }
  SpscRing<PacketRef>& tx() { return tx_; }

 private:
  SpscRing<PacketRef> rx_;
  SpscRing<PacketRef> tx_;
};

class SimulatedNic {
 public:
  // num_queues RX/TX queue pairs, each `queue_depth` descriptors deep (power
  // of two). The NIC registers `pool` the way DPDK registers a mempool: all
  // frames must live in pool buffers.
  SimulatedNic(uint32_t num_queues, size_t queue_depth, MemoryPool* pool);

  // "Wire" ingress: delivers a frame to RX queue `queue`. Returns false
  // (drop) when the queue is full or does not exist.
  bool DeliverToQueue(uint32_t queue, PacketRef packet);

  // Polls one frame from an RX queue.
  bool PollRx(uint32_t queue, PacketRef* out);

  // Transmits: in this simulation, TX frames land on the egress ring that the
  // in-process "client" drains.
  bool Transmit(uint32_t queue, PacketRef packet);
  bool PollEgress(PacketRef* out);

  uint32_t num_queues() const { return num_queues_; }
  MemoryPool* pool() { return pool_; }

  uint64_t rx_drops() const {
    return rx_drops_.load(std::memory_order_relaxed);
  }

 private:
  uint32_t num_queues_;
  MemoryPool* pool_;
  std::vector<std::unique_ptr<NicQueuePair>> queues_;
  // Egress back to the in-process load generator (MPSC: many TX queues, one
  // generator). Implemented as one SPSC per queue drained round-robin to stay
  // lock-free.
  std::vector<std::unique_ptr<SpscRing<PacketRef>>> egress_;
  uint32_t egress_cursor_ = 0;
  // Relaxed atomic: bumped by the ingress thread, read by telemetry snapshots
  // taken from other threads while traffic flows.
  std::atomic<uint64_t> rx_drops_{0};
};

// A thread's handle on the NIC: its RX/TX queue plus a private buffer cache.
// Matches the paper's network context handed to net and application workers.
class NetworkContext {
 public:
  NetworkContext(SimulatedNic* nic, uint32_t queue_id)
      : nic_(nic), queue_id_(queue_id), cache_(nic->pool()) {}

  bool PollRx(PacketRef* out) { return nic_->PollRx(queue_id_, out); }
  bool Transmit(PacketRef packet) { return nic_->Transmit(queue_id_, packet); }

  std::byte* AllocBuffer() { return cache_.Alloc(); }
  void FreeBuffer(std::byte* buf) { cache_.Free(buf); }

  uint32_t queue_id() const { return queue_id_; }

 private:
  SimulatedNic* nic_;
  uint32_t queue_id_;
  BufferCache cache_;
};

}  // namespace psp

#endif  // PSP_SRC_NET_NIC_H_
