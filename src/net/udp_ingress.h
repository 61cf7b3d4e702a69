// Kernel UDP socket ingress: the IngressSource/EgressSink implementation that
// lets an *external* process drive the runtime over real datagrams.
//
// Topology (paper §6, with the DPDK poll loop swapped for recvmmsg):
//
//   client ──UDP──▶ socket shard 0..N-1 ──recvmmsg──▶ net worker thread
//        net worker: validate (length + magic, the layer-2-style checks),
//        synthesize Eth/IPv4/UDP framing in front of the datagram
//        (WrapDatagramFrame, zero-copy), forward over an SPSC ring
//   dispatcher ──PollBurst──▶ parse → classify → DARC → app worker
//   app worker ──SendBurst──▶ sendmmsg back out the shard the request
//        arrived on (shard index rides the IPv4 identification field)
//
// Each net worker owns one socket and one forwarding ring, paced by a
// PollController (busy / yield / Metronome-style adaptive sleep). With
// reuseport, all sockets bind the same address:port and the kernel shards
// flows across them — the socket world's RSS.
//
// Wire format on the socket: PspHeader | payload (the kernel owns the real
// Ethernet/IP/UDP framing). The synthesized headers exist so the dispatch
// pipeline — written against full frames — runs unchanged.
#ifndef PSP_SRC_NET_UDP_INGRESS_H_
#define PSP_SRC_NET_UDP_INGRESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/memory_pool.h"
#include "src/common/single_writer.h"
#include "src/common/spsc_ring.h"
#include "src/net/ingress.h"
#include "src/net/packet.h"
#include "src/net/poll_control.h"

namespace psp {

// Counters a telemetry snapshot can fold in (all monotonically increasing).
struct UdpIngressStats {
  uint64_t rx_datagrams = 0;    // datagrams accepted and forwarded
  uint64_t rx_malformed = 0;    // too short / bad magic / oversized, dropped
  uint64_t ring_full_drops = 0; // dispatcher behind, forwarding ring full
  uint64_t tx_datagrams = 0;    // responses handed to the kernel
  uint64_t tx_batches = 0;      // sendmmsg rounds (syscalls) on the TX path
  uint64_t tx_drops = 0;        // sendmsg failures (response lost)
  uint64_t sleeps = 0;          // adaptive-poll sleeps across net workers
  uint64_t slept_nanos = 0;     // total time adaptive pollers spent asleep
  uint64_t net_cpu_nanos = 0;   // CLOCK_THREAD_CPUTIME_ID across net workers
  uint64_t net_wall_nanos = 0;  // wall time the net-worker loops were live
  // Accepted datagrams per shard socket (index = shard/net-worker). With
  // reuseport this is the observable skew of the kernel's flow sharding.
  std::vector<uint64_t> rx_per_shard;
};

class UdpIngress final : public IngressSource, public EgressSink {
 public:
  // `config.mode` must be kUdp and `config` must already Validate().
  // ring_depth (power of two) sizes each shard's forwarding ring; frames are
  // carved from `pool`; yield_on_idle makes the dispatcher-side IdleHint
  // yield (the runtime passes true; a caller that polls in its own loop may
  // pass false).
  UdpIngress(const IngressConfig& config, size_t ring_depth, MemoryPool* pool,
             bool yield_on_idle);
  ~UdpIngress() override;

  UdpIngress(const UdpIngress&) = delete;
  UdpIngress& operator=(const UdpIngress&) = delete;

  // Binds every shard socket. Returns "" on success, else a description of
  // the failure (nothing stays half-open). With listen_port == 0 the first
  // socket picks an ephemeral port and the rest bind to what it got.
  std::string Open();
  void Close();

  // The bound port (resolves ephemeral binds); 0 before Open().
  uint16_t port() const { return port_; }

  // Body of net-worker thread `shard` (one thread per shard, spawned by the
  // runtime). Polls the shard socket in recvmmsg batches, validates,
  // wraps, and forwards until `stop` becomes true. Pacing on empty polls
  // follows config.poll.
  void RunNetWorker(uint32_t shard, const std::atomic<bool>& stop);

  // IngressSource (dispatcher side): fair round-robin fan-in across the
  // shard rings.
  size_t PollBurst(PacketRef* out, size_t max_n) override;
  void IdleHint() override;
  const char* Name() const override { return "udp"; }

  // EgressSink (worker side): routes each response out the shard socket its
  // request arrived on and releases the buffer. Threads may call it
  // concurrently, one thread per `queue` (< 257): each queue's counters have
  // that thread as their one writer. Always takes ownership of all n frames
  // — a kernel-refused datagram is counted in tx_drops, not retried.
  size_t SendBurst(const PacketRef* frames, size_t n, uint32_t queue) override;

  UdpIngressStats stats() const;

 private:
  // TX contexts SendBurst accepts: queue 0 plus one per runtime worker, up
  // to kMaxWorkers (src/core/worker_set.h; psp_net sits below psp_core).
  static constexpr uint32_t kMaxTxQueues = 256 + 1;

  // One shard's receive-side counters. Writer: that shard's net worker.
  // Cache-line aligned, so shards never write to a shared line.
  struct alignas(64) RxCounters {
    SingleWriterCounter<uint64_t> datagrams;
    SingleWriterCounter<uint64_t> malformed;
    SingleWriterCounter<uint64_t> ring_full_drops;
    SingleWriterCounter<uint64_t> cpu_nanos;
    SingleWriterCounter<uint64_t> wall_nanos;
  };
  // One TX queue's counters. Writer: the one thread that sends on that
  // queue (runtime worker w sends on queue w + 1). Cache-line aligned, so
  // workers never write to a shared line.
  struct alignas(64) TxCounters {
    SingleWriterCounter<uint64_t> datagrams;
    SingleWriterCounter<uint64_t> batches;
    SingleWriterCounter<uint64_t> drops;
  };

  struct Shard {
    int fd = -1;
    std::unique_ptr<SpscRing<PacketRef>> ring;
    std::unique_ptr<PollController> poller;
    // unique_ptr keeps Shard movable for shards_.resize().
    std::unique_ptr<RxCounters> rx;
  };

  IngressConfig config_;
  size_t ring_depth_;
  MemoryPool* pool_;
  bool yield_on_idle_;
  std::vector<Shard> shards_;
  std::unique_ptr<TxCounters[]> tx_;  // kMaxTxQueues, indexed by queue
  uint16_t port_ = 0;
  uint32_t listen_addr_host_ = 0;  // resolved listen address, host order
  size_t next_shard_ = 0;          // PollBurst fan-in cursor (dispatcher only)
};

}  // namespace psp

#endif  // PSP_SRC_NET_UDP_INGRESS_H_
