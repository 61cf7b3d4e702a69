// The ingress/egress seam of the threaded runtime: where request frames come
// from and where response frames go. The dispatch pipeline (parse → classify
// → DARC → workers) is written against these two small interfaces, so the
// in-process ring substrate (SimulatedNic + LoadGenerator, the paper's
// simulated DPDK queues) and the kernel UDP socket frontend
// (src/net/udp_ingress.h, real datagrams from an external client) are
// interchangeable implementations.
//
// Contracts:
//   * PollBurst is single-consumer: exactly one thread (the dispatcher)
//     polls a given source.
//   * SendBurst may be called concurrently from every worker thread; `queue`
//     names the caller's TX context (worker w uses queue w+1, matching the
//     SimulatedNic queue map).
//   * SendBurst takes ownership of the frames it accepts (count returned);
//     the caller keeps — and must release — the rest. The UDP sink copies
//     into the kernel and frees the buffer itself; the NIC sink hands the
//     buffer to the egress ring for the in-process client to free.
//   * IdleHint() is the consumer saying "a full poll round found nothing":
//     the source may yield or briefly sleep (bounded by its poll policy)
//     before the next poll. It must be safe to call it every round.
#ifndef PSP_SRC_NET_INGRESS_H_
#define PSP_SRC_NET_INGRESS_H_

#include <cstddef>
#include <string>
#include <thread>

#include "src/net/nic.h"
#include "src/net/packet.h"
#include "src/net/poll_control.h"

namespace psp {

// Where the runtime's request frames come from.
enum class IngressMode {
  kRing,  // in-process: SimulatedNic RX queues fed by LoadGenerator
  kUdp,   // kernel UDP sockets: recvmmsg net workers, external clients
};

inline const char* IngressModeName(IngressMode mode) {
  return mode == IngressMode::kRing ? "ring" : "udp";
}

// The runtime's ingress frontend configuration (RuntimeConfig::ingress).
struct IngressConfig {
  // Ring mode runs Perséphone's own arrangement: net worker and dispatcher
  // share one thread ("Perséphone runs both its net worker and dispatcher on
  // the same hardware thread", §5.1). UDP mode runs dedicated net workers.
  IngressMode mode = IngressMode::kRing;

  // UDP mode: listen address (loopback by default — there is no auth layer).
  std::string listen_addr = "127.0.0.1";
  // UDP mode: -1 = unset (invalid — choose a port), 0 = bind an ephemeral
  // port (read it back via Persephone::udp_port()), else the fixed port.
  int listen_port = -1;
  // UDP mode: socket-polling net worker threads. Each owns one socket and
  // one forwarding ring into the dispatcher; >1 requires reuseport so the
  // kernel shards flows across the sockets.
  uint32_t num_net_workers = 1;
  // UDP mode: SO_REUSEPORT sharding — N sockets bound to the same
  // address:port, kernel-steered by flow hash (the socket world's RSS).
  bool reuseport = false;
  // UDP mode: SO_RCVBUF/SO_SNDBUF request per socket (loopback bursts
  // overflow the default budget long before the NIC would).
  int socket_buffer_bytes = 1 << 20;

  // UDP mode: net-worker pacing on empty polls. See src/net/poll_control.h.
  PollControlConfig poll;

  // Empty string = valid; otherwise a description of the misconfiguration.
  std::string Validate() const;
};

class IngressSource {
 public:
  virtual ~IngressSource() = default;

  // Fills out[0..max_n) with up to max_n frames; returns the count (0 when
  // nothing is pending). Frames come out in arrival order per producer.
  virtual size_t PollBurst(PacketRef* out, size_t max_n) = 0;

  // Consumer found no work this round (see header comment).
  virtual void IdleHint() {}

  // Implementation name, for logs and the conformance tests.
  virtual const char* Name() const = 0;
};

class EgressSink {
 public:
  virtual ~EgressSink() = default;

  // Transmits up to n response frames from TX context `queue`. Returns how
  // many frames the sink took ownership of (see header comment).
  virtual size_t SendBurst(const PacketRef* frames, size_t n,
                           uint32_t queue) = 0;

  virtual const char* Name() const = 0;
};

// Direct NIC RX-queue poll (the paper's own arrangement: net worker and
// dispatcher share one hardware thread, so the dispatcher polls RX itself).
// IdleHint yields, so the runtime stays live on machines with fewer cores
// than threads.
class NicIngressSource final : public IngressSource {
 public:
  NicIngressSource(SimulatedNic* nic, uint32_t queue)
      : nic_(nic), queue_(queue) {}

  size_t PollBurst(PacketRef* out, size_t max_n) override {
    size_t n = 0;
    while (n < max_n && nic_->PollRx(queue_, &out[n])) {
      ++n;
    }
    return n;
  }

  void IdleHint() override { std::this_thread::yield(); }

  const char* Name() const override { return "nic"; }

 private:
  SimulatedNic* nic_;
  uint32_t queue_;
};

// TX into the simulated NIC: frames land on the egress ring the in-process
// load generator drains (ownership passes to that consumer).
class NicEgressSink final : public EgressSink {
 public:
  explicit NicEgressSink(SimulatedNic* nic) : nic_(nic) {}

  size_t SendBurst(const PacketRef* frames, size_t n,
                   uint32_t queue) override {
    size_t sent = 0;
    while (sent < n && nic_->Transmit(queue, frames[sent])) {
      ++sent;
    }
    return sent;
  }

  const char* Name() const override { return "nic"; }

 private:
  SimulatedNic* nic_;
};

}  // namespace psp

#endif  // PSP_SRC_NET_INGRESS_H_
