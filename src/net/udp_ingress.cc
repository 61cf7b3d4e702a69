#include "src/net/udp_ingress.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/time.h"

namespace psp {
namespace {

// Datagrams per recvmmsg/sendmmsg round; matches the runtime's ingress burst.
constexpr size_t kBatch = 16;

Nanos ThreadClockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

UdpIngress::UdpIngress(const IngressConfig& config, size_t ring_depth,
                       MemoryPool* pool, bool yield_on_idle)
    : config_(config),
      ring_depth_(ring_depth),
      pool_(pool),
      yield_on_idle_(yield_on_idle) {
  shards_.resize(config_.num_net_workers);
  for (auto& shard : shards_) {
    shard.ring = std::make_unique<SpscRing<PacketRef>>(ring_depth_);
    shard.poller = std::make_unique<PollController>(config_.poll);
    shard.rx = std::make_unique<RxCounters>();
  }
  tx_ = std::make_unique<TxCounters[]>(kMaxTxQueues);
}

UdpIngress::~UdpIngress() { Close(); }

std::string UdpIngress::Open() {
  in_addr addr{};
  if (inet_pton(AF_INET, config_.listen_addr.c_str(), &addr) != 1) {
    return "ingress: cannot parse listen_addr '" + config_.listen_addr + "'";
  }
  listen_addr_host_ = NetToHost32(addr.s_addr);

  uint16_t bound_port = static_cast<uint16_t>(config_.listen_port);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      Close();
      return Errno("ingress: socket");
    }
    shards_[i].fd = fd;
    if (config_.reuseport) {
      const int one = 1;
      if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
        Close();
        return Errno("ingress: SO_REUSEPORT");
      }
    }
    // Best-effort buffer sizing: the kernel clamps to its own limits, and a
    // smaller-than-requested buffer is a throughput matter, not an error.
    const int buf = config_.socket_buffer_bytes;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr = addr;
    sin.sin_port = htons(bound_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      Close();
      return Errno("ingress: bind");
    }
    if (i == 0 && bound_port == 0) {
      // Ephemeral bind: read the port back so the remaining reuseport shards
      // (and the caller) target the same one.
      socklen_t len = sizeof(sin);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
        Close();
        return Errno("ingress: getsockname");
      }
      bound_port = ntohs(sin.sin_port);
    }
  }
  port_ = bound_port;
  return "";
}

void UdpIngress::Close() {
  for (auto& shard : shards_) {
    if (shard.fd >= 0) {
      ::close(shard.fd);
      shard.fd = -1;
    }
  }
  port_ = 0;
}

void UdpIngress::RunNetWorker(uint32_t shard_index,
                              const std::atomic<bool>& stop) {
  Shard& shard = shards_[shard_index];
  PollController& poller = *shard.poller;
  RxCounters& rx = *shard.rx;
  BufferCache cache(pool_);

  // Datagram capacity per buffer: the frame must also hold the synthesized
  // headers and stay inside a standard frame.
  const size_t cap =
      std::min(pool_->buffer_size(), kMaxPacketSize) - kRequestOffset;

  const Nanos wall_start = ThreadClockNanos(CLOCK_MONOTONIC);
  const Nanos cpu_start = ThreadClockNanos(CLOCK_THREAD_CPUTIME_ID);

  std::vector<std::byte*> bufs;  // receive slots for the next round
  bufs.reserve(kBatch);

  while (!stop.load(std::memory_order_relaxed)) {
    while (bufs.size() < kBatch) {
      std::byte* buf = cache.Alloc();
      if (buf == nullptr) {
        break;  // pool exhausted: poll with what we have
      }
      bufs.push_back(buf);
    }
    if (bufs.empty()) {
      // Every buffer is in flight; wait for the pipeline to recycle some.
      poller.OnIdle();
      continue;
    }

    sockaddr_in addrs[kBatch];
    int received = 0;
#if defined(__linux__)
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    std::memset(msgs, 0, sizeof(mmsghdr) * bufs.size());
    for (size_t i = 0; i < bufs.size(); ++i) {
      iovs[i] = {bufs[i] + kRequestOffset, cap};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
    }
    received = ::recvmmsg(shard.fd, msgs, static_cast<unsigned>(bufs.size()),
                          0, nullptr);
#else
    // Portable fallback: one datagram per round.
    socklen_t addr_len = sizeof(addrs[0]);
    const ssize_t r =
        ::recvfrom(shard.fd, bufs[0] + kRequestOffset, cap, 0,
                   reinterpret_cast<sockaddr*>(&addrs[0]), &addr_len);
    received = r < 0 ? -1 : 1;
    size_t fallback_len = r < 0 ? 0 : static_cast<size_t>(r);
#endif

    if (received <= 0) {
      poller.OnIdle();
      continue;
    }
    poller.OnWork();

    size_t kept = 0;  // slots in bufs[] still free after this round
    for (int i = 0; i < received; ++i) {
      std::byte* buf = bufs[i];
#if defined(__linux__)
      const size_t len = msgs[i].msg_len;
      const bool truncated = (msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
#else
      const size_t len = fallback_len;
      const bool truncated = false;
#endif
      // The net worker's validation mirrors the paper's layer-2 forwarder:
      // cheap structural checks only; full parsing stays with the dispatcher.
      uint32_t magic = 0;
      if (len >= sizeof(PspHeader)) {
        std::memcpy(&magic, buf + kRequestOffset, sizeof(magic));
      }
      if (truncated || len < sizeof(PspHeader) || magic != PspHeader::kMagic) {
        rx.malformed.Add(1);
        bufs[kept++] = buf;  // reuse the slot next round
        continue;
      }

      FlowTuple flow;
      flow.src_addr = NetToHost32(addrs[i].sin_addr.s_addr);
      flow.src_port = ntohs(addrs[i].sin_port);
      flow.dst_addr = listen_addr_host_;
      flow.dst_port = port_;
      const uint32_t frame_len = WrapDatagramFrame(
          buf, static_cast<uint32_t>(len), flow,
          static_cast<uint16_t>(shard_index));
      if (frame_len == 0) {
        rx.malformed.Add(1);
        bufs[kept++] = buf;
        continue;
      }

      PacketRef pkt{buf, frame_len, TscClock::Global().Now(), 0};
      if (shard.ring->TryPush(pkt)) {
        rx.datagrams.Add(1);
      } else {
        rx.ring_full_drops.Add(1);
        bufs[kept++] = buf;
      }
    }
    // Untouched slots (beyond `received`) stay available too.
    for (size_t i = static_cast<size_t>(received); i < bufs.size(); ++i) {
      bufs[kept++] = bufs[i];
    }
    bufs.resize(kept);
  }

  for (std::byte* buf : bufs) {
    cache.Free(buf);
  }
  rx.cpu_nanos.Add(static_cast<uint64_t>(
      ThreadClockNanos(CLOCK_THREAD_CPUTIME_ID) - cpu_start));
  rx.wall_nanos.Add(
      static_cast<uint64_t>(ThreadClockNanos(CLOCK_MONOTONIC) - wall_start));
}

size_t UdpIngress::PollBurst(PacketRef* out, size_t max_n) {
  size_t total = 0;
  const size_t n = shards_.size();
  for (size_t i = 0; i < n && total < max_n; ++i) {
    Shard& shard = shards_[(next_shard_ + i) % n];
    total += shard.ring->TryPopBurst(out + total, max_n - total);
  }
  next_shard_ = (next_shard_ + 1) % n;
  return total;
}

void UdpIngress::IdleHint() {
  if (yield_on_idle_) {
    std::this_thread::yield();
  }
}

size_t UdpIngress::SendBurst(const PacketRef* frames, size_t n,
                             uint32_t queue) {
  // The shard tag inside each frame names the TX socket; `queue` names the
  // calling thread's counters.
  assert(queue < kMaxTxQueues);
  TxCounters& tx = tx_[std::min(queue, kMaxTxQueues - 1)];
  size_t i = 0;
  while (i < n) {
    // Batch a run of frames bound for the same shard socket into one
    // sendmmsg: one syscall per run instead of one per response, the TX
    // mirror of the recvmmsg ingress rounds.
    const size_t shard_index = FrameIdent(frames[i].data) % shards_.size();
    const int fd = shards_[shard_index].fd;
    size_t run = 1;
    while (i + run < n && run < kBatch &&
           FrameIdent(frames[i + run].data) % shards_.size() == shard_index) {
      ++run;
    }

    // FormatResponseInPlace already swapped the endpoints: each frame's
    // destination (network byte order throughout) is the original client.
    sockaddr_in dsts[kBatch];
    for (size_t j = 0; j < run; ++j) {
      const PacketRef& pkt = frames[i + j];
      const auto* ip = reinterpret_cast<const Ipv4Header*>(
          pkt.data + sizeof(EthernetHeader));
      const auto* udp = reinterpret_cast<const UdpHeader*>(
          pkt.data + sizeof(EthernetHeader) + sizeof(Ipv4Header));
      dsts[j] = sockaddr_in{};
      dsts[j].sin_family = AF_INET;
      dsts[j].sin_addr.s_addr = ip->dst_addr;
      dsts[j].sin_port = udp->dst_port;
    }

    size_t sent_ok = 0;
#if defined(__linux__)
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    std::memset(msgs, 0, sizeof(mmsghdr) * run);
    for (size_t j = 0; j < run; ++j) {
      const PacketRef& pkt = frames[i + j];
      iovs[j] = {pkt.data + kRequestOffset, pkt.length - kHeadersSize};
      msgs[j].msg_hdr.msg_iov = &iovs[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
      msgs[j].msg_hdr.msg_name = &dsts[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(dsts[j]);
    }
    const int sent = ::sendmmsg(fd, msgs, static_cast<unsigned>(run), 0);
    sent_ok = sent > 0 ? static_cast<size_t>(sent) : 0;
#else
    // Portable fallback: per-frame sendto, still accounted as one batch.
    for (size_t j = 0; j < run; ++j) {
      const PacketRef& pkt = frames[i + j];
      const ssize_t sent = ::sendto(
          fd, pkt.data + kRequestOffset, pkt.length - kHeadersSize, 0,
          reinterpret_cast<const sockaddr*>(&dsts[j]), sizeof(dsts[j]));
      if (sent >= 0) {
        ++sent_ok;
      }
    }
#endif
    tx.batches.Add(1);
    tx.datagrams.Add(sent_ok);
    // A kernel-refused datagram is counted in tx_drops, not retried; either
    // way this sink owns every frame handed to it.
    tx.drops.Add(run - sent_ok);
    for (size_t j = 0; j < run; ++j) {
      pool_->FreeGlobal(frames[i + j].data);
    }
    i += run;
  }
  return n;
}

UdpIngressStats UdpIngress::stats() const {
  UdpIngressStats s;
  s.rx_per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const RxCounters& rx = *shard.rx;
    s.rx_datagrams += rx.datagrams.Load();
    s.rx_malformed += rx.malformed.Load();
    s.ring_full_drops += rx.ring_full_drops.Load();
    s.net_cpu_nanos += rx.cpu_nanos.Load();
    s.net_wall_nanos += rx.wall_nanos.Load();
    s.rx_per_shard.push_back(rx.datagrams.Load());
    s.sleeps += shard.poller->sleeps();
    s.slept_nanos += static_cast<uint64_t>(shard.poller->slept_nanos());
  }
  for (uint32_t q = 0; q < kMaxTxQueues; ++q) {
    s.tx_datagrams += tx_[q].datagrams.Load();
    s.tx_batches += tx_[q].batches.Load();
    s.tx_drops += tx_[q].drops.Load();
  }
  return s;
}

}  // namespace psp
