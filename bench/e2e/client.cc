#include "bench/e2e/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench/e2e/stats.h"
#include "src/common/rng.h"
#include "src/net/packet.h"

namespace psp {
namespace e2e {
namespace {

// Datagrams per sendmmsg/recvmmsg call.
constexpr size_t kBatch = 32;
// PspHeader plus the 8-byte requested service time the spin handler echoes.
constexpr size_t kDatagramSize = sizeof(PspHeader) + sizeof(Nanos);
// Probe ids live in their own space so a late probe answer can never be
// mistaken for a trial request.
constexpr uint64_t kProbeBit = 1ULL << 63;
// Headroom between generating the schedule and its first due instant.
constexpr Nanos kLead = 2 * kMillisecond;
// Percentile windows hold about kWindowRequests requests (p99 then has 20
// samples beyond it) and span at least kMinWindow.
constexpr double kWindowRequests = 2000;
constexpr Nanos kMinWindow = 100 * kMillisecond;

void FillDatagram(std::byte* out, const RequestClass& cls, uint64_t id,
                  uint32_t flow, Nanos now, Nanos spin, bool traced) {
  PspHeader psp{};
  psp.magic = PspHeader::kMagic;
  psp.request_type = cls.wire_id;
  psp.request_id = id;
  psp.client_id = flow;
  psp.payload_length = sizeof(Nanos);
  psp.client_timestamp = now;
  psp.trace_flags = traced ? PspHeader::kFlagTraceSampled : 0;
  psp.deadline_us = cls.budget_us;
  std::memcpy(out, &psp, sizeof(psp));
  std::memcpy(out + sizeof(psp), &spin, sizeof(spin));
}

}  // namespace

OpenLoopClient::~OpenLoopClient() {
  for (const int fd : fds_) {
    ::close(fd);
  }
}

std::string OpenLoopClient::Connect(uint16_t port) {
  for (uint32_t f = 0; f < workload_.flows; ++f) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      return std::string("socket: ") + std::strerror(errno);
    }
    fds_.push_back(fd);
    const int buf = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (port == 0) {
      // Self-echo: bind an ephemeral port and connect the socket to it.
      socklen_t len = sizeof(addr);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        return std::string("bind: ") + std::strerror(errno);
      }
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return std::string("connect: ") + std::strerror(errno);
    }
  }
  return "";
}

Nanos OpenLoopClient::Probe(Nanos timeout) {
  const TscClock& clock = TscClock::Global();
  const Nanos give_up = clock.Now() + timeout;
  Nanos next_send = 0;
  uint64_t probes = 0;
  std::byte out[kDatagramSize];
  std::byte in[kMaxPacketSize];
  while (clock.Now() < give_up) {
    const Nanos now = clock.Now();
    if (now >= next_send) {
      FillDatagram(out, workload_.classes.front(), kProbeBit | probes++, 0, now,
                   0, false);
      ::send(fds_.front(), out, sizeof(out), 0);
      next_send = now + kMillisecond;
    }
    const ssize_t n = ::recv(fds_.front(), in, sizeof(in), 0);
    if (n >= static_cast<ssize_t>(sizeof(PspHeader))) {
      PspHeader psp;
      std::memcpy(&psp, in, sizeof(psp));
      if (psp.magic == PspHeader::kMagic && (psp.request_id & kProbeBit) != 0) {
        return clock.Now();
      }
    }
  }
  return -1;
}

TrialResult OpenLoopClient::Run(const TrialSpec& spec) {
  const TscClock& clock = TscClock::Global();
  const std::vector<RequestClass>& classes = workload_.classes;
  const size_t flows = fds_.size();

  // The whole schedule exists before the first send: due offsets from the
  // trial start and a class per request.
  std::vector<Nanos> due;
  std::vector<uint8_t> cls;
  {
    Rng rng(spec.seed);
    std::vector<double> cumulative;
    double total = 0;
    for (const RequestClass& c : classes) {
      total += c.ratio;
      cumulative.push_back(total);
    }
    const double gap_mean = 1e9 / spec.rate_rps;
    double t = 0;
    while (true) {
      t += -gap_mean * std::log(1.0 - rng.NextDouble());
      if (t >= static_cast<double>(spec.duration)) {
        break;
      }
      due.push_back(static_cast<Nanos>(t));
      const double u = rng.NextDouble() * total;
      size_t c = 0;
      while (c + 1 < classes.size() && u >= cumulative[c]) {
        ++c;
      }
      cls.push_back(static_cast<uint8_t>(c));
    }
  }
  const size_t n = due.size();
  std::vector<Nanos> sent_at(n, 0);   // 0 = not sent, -1 = refused
  std::vector<Nanos> recv_at(n, 0);   // 0 = no valid response
  std::vector<ClientTraceRecord> traced;

  TrialResult result;
  result.rate_rps = spec.rate_rps;
  result.scheduled = n;

  std::vector<std::byte> out_bufs(flows * kBatch * kDatagramSize);
  std::vector<mmsghdr> out_msgs(flows * kBatch);
  std::vector<iovec> out_iovs(flows * kBatch);
  std::vector<uint64_t> out_ids(flows * kBatch);
  std::vector<size_t> out_count(flows);
  std::vector<std::byte> in_bufs(kBatch * kMaxPacketSize);
  mmsghdr in_msgs[kBatch];
  iovec in_iovs[kBatch];
  for (size_t i = 0; i < kBatch; ++i) {
    in_iovs[i] = {in_bufs.data() + i * kMaxPacketSize, kMaxPacketSize};
  }

  const Nanos start = clock.Now() + kLead;
  const Nanos end = n > 0 ? start + due.back() + spec.drain : start;
  size_t next = 0;
  uint64_t settled = 0;  // requests refused or validly answered
  // First send since the last response batch (-1: none yet). A working
  // server answers something at least once per longest service time, so a
  // long silence after a send means a core was taken away, not queueing.
  Nanos quiet_since = -1;

  // Sends everything due (at most kBatch requests), one sendmmsg per flow
  // that has any. Returns whether anything was due.
  const auto send_due = [&]() {
    const Nanos now = clock.Now();
    if (next >= n || start + due[next] > now) {
      return false;
    }
    std::fill(out_count.begin(), out_count.end(), 0);
    for (size_t batched = 0;
         next < n && start + due[next] <= now && batched < kBatch;
         ++batched, ++next) {
      const size_t f = next % flows;
      const size_t slot = f * kBatch + out_count[f]++;
      const RequestClass& c = classes[cls[next]];
      const bool flagged = spec.trace_every > 0 && next % spec.trace_every == 0;
      std::byte* buf = out_bufs.data() + slot * kDatagramSize;
      FillDatagram(buf, c, next, static_cast<uint32_t>(f), now, c.spin,
                   flagged);
      out_iovs[slot] = {buf, kDatagramSize};
      out_msgs[slot] = mmsghdr{};
      out_msgs[slot].msg_hdr.msg_iov = &out_iovs[slot];
      out_msgs[slot].msg_hdr.msg_iovlen = 1;
      out_ids[slot] = next;
      sent_at[next] = now;
    }
    if (quiet_since < 0) {
      quiet_since = now;
    }
    for (size_t f = 0; f < flows; ++f) {
      if (out_count[f] == 0) {
        continue;
      }
      const int r = ::sendmmsg(fds_[f], &out_msgs[f * kBatch],
                               static_cast<unsigned>(out_count[f]), 0);
      const size_t ok = r > 0 ? static_cast<size_t>(r) : 0;
      for (size_t j = ok; j < out_count[f]; ++j) {
        sent_at[out_ids[f * kBatch + j]] = -1;
        ++result.refused;
        ++settled;
      }
    }
    return true;
  };

  // Receives one batch from flow f and validates every echo. Returns whether
  // anything arrived.
  const auto receive = [&](size_t f) {
    for (size_t i = 0; i < kBatch; ++i) {
      in_msgs[i] = mmsghdr{};
      in_msgs[i].msg_hdr.msg_iov = &in_iovs[i];
      in_msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::recvmmsg(fds_[f], in_msgs, kBatch, MSG_DONTWAIT, nullptr);
    if (r <= 0) {
      return false;
    }
    const Nanos at = clock.Now();
    if (quiet_since >= 0) {
      result.max_response_gap =
          std::max(result.max_response_gap, at - quiet_since);
      quiet_since = -1;
    }
    for (int i = 0; i < r; ++i) {
      const std::byte* data = in_bufs.data() + i * kMaxPacketSize;
      if (in_msgs[i].msg_len < sizeof(PspHeader)) {
        ++result.mismatched;
        continue;
      }
      PspHeader psp;
      std::memcpy(&psp, data, sizeof(psp));
      if (psp.magic == PspHeader::kMagic && (psp.request_id & kProbeBit) != 0) {
        continue;  // a late probe answer
      }
      Nanos echoed_spin = -1;
      if (in_msgs[i].msg_len == kDatagramSize) {
        std::memcpy(&echoed_spin, data + sizeof(PspHeader),
                    sizeof(echoed_spin));
      }
      const uint64_t id = psp.request_id;
      if (psp.magic != PspHeader::kMagic || id >= n || recv_at[id] != 0 ||
          sent_at[id] <= 0 || psp.client_id != f ||
          psp.request_type != classes[cls[id]].wire_id ||
          psp.payload_length != sizeof(Nanos) ||
          echoed_spin != classes[cls[id]].spin) {
        ++result.mismatched;
        continue;
      }
      recv_at[id] = at;
      ++settled;
      if ((psp.trace_flags & PspHeader::kFlagTraceSampled) != 0) {
        ClientTraceRecord rec;
        rec.request_id = id;
        rec.flow = psp.client_id;
        rec.wire_type = psp.request_type;
        rec.due_ns = start + due[id];
        rec.send_ns = sent_at[id];
        rec.recv_ns = at;
        rec.server_rx_ns = psp.server_rx_timestamp;
        rec.server_tx_ns = psp.server_tx_timestamp;
        traced.push_back(rec);
      }
    }
    return true;
  };

  while (true) {
    bool progressed = send_due();
    // Sends that fall due while a batch is being validated go out before the
    // next flow is read, which bounds lateness by one batch.
    for (size_t f = 0; f < flows; ++f) {
      if (receive(f)) {
        progressed = true;
        send_due();
      }
    }
    if (next == n && (settled == n || clock.Now() > end)) {
      break;
    }
    // An idle round gives the core away: loopback delivery work the kernel
    // defers to ksoftirqd on this core then runs within microseconds
    // instead of preempting the busy loop for a whole timeslice later.
    if (!progressed) {
      std::this_thread::yield();
    }
  }

  // Statistics over the post-warm-up window, overall and per window of
  // scheduled send time.
  const Nanos measured = spec.duration - spec.warmup;
  const Nanos quarter = measured / 4;
  const Nanos window = std::max<Nanos>(
      kMinWindow,
      static_cast<Nanos>(kWindowRequests / spec.rate_rps * 1e9));
  const int64_t full_windows = std::max<int64_t>(1, measured / window);
  std::vector<std::vector<Nanos>> windows(static_cast<size_t>(full_windows));
  std::vector<uint64_t> window_within(windows.size(), 0);
  std::vector<Nanos> all;
  std::vector<Nanos> first_quarter;
  std::vector<Nanos> last_quarter;
  std::vector<Nanos> lateness;
  for (size_t i = 0; i < n; ++i) {
    if (recv_at[i] == 0 && sent_at[i] > 0) {
      ++result.lost;
    }
    if (due[i] < spec.warmup) {
      continue;
    }
    ++result.attempted;
    const RequestClass& c = classes[cls[i]];
    const Nanos latency =
        recv_at[i] > 0 ? recv_at[i] - (start + due[i]) : kInfiniteLatency;
    if (latency == kInfiniteLatency) {
      ++result.failed;
    }
    const bool within = workload_.limit == LimitKind::kP99
                            ? latency <= workload_.p99_limit
                            : latency <= static_cast<Nanos>(c.budget_us) *
                                             kMicrosecond;
    if (within) {
      ++result.within_limit;
    }
    const int64_t w = (due[i] - spec.warmup) / window;
    if (w < full_windows) {
      windows[static_cast<size_t>(w)].push_back(latency);
      window_within[static_cast<size_t>(w)] += within ? 1 : 0;
    }
    all.push_back(latency);
    if (due[i] < spec.warmup + quarter) {
      first_quarter.push_back(latency);
    } else if (due[i] >= spec.duration - quarter) {
      last_quarter.push_back(latency);
    }
    if (sent_at[i] > 0) {
      lateness.push_back(sent_at[i] - (start + due[i]));
    }
  }
  result.measured_s = static_cast<double>(measured) / 1e9;
  result.offered_rps =
      static_cast<double>(result.attempted) / result.measured_s;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].empty()) {
      continue;
    }
    result.window_p50.push_back(Median(windows[w]));
    result.window_p99.push_back(Quantile(windows[w], 0.99));
    result.window_on_time.push_back(static_cast<double>(window_within[w]) /
                                    static_cast<double>(windows[w].size()));
  }
  result.p50 = Median(all);
  result.p99 = Quantile(all, 0.99);
  result.p999 = Quantile(all, 0.999);
  result.lateness_p99 = Quantile(lateness, 0.99);
  result.first_quarter_p50 = Median(first_quarter);
  result.last_quarter_p50 = Median(last_quarter);
  result.backlog_ok = result.last_quarter_p50 != kInfiniteLatency &&
                      result.last_quarter_p50 / 2 <= result.first_quarter_p50;
  // The limit is judged on the median window, like the reported
  // percentiles: a core stolen for a few milliseconds spoils one window, a
  // rate beyond capacity spoils them all (and trips the backlog check).
  const bool limit =
      workload_.limit == LimitKind::kP99
          ? Median(result.window_p99) <= workload_.p99_limit
          : !result.window_on_time.empty() &&
                Median(result.window_on_time) >= kOnTimeShare;
  result.limit_ok = result.attempted > 0 && limit && result.backlog_ok;
  result.valid = result.lateness_p99 <= kMaxLatenessP99 &&
                 result.max_response_gap <= kMaxResponseGap;
  for (const ClientTraceRecord& rec : traced) {
    if (static_cast<Nanos>(rec.due_ns - start) >= spec.warmup) {
      result.samples.push_back(rec);
    }
  }
  return result;
}

}  // namespace e2e
}  // namespace psp
