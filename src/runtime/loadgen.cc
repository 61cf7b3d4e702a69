#include "src/runtime/loadgen.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "src/net/packet.h"

namespace psp {

LoadGenerator::LoadGenerator(Persephone* server,
                             std::vector<ClientRequestSpec> mix,
                             LoadGenConfig config)
    : server_(server), mix_(std::move(mix)), config_(config) {
  assert(!mix_.empty());
  double total = 0;
  for (const auto& m : mix_) {
    total += m.ratio;
  }
  double acc = 0;
  for (const auto& m : mix_) {
    acc += m.ratio / total;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;
}

LoadGenReport LoadGenerator::Run() {
  LoadGenReport report;
  Rng rng(config_.seed);
  BufferCache cache(&server_->pool());
  const TscClock& clock = TscClock::Global();

  for (const auto& m : mix_) {
    report.latency[m.wire_id];  // pre-create slots
  }

  const Nanos start = clock.Now();
  const uint64_t warmup_cutoff = static_cast<uint64_t>(
      config_.warmup_fraction * static_cast<double>(config_.total_requests));
  PoissonSchedule schedule(config_.rate_rps, ScheduleSeed(config_.seed),
                           start);
  uint64_t sent = 0;
  uint64_t received = 0;
  Nanos last_activity = start;

  const auto drain_one = [&]() -> bool {
    PacketRef pkt;
    if (!server_->nic().PollEgress(&pkt)) {
      return false;
    }
    const Nanos now = clock.Now();
    const auto parsed = ParseRequestPacket(pkt.data, pkt.length);
    if (parsed.has_value()) {
      const Nanos latency = now - parsed->psp.client_timestamp;
      // request_id doubles as the send sequence number for warmup filtering.
      if (parsed->psp.request_id >= warmup_cutoff) {
        report.latency[parsed->psp.request_type].Add(latency);
        report.overall.Add(latency);
      }
      ++received;
    }
    server_->pool().FreeGlobal(pkt.data);
    last_activity = now;
    return true;
  };

  while (sent < config_.total_requests) {
    const Nanos now = clock.Now();
    if (now >= schedule.next()) {
      // Pick a type by ratio.
      const double u = rng.NextDouble();
      const size_t slot = static_cast<size_t>(
          std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
          cumulative_.begin());
      const auto& spec = mix_[std::min(slot, mix_.size() - 1)];

      std::byte* buf = cache.Alloc();
      if (buf == nullptr) {
        // Pool exhausted: drain responses to recycle buffers.
        while (!drain_one()) {
          std::this_thread::yield();
        }
        continue;
      }
      std::byte payload_scratch[1024];
      const uint32_t payload_len =
          spec.build_payload
              ? spec.build_payload(payload_scratch, sizeof(payload_scratch),
                                   rng)
              : 0;
      RequestFrame frame;
      frame.flow = FlowTuple{0x0A000001u + static_cast<uint32_t>(rng.NextBounded(6)),
                             0x0A0000FF, static_cast<uint16_t>(rng.NextBounded(60000) + 1024),
                             6789};
      frame.request_type = spec.wire_id;
      frame.request_id = sent;
      frame.client_id = 1;
      frame.client_timestamp = clock.Now();
      frame.payload = payload_scratch;
      frame.payload_length = payload_len;
      const uint32_t len =
          BuildRequestPacket(frame, buf, server_->pool().buffer_size());
      assert(len > 0);
      if (!server_->nic().DeliverToQueue(0, PacketRef{buf, len})) {
        ++report.send_drops;
        cache.Free(buf);
      }
      ++sent;
      // Open loop: the next send time does not depend on responses.
      schedule.Advance();
      last_activity = now;
    } else if (!drain_one()) {
      std::this_thread::yield();
    }
  }

  // Drain outstanding responses until quiescent or timeout.
  while (received + report.send_drops < sent) {
    if (!drain_one()) {
      if (clock.Now() - last_activity > config_.drain_timeout) {
        break;
      }
      std::this_thread::yield();
    }
  }

  report.sent = sent;
  report.received = received;
  report.elapsed = clock.Now() - start;
  return report;
}

}  // namespace psp
