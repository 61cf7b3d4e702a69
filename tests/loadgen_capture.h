// Shared by the load-generator tests: runs a LoadGenerator against a
// Persephone whose threads never start, whose NIC RX ring is then a tap on
// exactly what the client sent.
#ifndef PSP_TESTS_LOADGEN_CAPTURE_H_
#define PSP_TESTS_LOADGEN_CAPTURE_H_

#include <vector>

#include "src/apps/synthetic.h"
#include "src/net/packet.h"
#include "src/runtime/loadgen.h"

namespace psp {

struct CaptureResult {
  LoadGenReport report;
  std::vector<TypeId> types;       // send order (the RX ring is FIFO)
  std::vector<Nanos> timestamps;   // client_timestamp per send
};

// Runs the load generator against a server whose threads never start, then
// drains the RX ring to recover exactly what was sent. The ring and pool are
// sized to hold the whole schedule, so the capture is complete and the run is
// single-threaded (no tap thread to fall behind under CI load).
inline CaptureResult RunAgainstStalledServer(uint64_t seed, double rate_rps,
                                      uint64_t total,
                                      size_t nic_queue_depth = 8192) {
  RuntimeConfig config;
  config.num_workers = 1;
  config.nic_queue_depth = nic_queue_depth;
  config.pool_buffers = nic_queue_depth + 1024;
  Persephone server(config);  // never Start()ed

  LoadGenConfig lg;
  lg.rate_rps = rate_rps;
  lg.total_requests = total;
  lg.seed = seed;
  lg.drain_timeout = 20 * kMillisecond;
  LoadGenerator gen(&server,
                    {MakeSpinSpec(1, "SHORT", 0.7, FromMicros(1)),
                     MakeSpinSpec(2, "LONG", 0.3, FromMicros(10))},
                    lg);

  CaptureResult result;
  result.report = gen.Run();
  PacketRef pkt;
  while (server.nic().PollRx(0, &pkt)) {
    const auto parsed = ParseRequestPacket(pkt.data, pkt.length);
    if (parsed.has_value()) {
      result.types.push_back(parsed->psp.request_type);
      result.timestamps.push_back(parsed->psp.client_timestamp);
    }
    server.pool().FreeGlobal(pkt.data);
  }
  return result;
}

}  // namespace psp

#endif  // PSP_TESTS_LOADGEN_CAPTURE_H_
