// The benchmark's open-loop client: one thread, at most four connected UDP
// flows, batched sendmmsg/recvmmsg. A trial's Poisson schedule is generated
// from its seed before the first send, and every latency is timed from the
// request's *scheduled* instant, so a stalled sender is charged to the
// requests it delayed instead of silently lowering the offered load.
//
// A request fails when it is refused by the kernel, never answered within
// the drain window (lost or shed by the server), or answered with an echo
// that does not match what was sent (id, type, flow or payload). Failures
// count as infinite latency in every percentile.
#ifndef PSP_BENCH_E2E_CLIENT_H_
#define PSP_BENCH_E2E_CLIENT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"
#include "src/common/time.h"
#include "src/introspect/tracejoin.h"

namespace psp {
namespace e2e {

// A trial is disturbed, and invalid, when the host took a core away from it:
// the client's lateness p99 exceeds kMaxLatenessP99 (it measured itself), or
// a sent request saw no response of any kind for kMaxResponseGap (a serving
// Perséphone emits at least one response per longest service time, 200 us
// in every workload, so a silence five times that long is a stalled core).
inline constexpr Nanos kMaxLatenessP99 = 20 * kMicrosecond;
inline constexpr Nanos kMaxResponseGap = 1 * kMillisecond;
inline constexpr Nanos kInfiniteLatency = std::numeric_limits<Nanos>::max();

struct TrialSpec {
  double rate_rps = 0;
  Nanos duration = 0;  // sending window
  Nanos warmup = 0;    // leading part of the window left out of statistics
  uint64_t seed = 0;   // schedule seed
  // Every Nth request carries the PSP trace flag (0 = none), forcing a server
  // lifecycle record joinable with the client's own sample.
  uint32_t trace_every = 0;
  // How long after its scheduled instant a response may still arrive before
  // the request counts as lost.
  Nanos drain = 200 * kMillisecond;
};

struct TrialResult {
  double rate_rps = 0;
  double measured_s = 0;     // length of the post-warm-up window
  // The rate the Poisson schedule realized in that window (attempted /
  // measured_s); it differs from rate_rps by sampling noise.
  double offered_rps = 0;
  uint64_t attempted = 0;    // post-warm-up requests scheduled
  uint64_t failed = 0;       // ... of which refused, lost or mismatched
  uint64_t within_limit = 0; // ... answered within the workload's limit
  uint64_t scheduled = 0;    // whole trial, warm-up included
  uint64_t refused = 0;      // whole trial, by kind
  uint64_t lost = 0;         // sent, never answered (lost or shed)
  uint64_t mismatched = 0;
  // Post-warm-up latency percentiles (ns; kInfiniteLatency when the rank
  // lands on a failed request).
  Nanos p50 = 0;
  Nanos p99 = 0;
  Nanos p999 = 0;
  Nanos lateness_p99 = 0;
  // p50 of the first and last quarter of the post-warm-up window.
  Nanos first_quarter_p50 = 0;
  Nanos last_quarter_p50 = 0;
  // The same, per consecutive window of scheduled send time (each at least
  // 100 ms and about 2000 requests), plus each window's share of requests
  // within the workload's limit. The host this benchmark was built on takes
  // a core away for a few milliseconds several times a second; that spoils
  // one window, so medians over windows describe the server, not the host.
  std::vector<Nanos> window_p50;
  std::vector<Nanos> window_p99;
  std::vector<double> window_on_time;
  bool backlog_ok = false;  // last quarter p50 <= 2x first quarter p50
  // The workload's limit holds in the median window, without backlog.
  bool limit_ok = false;
  Nanos max_response_gap = 0;  // longest silence after a send (see above)
  bool valid = false;          // not disturbed (see kMaxResponseGap)
  std::vector<ClientTraceRecord> samples;  // traced requests that returned
};

class OpenLoopClient {
 public:
  explicit OpenLoopClient(const UdpWorkload& workload) : workload_(workload) {}
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // Connects workload.flows sockets to 127.0.0.1:port. Port 0 connects each
  // socket to itself instead, so every request comes straight back: a trial
  // against that echo measures the client's own ceiling.
  std::string Connect(uint16_t port);

  // Sends a probe every millisecond until one is answered; returns the
  // receive instant (TscClock), or -1 after `timeout`.
  Nanos Probe(Nanos timeout);

  TrialResult Run(const TrialSpec& spec);

 private:
  const UdpWorkload& workload_;
  std::vector<int> fds_;
};

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_CLIENT_H_
