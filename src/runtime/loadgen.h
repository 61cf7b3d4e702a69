// In-process open-loop load generator: plays the role of the paper's client
// machines (§5.1) against the threaded runtime. Generates Poisson arrivals of
// typed requests, timestamps them in the request header, drains responses
// from the NIC egress, and reports client-observed latency per type.
#ifndef PSP_SRC_RUNTIME_LOADGEN_H_
#define PSP_SRC_RUNTIME_LOADGEN_H_

#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/runtime/persephone.h"

namespace psp {

// One request type in the client mix. build_payload fills the application
// payload (after the PSP header) and returns its length.
struct ClientRequestSpec {
  TypeId wire_id = 0;
  std::string name;
  double ratio = 0;
  std::function<uint32_t(std::byte* payload, uint32_t capacity, Rng& rng)>
      build_payload;
};

struct LoadGenConfig {
  double rate_rps = 20000;
  uint64_t total_requests = 10000;
  uint64_t seed = 1;
  // Give up waiting for outstanding responses this long after the last send
  // (covers flow-control drops).
  Nanos drain_timeout = 500 * kMillisecond;
  // Discard this fraction of earliest sends from the report.
  double warmup_fraction = 0.1;
};

struct LoadGenReport {
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t send_drops = 0;  // NIC RX queue full at delivery
  Nanos elapsed = 0;
  std::map<TypeId, Histogram> latency;  // client-observed, per type
  Histogram overall;

  double AchievedRps() const {
    return elapsed > 0
               ? static_cast<double>(sent) * 1e9 / static_cast<double>(elapsed)
               : 0;
  }
};

// The open-loop send schedule: Poisson arrivals at `rate_rps`, i.e.
// exponential gaps (plus 1 ns, so no two sends coincide) from a stream of
// its own. The schedule is therefore a pure function of (rate, seed),
// whatever the type picks and payload builders draw from theirs.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_rps, uint64_t seed, Nanos start)
      : rng_(seed), gap_mean_(1e9 / rate_rps), next_(start) {}

  // The current scheduled send time.
  Nanos next() const { return next_; }

  // Moves to the following send time.
  void Advance() {
    double u = rng_.NextDouble();
    if (u <= 0) {
      u = 1e-18;
    }
    next_ += static_cast<Nanos>(-gap_mean_ * std::log(1.0 - u)) + 1;
  }

 private:
  Rng rng_;
  double gap_mean_;
  Nanos next_;
};

class LoadGenerator {
 public:
  LoadGenerator(Persephone* server, std::vector<ClientRequestSpec> mix,
                LoadGenConfig config);

  // Runs in the calling thread until all requests are sent and responses
  // drained (or the drain timeout expires).
  LoadGenReport Run();

  // Seed of the send schedule's stream (PoissonSchedule) for `seed`.
  static uint64_t ScheduleSeed(uint64_t seed) {
    return Rng::StreamSeed(seed, 1);
  }

 private:
  Persephone* server_;
  std::vector<ClientRequestSpec> mix_;
  std::vector<double> cumulative_;
  LoadGenConfig config_;
};

}  // namespace psp

#endif  // PSP_SRC_RUNTIME_LOADGEN_H_
