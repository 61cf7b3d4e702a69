#include "bench/e2e/workloads.h"

namespace psp {
namespace e2e {

const std::vector<UdpWorkload>& UdpWorkloads() {
  static const std::vector<UdpWorkload> kWorkloads = [] {
    std::vector<UdpWorkload> w;

    // DARC on the paper's bimodal shape, scaled to two workers: SHORT is 18%
    // of the demand and gets one reserved core, LONG runs on the other, so
    // the knee sits where the LONG core saturates.
    UdpWorkload bimodal;
    bimodal.name = "udp-bimodal";
    bimodal.policy = PolicyMode::kDarc;
    bimodal.classes = {{1, "SHORT", 0.9, 5 * kMicrosecond, 0},
                       {2, "LONG", 0.1, 200 * kMicrosecond, 0}};
    bimodal.flows = 1;
    bimodal.limit = LimitKind::kP99;
    bimodal.p99_limit = 2000 * kMicrosecond;
    bimodal.low_rps = 10000;
    bimodal.high_rps = 30000;
    bimodal.bracket_lo_rps = 35000;
    bimodal.bracket_hi_rps = 48000;
    w.push_back(bimodal);

    // Smallest requests, one type, four flows: per-packet cost bounds
    // capacity and DARC's reservation logic has nothing to separate. One
    // worker: each response costs its worker a sendmmsg with loopback
    // delivery, about 7 us in all, so two workers saturate near 270k rps,
    // above what the single-thread client sustains (about 230k). One worker
    // saturates near 145k, where the client still runs on time.
    UdpWorkload tiny;
    tiny.name = "udp-tiny";
    tiny.policy = PolicyMode::kCFcfs;
    tiny.workers = 1;
    tiny.classes = {{1, "TINY", 1.0, 1 * kMicrosecond, 0}};
    tiny.flows = 4;
    tiny.limit = LimitKind::kP99;
    tiny.p99_limit = 500 * kMicrosecond;
    tiny.low_rps = 20000;
    tiny.high_rps = 100000;  // about 0.7x its measured capacity
    tiny.bracket_lo_rps = 125000;
    tiny.bracket_hi_rps = 170000;
    w.push_back(tiny);

    // The bimodal mix through the deadline tier: EDF dispatch, wire budgets,
    // predictive admission shedding. A shed request is a failure. SHORT's
    // budget is 300 us: with 100 us, the median window's on-time share was
    // 0.979-0.995 at 5k rps, 0.978-0.987 at 10k and 0.927-0.934 at 30k
    // (three 3 s trials each), so even the low rate missed the 99% limit.
    UdpWorkload deadline;
    deadline.name = "udp-deadline";
    deadline.policy = PolicyMode::kEdf;
    deadline.shed = true;
    deadline.classes = {{1, "SHORT", 0.9, 5 * kMicrosecond, 300},
                        {2, "LONG", 0.1, 200 * kMicrosecond, 2000}};
    deadline.flows = 1;
    deadline.limit = LimitKind::kOnTime;
    deadline.low_rps = 10000;
    deadline.high_rps = 30000;
    deadline.bracket_lo_rps = 55000;
    deadline.bracket_hi_rps = 75400;
    w.push_back(deadline);
    return w;
  }();
  return kWorkloads;
}

const UdpWorkload* FindUdpWorkload(const std::string& name) {
  for (const UdpWorkload& w : UdpWorkloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace e2e
}  // namespace psp
