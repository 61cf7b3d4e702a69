// The benchmark's UDP workloads: traffic mixes, the server configuration each
// one runs, and the committed per-workload parameters (fixed rates, capacity
// search bracket, latency limit). Shared by psp_e2e (client side) and the
// server binary, so both ends agree on types, spins and budgets by name.
//
// The rates and brackets are measured once and committed here; runs never
// recompute them, so a change to the server shows up as a moved metric and
// not as a moved operating point.
#ifndef PSP_BENCH_E2E_WORKLOADS_H_
#define PSP_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/scheduler.h"

namespace psp {
namespace e2e {

// One request type of a mix. The requested service time rides the payload
// (the synthetic spin handler reads it); budget_us rides the PSP header's
// deadline field (0 = no deadline).
struct RequestClass {
  uint32_t wire_id = 0;
  const char* name = "";
  double ratio = 0;
  Nanos spin = 0;
  uint32_t budget_us = 0;
};

// What "the limit holds" means for a capacity trial.
enum class LimitKind {
  kP99,     // overall p99 latency at or below p99_limit
  kOnTime,  // at least kOnTimeShare of attempted requests within budget
};

inline constexpr double kOnTimeShare = 0.99;

struct UdpWorkload {
  const char* name = "";
  PolicyMode policy = PolicyMode::kDarc;
  bool shed = false;  // deadline admission control on the server
  uint32_t workers = 2;  // application workers, pinned to cores 1..workers
  std::vector<RequestClass> classes;
  uint32_t flows = 1;  // client sockets (connected flows)
  LimitKind limit = LimitKind::kP99;
  Nanos p99_limit = 0;
  double low_rps = 0;
  double high_rps = 0;
  // Where the capacity search starts. The search verifies whichever edge it
  // ends on and widens the bracket when the capacity lies outside it.
  double bracket_lo_rps = 0;
  double bracket_hi_rps = 0;
};

// The three UDP workloads, in report order.
const std::vector<UdpWorkload>& UdpWorkloads();
// nullptr when `name` is not a UDP workload.
const UdpWorkload* FindUdpWorkload(const std::string& name);

// The sim-figures correctness digest: FNV-1a over every reference point's
// per-type p50/p99/p99.9 latency and completed count at seed 1. Any change to
// what the DES computes changes it.
inline constexpr uint64_t kSimDigest = 0x6d4979df7a728a16;

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_WORKLOADS_H_
