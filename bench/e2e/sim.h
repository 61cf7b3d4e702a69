// The sim-figures workload: the DES on the configurations every paper figure
// is built from. One pass simulates each point once at a fixed size; a run
// repeats passes (each with its own seed) until its time budget is spent, so
// the work per pass is identical across commits and only its wall time moves.
//
// Points: High Bimodal, 14 workers, {c-FCFS, DARC, EDF} x load {0.5, 0.7,
// 0.9}; Extreme Bimodal DARC at 0.9; one rack of 8 DARC servers behind a
// power-of-two-choices dispatcher at 0.7. Every point simulates about
// kSimRequestsPerPoint requests.
#ifndef PSP_BENCH_E2E_SIM_H_
#define PSP_BENCH_E2E_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace psp {
namespace e2e {

inline constexpr uint64_t kSimRequestsPerPoint = 40000;

struct SimPointRun {
  std::string family;  // "cfcfs", "darc", "edf" or "fleet"
  double load = 0;
  Nanos construct_ns = 0;  // engine construction (the DES's set-up)
  Nanos run_ns = 0;        // Run() wall time
  uint64_t generated = 0;  // simulated requests
  uint64_t drops = 0;
  // Deadline-meeting completions per simulated second (single-server points).
  double sim_goodput_rps = 0;
  uint64_t events = 0;
  uint64_t cascades = 0;
  uint64_t backend_switches = 0;
  bool wheel_active = false;
};

// Runs passes of `requests_per_point`-sized points while another pass still
// fits in `budget` of wall time (always at least `min_passes`); pass p uses
// seed Rng::StreamSeed(seed, p). Returns one vector of points per pass.
std::vector<std::vector<SimPointRun>> RunSimFigures(
    uint64_t seed, Nanos budget, int min_passes, uint64_t requests_per_point);

// The digest alone: every point at seed 1 and a small fixed size, hashing
// each type's p50/p99/p99.9 latency and completed count.
uint64_t SimReferenceDigest();

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_SIM_H_
