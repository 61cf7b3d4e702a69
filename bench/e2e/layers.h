// The isolated layer harness: each request-path layer's public entry point,
// called in batches on frames generated from the workload's own mix, outside
// any server. Rounds interleave the layers so clock drift and neighbours'
// noise land on all of them alike; each layer reports the median over rounds
// of TSC nanoseconds per call and of thread CPU nanoseconds per call.
//
// Instruction counts would be clock-independent, but user-space
// perf_event_open needs a PMU (see the report's host block), so the harness
// records time only.
#ifndef PSP_BENCH_E2E_LAYERS_H_
#define PSP_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"
#include "src/common/time.h"

namespace psp {
namespace e2e {

struct LayerCost {
  std::string metric;  // per-layer metric name, e.g. "net.parse_ns"
  double tsc_ns = 0;   // median over rounds, per call
  // Median over rounds of thread CPU time per call. Layers measured in one
  // group (the scheduler's enqueue/dispatch/complete, SendBurst's two burst
  // sizes) share their group's figure, its CPU time over all its calls.
  double cpu_ns = 0;
};

// Runs rounds until `budget` is spent (at least a few rounds). Returns ""
// on success and fills *out, else the reason (socket setup failed).
std::string MeasureLayers(const UdpWorkload& workload, uint64_t seed,
                          Nanos budget, std::vector<LayerCost>* out);

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_LAYERS_H_
