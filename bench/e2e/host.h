// The report's host block and the benchmark's core map. Every run pins its
// threads; a host that cannot give it four cores publishes no numbers.
//
// Core map (the paper's §5.1 arrangement, scaled to four cores):
//   core 0     server dispatcher + net worker (shared, as in Perséphone)
//   cores 1-2  server application workers
//   core 3     the open-loop client
//   core 1     the DES (sim-figures; no server runs alongside it)
#ifndef PSP_BENCH_E2E_HOST_H_
#define PSP_BENCH_E2E_HOST_H_

#include <string>

namespace psp {
namespace e2e {

inline constexpr int kMinCores = 4;
inline constexpr int kClientCore = 3;
inline constexpr int kSimCore = 1;

struct HostInfo {
  int cores = 0;
  std::string cpu_model;
  std::string governor;          // "unavailable" when cpufreq is not exposed
  std::string perf_event_paranoid;
  std::string pmu;               // "available" or why perf_event_open failed
};

HostInfo ProbeHost();

// Pins the calling thread to `core` and reads the mask back; false when the
// kernel refused or the thread may run anywhere else.
bool PinCurrentThreadTo(int core);

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_HOST_H_
