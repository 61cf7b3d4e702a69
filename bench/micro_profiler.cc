// Profiler-overhead bench: sampling at the default 99 Hz must not slow the
// thread it samples. One thread registers with CpuSampler and runs a fixed
// CPU-bound work loop in interleaved rounds: unarmed, armed at 99 Hz, unarmed
// again. Each round is timed on the thread's own CPU clock, which includes the
// SIGPROF handler's cost but not time spent descheduled, and each variant
// keeps its fastest round (min-of-rounds), which other tenants on a shared
// host can only slow, not speed up.
//
// The two unarmed streams are an A/A pair: how far their min-of-rounds
// disagree (the idle-round spread) is what this host can resolve. It is
// printed so that a reader can see the 5% gate is well above the noise.
//
// Exit codes: 0 ok, 1 gate breach (armed / unarmed time ratio above 1.05),
// 2 the armed rounds collected no samples (the profiler itself is broken).
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "src/profile/sampler.h"

namespace psp {
namespace {

constexpr int kHz = 99;
constexpr int kRounds = 21;
constexpr double kMaxRatio = 1.05;
// About 70 ms of CPU per round on a 2.1 GHz core: ~7 samples per armed round,
// ~140 over all rounds.
constexpr uint64_t kWorkIterations = uint64_t{1} << 25;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// A serial xorshift chain: pure ALU work with no memory traffic, so the only
// thing that can slow it between variants is the sampler.
volatile uint64_t g_sink;

double TimedWork() {
  const double start = ThreadCpuSeconds();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < kWorkIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink = x;
  return ThreadCpuSeconds() - start;
}

int Main() {
  CpuSampler sampler;
  sampler.RegisterCurrentThread("bench", nullptr, 0);

  TimedWork();  // warm-up: page faults, frequency ramp
  double idle_a = 1e18;
  double idle_b = 1e18;
  double armed = 1e18;
  uint64_t samples = 0;
  for (int round = 0; round < kRounds; ++round) {
    idle_a = std::min(idle_a, TimedWork());
    sampler.Start(kHz);
    armed = std::min(armed, TimedWork());
    sampler.Stop();
    samples += sampler.total_samples();
    idle_b = std::min(idle_b, TimedWork());
  }
  sampler.UnregisterCurrentThread();

  const double idle = std::min(idle_a, idle_b);
  const double spread_pct = std::fabs(idle_a - idle_b) / idle * 100.0;
  const double ratio = armed / idle;
  std::printf("# profiler overhead: %d rounds x %" PRIu64
              " iterations per variant, %d Hz CPU-time sampling\n",
              kRounds, kWorkIterations, kHz);
  std::printf("%-26s %8.2f ms  (idle-round spread %.2f%%)\n",
              "work loop (unarmed)", idle * 1e3, spread_pct);
  std::printf("%-26s %8.2f ms  (ratio %.4f)\n", "work loop (sampling)",
              armed * 1e3, ratio);
  std::printf("%-26s %8" PRIu64 "\n", "samples collected", samples);

  if (samples == 0) {
    std::printf("profile-check: FAIL (armed rounds collected 0 samples)\n");
    return 2;
  }
  const bool ok = ratio <= kMaxRatio;
  std::printf("profile-overhead-check: %s (ratio %.4f, budget %.2f)\n",
              ok ? "PASS" : "FAIL", ratio, kMaxRatio);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace psp

int main() { return psp::Main(); }
