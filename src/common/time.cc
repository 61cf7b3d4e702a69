#include "src/common/time.h"

#include <limits>

namespace psp {
namespace {

// Busy-wait between the two calibration reads. The reads' bracket width
// (tens of ns) bounds the error, so 1 ms keeps it to a few ppm (measured in
// DESIGN.md §5b).
constexpr Nanos kCalibrationWindow = kMillisecond;
// Bracketed reads per window end; the narrowest one is kept.
constexpr int kBracketTries = 5;

Nanos SteadyNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One (wall, tsc) sample: the TSC read together with the midpoint of the
// narrowest steady_clock bracket around it, so a preemption between the
// reads of one try cannot skew the pairing.
struct ClockSample {
  Nanos wall = 0;
  uint64_t tsc = 0;
};

ClockSample BracketedSample() {
  ClockSample best;
  Nanos best_width = std::numeric_limits<Nanos>::max();
  for (int i = 0; i < kBracketTries; ++i) {
    const Nanos before = SteadyNow();
    const uint64_t tsc = ReadTsc();
    const Nanos width = SteadyNow() - before;
    if (width < best_width) {
      best_width = width;
      best = {before + width / 2, tsc};
    }
  }
  return best;
}

}  // namespace

TscClock::TscClock() {
  const ClockSample start = BracketedSample();
  while (SteadyNow() < start.wall + kCalibrationWindow) {
    // Busy-wait: sleeping would let the governor change frequency mid-window.
  }
  const ClockSample end = BracketedSample();

  const double elapsed_ns = static_cast<double>(end.wall - start.wall);
  const double elapsed_cycles = static_cast<double>(end.tsc - start.tsc);
  cycles_per_sec_ = elapsed_cycles / elapsed_ns * 1e9;
  nanos_per_cycle_ = elapsed_ns / elapsed_cycles;
  tsc_origin_ = ReadTsc();
}

const TscClock& TscClock::Global() {
  static const TscClock clock;
  return clock;
}

}  // namespace psp
