// Time utilities: nanosecond time points for both the discrete-event simulator
// and the threaded runtime, plus a calibrated TSC clock for cycle-accurate
// measurement on real hardware.
#ifndef PSP_SRC_COMMON_TIME_H_
#define PSP_SRC_COMMON_TIME_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace psp {

// Nanoseconds since an arbitrary epoch. Both engines (simulated and real time)
// express instants and durations in this unit so the core scheduler code is
// engine-agnostic.
using Nanos = int64_t;

inline constexpr Nanos kMicrosecond = 1'000;
inline constexpr Nanos kMillisecond = 1'000'000;
inline constexpr Nanos kSecond = 1'000'000'000;

constexpr Nanos FromMicros(double us) { return static_cast<Nanos>(us * 1e3); }
constexpr double ToMicros(Nanos ns) { return static_cast<double>(ns) / 1e3; }

// Reads the CPU timestamp counter. Falls back to steady_clock on non-x86.
inline uint64_t ReadTsc() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// A calibrated TSC clock. Calibration measures the TSC frequency once against
// steady_clock; afterwards Now() costs a single rdtsc plus a multiply.
class TscClock {
 public:
  // Calibrates over about 1 ms of wall time. Each end of the window is the
  // narrowest of a few (steady_clock, rdtsc, steady_clock) brackets, so the
  // error comes from the bracket width (tens of ns), not the window length;
  // see DESIGN.md for the measured error in ppm.
  TscClock();

  // Nanoseconds since this clock was constructed.
  Nanos Now() const {
    return CyclesToNanos(ReadTsc() - tsc_origin_);
  }

  // Estimated TSC frequency in cycles per second.
  double cycles_per_sec() const { return cycles_per_sec_; }

  Nanos CyclesToNanos(uint64_t cycles) const {
    return static_cast<Nanos>(static_cast<double>(cycles) * nanos_per_cycle_);
  }

  uint64_t NanosToCycles(Nanos ns) const {
    return static_cast<uint64_t>(static_cast<double>(ns) / nanos_per_cycle_);
  }

  // Busy-waits until Now() >= deadline (sub-microsecond precision).
  void SpinUntil(Nanos deadline) const {
    while (Now() < deadline) {
#if defined(__x86_64__) || defined(_M_X64)
      _mm_pause();
#endif
    }
  }

  // Process-wide shared instance (calibrated on first use).
  static const TscClock& Global();

 private:
  uint64_t tsc_origin_ = 0;
  double cycles_per_sec_ = 0;
  double nanos_per_cycle_ = 0;
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_TIME_H_
