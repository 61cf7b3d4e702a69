// TSC clock and time-unit tests.
#include "src/common/time.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace psp {
namespace {

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(FromMicros(1.0), 1000);
  EXPECT_EQ(FromMicros(0.5), 500);
  EXPECT_DOUBLE_EQ(ToMicros(2500), 2.5);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
}

TEST(TscClock, MonotonicNow) {
  const TscClock& clock = TscClock::Global();
  Nanos prev = clock.Now();
  for (int i = 0; i < 1000; ++i) {
    const Nanos now = clock.Now();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// A (steady_clock, TscClock) pair read inside the narrowest of a few
// steady_clock brackets, so a preemption between the reads is discarded.
struct ClockPair {
  Nanos wall = 0;
  Nanos tsc = 0;
};

ClockPair BracketedPair(const TscClock& clock) {
  const auto steady_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  ClockPair best;
  Nanos best_width = std::numeric_limits<Nanos>::max();
  for (int i = 0; i < 5; ++i) {
    const Nanos before = steady_ns();
    const Nanos tsc = clock.Now();
    const Nanos width = steady_ns() - before;
    if (width < best_width) {
      best_width = width;
      best = {before + width / 2, tsc};
    }
  }
  return best;
}

TEST(TscClock, TracksWallClockWithinTolerance) {
  const TscClock& clock = TscClock::Global();
  // Within 0.1% of steady_clock over >= 100 ms; the best of 3 attempts, so
  // one descheduled read cannot fail the test.
  double best_error = 1.0;
  for (int attempt = 0; attempt < 3 && best_error >= 1e-3; ++attempt) {
    const ClockPair start = BracketedPair(clock);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const ClockPair end = BracketedPair(clock);
    const double wall = static_cast<double>(end.wall - start.wall);
    const double tsc = static_cast<double>(end.tsc - start.tsc);
    ASSERT_GE(wall, 100.0 * kMillisecond);
    best_error = std::min(best_error, std::abs(tsc - wall) / wall);
  }
  EXPECT_LT(best_error, 1e-3);
}

TEST(TscClock, CycleConversionsRoundTrip) {
  const TscClock& clock = TscClock::Global();
  EXPECT_GT(clock.cycles_per_sec(), 1e8);  // any real CPU: >100 MHz
  const Nanos ns = 100000;
  const uint64_t cycles = clock.NanosToCycles(ns);
  EXPECT_NEAR(static_cast<double>(clock.CyclesToNanos(cycles)),
              static_cast<double>(ns), 10.0);
}

TEST(TscClock, SpinUntilReachesDeadline) {
  const TscClock& clock = TscClock::Global();
  const Nanos deadline = clock.Now() + 200000;  // 200 µs
  clock.SpinUntil(deadline);
  EXPECT_GE(clock.Now(), deadline);
  // And did not drastically overshoot (scheduler hiccups aside).
  EXPECT_LT(clock.Now(), deadline + 100 * kMillisecond);
}

}  // namespace
}  // namespace psp
