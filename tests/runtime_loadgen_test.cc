// Load-generator unit tests against a deliberately stalled server: the
// un-started runtime's NIC RX ring is a tap on exactly what the client sent,
// which pins down the Poisson pacing, the open-loop (drop, don't block)
// contract, and deterministic seeding.
#include "src/runtime/loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tests/loadgen_capture.h"

namespace psp {
namespace {

TEST(LoadGen, PoissonPacingMatchesConfiguredRate) {
  // The rate and the exponential shape, judged on the send schedule itself:
  // a pure function of (rate, seed), so a loaded host cannot distort it.
  // The wall-clock pacing of the real sends is a tier-2 check
  // (runtime_loadgen_pacing_test, run by `scripts/check.sh pacing`).
  constexpr double kRate = 200000;
  constexpr uint64_t kTotal = 3000;
  constexpr uint64_t kSeed = 3;
  PoissonSchedule schedule(kRate, LoadGenerator::ScheduleSeed(kSeed), 0);
  std::vector<double> gaps;
  for (uint64_t i = 1; i < kTotal; ++i) {
    const Nanos before = schedule.next();
    schedule.Advance();
    gaps.push_back(static_cast<double>(schedule.next() - before));
  }
  const double expected = 1e9 / kRate;
  double mean = 0;
  for (const double g : gaps) {
    mean += g;
  }
  mean /= static_cast<double>(gaps.size());
  EXPECT_GT(mean, expected * 0.6);

  // The median gap tracks the exponential's median (mean * ln 2).
  std::vector<double> sorted = gaps;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  EXPECT_NEAR(median, expected * std::log(2.0), expected * 0.35);

  // Exponential gaps, not a fixed-interval clock: the coefficient of
  // variation is ~1 (a uniform pacer would be ~0).
  double var = 0;
  for (const double g : gaps) {
    var += (g - mean) * (g - mean);
  }
  var /= static_cast<double>(gaps.size());
  EXPECT_GT(std::sqrt(var) / mean, 0.5);

  // The generator follows that schedule open loop: every request is sent,
  // none before its scheduled time, so the run spans at least the schedule.
  const CaptureResult r = RunAgainstStalledServer(kSeed, kRate, kTotal);
  ASSERT_EQ(r.report.sent, kTotal);
  ASSERT_EQ(r.report.send_drops, 0u);  // the ring held the whole schedule
  ASSERT_EQ(r.timestamps.size(), kTotal);
  EXPECT_GE(r.report.elapsed, schedule.next());
}

TEST(LoadGen, OpenLoopDropsInsteadOfBlockingOnStalledConsumer) {
  // The 64-deep RX ring fills almost immediately and stays full. An
  // open-loop generator must finish the whole schedule anyway, counting
  // drops — a closed loop would stall forever waiting for responses.
  constexpr double kRate = 200000;
  constexpr uint64_t kTotal = 2000;
  const CaptureResult r = RunAgainstStalledServer(
      /*seed=*/5, kRate, kTotal, /*nic_queue_depth=*/64);
  EXPECT_EQ(r.report.sent, kTotal);
  EXPECT_GE(r.report.send_drops, kTotal - 64);
  EXPECT_EQ(r.report.received, 0u);
  // The send window is total/rate = 10 ms; the run must end shortly after
  // (send window + drain timeout), not hang on the stalled server.
  EXPECT_GE(r.report.elapsed, static_cast<Nanos>(1e9 * kTotal / kRate));
  EXPECT_LT(r.report.elapsed, 2 * kSecond);
}

TEST(LoadGen, SameSeedReplaysTheSameSchedule) {
  const CaptureResult a = RunAgainstStalledServer(/*seed=*/7, 300000, 2000);
  const CaptureResult b = RunAgainstStalledServer(/*seed=*/7, 300000, 2000);
  ASSERT_EQ(a.report.send_drops, 0u);
  ASSERT_EQ(b.report.send_drops, 0u);
  // The type sequence is a pure function of the seed.
  ASSERT_EQ(a.types.size(), b.types.size());
  EXPECT_EQ(a.types, b.types);

  // And it honors the configured 70/30 mix.
  uint64_t shorts = 0;
  for (const TypeId t : a.types) {
    shorts += (t == 1);
  }
  EXPECT_NEAR(static_cast<double>(shorts) / static_cast<double>(a.types.size()),
              0.7, 0.05);

  const CaptureResult c = RunAgainstStalledServer(/*seed=*/8, 300000, 2000);
  EXPECT_NE(a.types, c.types);
}

}  // namespace
}  // namespace psp
