// Wall-clock pacing of the load generator's real sends. Preemption on a
// loaded or oversubscribed host stretches and bunches the gaps, so this is a
// tier-2 check run by `scripts/check.sh pacing`, not a ctest; ctest judges
// the same rate and shape on the deterministic schedule
// (runtime_loadgen_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tests/loadgen_capture.h"

namespace psp {
namespace {

TEST(LoadGenPacing, WallClockGapsMatchConfiguredRate) {
  constexpr double kRate = 200000;
  constexpr uint64_t kTotal = 3000;
  const CaptureResult r = RunAgainstStalledServer(/*seed=*/3, kRate, kTotal);
  ASSERT_EQ(r.report.sent, kTotal);
  ASSERT_EQ(r.report.send_drops, 0u);  // the ring held the whole schedule
  ASSERT_EQ(r.timestamps.size(), kTotal);

  std::vector<double> gaps;
  for (size_t i = 1; i < r.timestamps.size(); ++i) {
    gaps.push_back(static_cast<double>(r.timestamps[i] - r.timestamps[i - 1]));
  }
  const double expected = 1e9 / kRate;

  // Open loop never paces faster than configured on average (preemption can
  // only stretch the window, never compress it).
  double mean = 0;
  for (const double g : gaps) {
    mean += g;
  }
  mean /= static_cast<double>(gaps.size());
  EXPECT_GT(mean, expected * 0.6);

  // Distribution-shape assertions need wall-clock fidelity: on a loaded or
  // oversubscribed box the sender is preempted and catches up in bursts that
  // corrupt the gap distribution. Preemption is visible as an outsized gap
  // (a clean Poisson max over 3000 draws is ~ln(3000) ≈ 8 means), so judge
  // the shape only when no scheduler stall is present.
  const double max_gap = *std::max_element(gaps.begin(), gaps.end());
  if (max_gap > 50.0 * expected) {
    GTEST_LOG_(INFO) << "scheduler stall detected (max gap " << max_gap
                     << " ns); skipping pacing-shape assertions";
    return;
  }

  // The median gap tracks the exponential's median (mean * ln 2); unlike the
  // mean it is immune to a rare multi-millisecond scheduler hiccup.
  std::vector<double> sorted = gaps;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  EXPECT_NEAR(median, expected * std::log(2.0), expected * 0.35);

  // Exponential gaps, not a fixed-interval clock: the coefficient of
  // variation is ~1 (a uniform pacer would be ~0). Hiccups only raise it,
  // so only the lower bound is asserted.
  double var = 0;
  for (const double g : gaps) {
    var += (g - mean) * (g - mean);
  }
  var /= static_cast<double>(gaps.size());
  EXPECT_GT(std::sqrt(var) / mean, 0.5);
}

}  // namespace
}  // namespace psp
