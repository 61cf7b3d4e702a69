// Distribution and RNG statistical sanity tests.
#include "src/common/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace psp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoundedIsUniformish) {
  Rng rng(11);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(10)];
  }
  for (uint64_t v = 0; v < 10; ++v) {
    EXPECT_NEAR(counts[v], kDraws / 10, kDraws / 100) << "value " << v;
  }
}

TEST(FixedDistribution, AlwaysSame) {
  Rng rng(1);
  FixedDistribution d(12345);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.Sample(rng), 12345);
  }
  EXPECT_DOUBLE_EQ(d.MeanNanos(), 12345.0);
}

TEST(ExponentialDistribution, MeanConverges) {
  Rng rng(2);
  ExponentialDistribution d(5000.0);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const Nanos v = d.Sample(rng);
    EXPECT_GT(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kDraws, 5000.0, 60.0);
}

TEST(LognormalDistribution, MeanConverges) {
  Rng rng(3);
  LognormalDistribution d(10000.0, 0.5);
  double sum = 0;
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(d.Sample(rng));
  }
  EXPECT_NEAR(sum / kDraws, 10000.0, 200.0);
}

TEST(LognormalDistribution, RejectsNonPositiveMean) {
  EXPECT_THROW(LognormalDistribution(0, 1.0), std::invalid_argument);
}

// An n-modal mixture of fixed service times: {microseconds, ratio} per mode.
DiscreteMixture FixedModes(
    std::initializer_list<std::pair<double, double>> modes) {
  std::vector<DiscreteMixture::Component> components;
  for (const auto& [micros, ratio] : modes) {
    components.push_back(
        {ratio, std::make_shared<FixedDistribution>(FromMicros(micros))});
  }
  return DiscreteMixture(std::move(components));
}

TEST(DiscreteMixture, NormalisesRatios) {
  const DiscreteMixture mix = FixedModes({{1.0, 50.0}, {100.0, 50.0}});
  EXPECT_DOUBLE_EQ(mix.ratio(0), 0.5);
  EXPECT_DOUBLE_EQ(mix.ratio(1), 0.5);
  // Mean = 0.5×1µs + 0.5×100µs = 50.5 µs.
  EXPECT_NEAR(mix.MeanNanos(), 50500.0, 1.0);
}

TEST(DiscreteMixture, DrawFrequenciesMatchRatios) {
  Rng rng(5);
  const DiscreteMixture mix = FixedModes({{0.5, 99.5}, {500.0, 0.5}});
  int longs = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const MixtureDraw draw = mix.SampleDraw(rng);
    if (draw.mode == 1) {
      ++longs;
      EXPECT_EQ(draw.service_time, FromMicros(500.0));
    } else {
      EXPECT_EQ(draw.service_time, FromMicros(0.5));
    }
  }
  EXPECT_NEAR(static_cast<double>(longs) / kDraws, 0.005, 0.001);
}

TEST(DiscreteMixture, RejectsEmptyAndInvalid) {
  EXPECT_THROW(DiscreteMixture({}), std::invalid_argument);
  std::vector<DiscreteMixture::Component> zero = {
      {0.0, std::make_shared<FixedDistribution>(1)}};
  EXPECT_THROW(DiscreteMixture(std::move(zero)), std::invalid_argument);
}

TEST(PoissonProcess, ArrivalsStrictlyIncreaseAtTargetRate) {
  PoissonProcess p(1e6, 42);  // 1M rps
  Nanos prev = 0;
  Nanos last = 0;
  constexpr int kArrivals = 200000;
  for (int i = 0; i < kArrivals; ++i) {
    const Nanos t = p.NextArrival();
    EXPECT_GT(t, prev);
    prev = t;
    last = t;
  }
  // 200k arrivals at 1M rps ≈ 200 ms.
  EXPECT_NEAR(static_cast<double>(last), 200e6, 5e6);
}

TEST(PoissonProcess, GapsAreExponential) {
  PoissonProcess p(1e6, 43);
  // Coefficient of variation of exponential gaps is 1.
  double sum = 0;
  double sum_sq = 0;
  Nanos prev = 0;
  constexpr int kArrivals = 100000;
  for (int i = 0; i < kArrivals; ++i) {
    const Nanos t = p.NextArrival();
    const double gap = static_cast<double>(t - prev);
    prev = t;
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / kArrivals;
  const double var = sum_sq / kArrivals - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

}  // namespace
}  // namespace psp
