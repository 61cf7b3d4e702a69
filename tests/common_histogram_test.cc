// Histogram correctness: exactness below the sub-bucket threshold, bounded
// relative error above it, percentile semantics against exact sorted samples.
#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"

namespace psp {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(99.9), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Percentile(0), 42);
  EXPECT_EQ(h.Percentile(50), 42);
  EXPECT_EQ(h.Percentile(100), 42);
  EXPECT_EQ(h.Min(), 42);
  EXPECT_EQ(h.Max(), 42);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 2000; ++v) {
    h.Add(v);
  }
  // Values below 2048 land in exact unit buckets. Nearest-rank p50 of
  // {0..1999} is the 1000th smallest value, i.e. 999.
  EXPECT_EQ(h.Percentile(50), 999);
  EXPECT_EQ(h.Percentile(100), 1999);
  EXPECT_EQ(h.Min(), 0);
}

TEST(Histogram, LargeValuesWithinRelativeError) {
  Histogram h;
  const int64_t value = 123456789;
  h.Add(value);
  const int64_t p = h.Percentile(100);
  EXPECT_LE(std::abs(p - value), value / 1000);  // <0.1% error
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Percentile(100), 0);
}

TEST(Histogram, MeanAndMax) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_EQ(h.Max(), 30);
  EXPECT_EQ(h.Min(), 10);
}

TEST(Histogram, MergeCombinesDistributions) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Add(100);
    b.Add(10000);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200u);
  EXPECT_EQ(a.Percentile(25), 100);
  EXPECT_NEAR(static_cast<double>(a.Percentile(99)), 10000, 15);
  EXPECT_EQ(a.Min(), 100);
}

TEST(Histogram, MergeEmptySourceIsIdentity) {
  Histogram a;
  a.Add(7);
  a.Add(5000);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 7);
  EXPECT_NEAR(static_cast<double>(a.Max()), 5000, 5);
  EXPECT_DOUBLE_EQ(a.Mean(), (7.0 + 5000.0) / 2.0);
}

TEST(Histogram, MergeIntoEmptyCopiesSource) {
  Histogram a;
  Histogram b;
  b.Add(10);
  b.Add(300000);  // forces b's bucket array past a's initial size
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 10);
  EXPECT_NEAR(static_cast<double>(a.Percentile(100)), 300000, 300);
}

TEST(Histogram, SelfMergeDoublesCounts) {
  // Fleet aggregation merges histograms generically; merging a histogram
  // into itself must not corrupt it (no resize/iterator hazard).
  Histogram h;
  for (int i = 0; i < 50; ++i) {
    h.Add(100);
    h.Add(1'000'000);
  }
  const int64_t p50_before = h.Percentile(50);
  h.Merge(h);
  EXPECT_EQ(h.Count(), 200u);
  EXPECT_EQ(h.Percentile(50), p50_before);
  EXPECT_EQ(h.Min(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), (100.0 + 1'000'000.0) / 2.0);
}

TEST(Histogram, MergeMismatchedPopulations) {
  // Merging a tiny histogram into a large one (and vice versa) keeps counts,
  // extremes and percentiles consistent — the per-server populations a fleet
  // rollup merges are rarely the same size.
  Histogram large;
  for (int i = 0; i < 10000; ++i) {
    large.Add(1000);
  }
  Histogram small;
  small.Add(50'000'000);
  large.Merge(small);
  EXPECT_EQ(large.Count(), 10001u);
  EXPECT_EQ(large.Min(), 1000);
  EXPECT_NEAR(static_cast<double>(large.Max()), 50'000'000, 50'000);
  // One sample in ten thousand: the tail percentile must surface it, the
  // median must not move.
  EXPECT_EQ(large.Percentile(50), 1000);
  EXPECT_NEAR(static_cast<double>(large.Percentile(100)), 50'000'000, 50'000);

  Histogram other;
  other.Add(50'000'000);
  Histogram ten;
  for (int i = 0; i < 10; ++i) {
    ten.Add(1000);
  }
  other.Merge(ten);
  EXPECT_EQ(other.Count(), 11u);
  EXPECT_EQ(other.Percentile(50), 1000);
}

class HistogramAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramAccuracyTest, MatchesExactPercentilesWithinError) {
  Rng rng(GetParam());
  Histogram h;
  std::vector<int64_t> exact;
  // Heavy-tailed-ish sample mix: mostly microseconds, occasional milliseconds.
  for (int i = 0; i < 20000; ++i) {
    int64_t v;
    if (rng.NextBounded(100) == 0) {
      v = static_cast<int64_t>(rng.NextBounded(5'000'000)) + 500'000;
    } else {
      v = static_cast<int64_t>(rng.NextBounded(20'000)) + 500;
    }
    h.Add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    // Same nearest-rank convention as Histogram::Percentile.
    const size_t target = std::max<size_t>(
        1, static_cast<size_t>(
               pct / 100.0 * static_cast<double>(exact.size()) + 0.5));
    const size_t rank = std::min(exact.size() - 1, target - 1);
    const double truth = static_cast<double>(exact[rank]);
    const double measured = static_cast<double>(h.Percentile(pct));
    EXPECT_NEAR(measured, truth, std::max(2.0, truth * 0.002))
        << "pct=" << pct;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace psp
