// Tests for the bench harness utilities (bench/bench_util.h): table/CSV
// rendering, env knobs, and the SLO sustained-load helper.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace psp {
namespace bench {
namespace {

TEST(BenchUtil, MaxLoadUnderSloPicksLastPassingPoint) {
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8};
  const std::vector<double> slowdowns = {2.0, 5.0, 9.0, 50.0};
  EXPECT_DOUBLE_EQ(MaxLoadUnderSlo(loads, slowdowns, 10.0), 0.6);
  EXPECT_DOUBLE_EQ(MaxLoadUnderSlo(loads, slowdowns, 100.0), 0.8);
  EXPECT_DOUBLE_EQ(MaxLoadUnderSlo(loads, slowdowns, 1.0), 0.0);
}

TEST(BenchUtil, MaxLoadUnderSloIgnoresZeroEntries) {
  // Zero slowdown marks "no data" (e.g. all requests dropped).
  const std::vector<double> loads = {0.2, 0.4};
  const std::vector<double> slowdowns = {0.0, 5.0};
  EXPECT_DOUBLE_EQ(MaxLoadUnderSlo(loads, slowdowns, 10.0), 0.4);
}

TEST(BenchUtil, FmtFormatsPrecision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(10.0, 0), "10");
  EXPECT_EQ(FmtMicros(2500, 1), "2.5");
}

TEST(BenchUtil, EnvKnobs) {
  setenv("PSP_BENCH_DURATION_MS", "123", 1);
  EXPECT_EQ(BenchDuration(), 123 * kMillisecond);
  unsetenv("PSP_BENCH_DURATION_MS");
  EXPECT_EQ(BenchDuration(), 250 * kMillisecond);

  setenv("PSP_BENCH_SEED", "999", 1);
  EXPECT_EQ(BenchSeed(), 999u);
  unsetenv("PSP_BENCH_SEED");

  setenv("PSP_BENCH_CSV", "1", 1);
  EXPECT_TRUE(CsvMode());
  setenv("PSP_BENCH_CSV", "0", 1);
  EXPECT_FALSE(CsvMode());
  unsetenv("PSP_BENCH_CSV");
}

TEST(BenchUtil, SystemPresetsConstruct) {
  // Factory smoke tests: each preset builds a live policy object.
  EXPECT_EQ(MakeDarc()->Name(), "darc");
  EXPECT_EQ(MakeDarcStatic(3)->Name(), "darc-static-3");
  EXPECT_EQ(MakePspCFcfs()->Name(), "psp-c-fcfs");
  EXPECT_EQ(MakeShenangoCFcfs()->Name(), "shenango-ws");
  EXPECT_EQ(MakeShenangoDFcfs()->Name(), "d-FCFS");
  EXPECT_EQ(MakeShinjuku(5 * kMicrosecond, true)->Name(), "shinjuku-mq");
  EXPECT_EQ(MakeShinjuku(5 * kMicrosecond, false)->Name(), "shinjuku-sq");
}

TEST(BenchUtil, ConfigsMatchDesignCalibration) {
  const ClusterConfig ideal = IdealConfig(16, 1e6);
  EXPECT_EQ(ideal.net_one_way, 0);
  EXPECT_EQ(ideal.dispatch_cost, 0);
  const ClusterConfig testbed = TestbedConfig(14, 1e5);
  EXPECT_EQ(testbed.net_one_way, 5 * kMicrosecond);  // 10 µs RTT
  EXPECT_EQ(testbed.dispatch_cost, 100);
  EXPECT_EQ(testbed.completion_cost, 40);
}

}  // namespace
}  // namespace bench
}  // namespace psp
