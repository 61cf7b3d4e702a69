// Policy orderings that the fleet and deadline figures exist to show, checked
// on the figures' own configurations (bench/bench_util.h): the same seed,
// window and calibration as bench/fig_fleet_policies and bench/fig_deadline,
// at each figure's gated 70% load. The figures' window and seed knobs
// (PSP_BENCH_DURATION_MS, PSP_BENCH_SEED) are cleared first, so the verdict
// is that of the figures' defaults (250 ms, seed 42) whatever the shell sets.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace psp {
namespace bench {
namespace {

class FigureOrdering : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("PSP_BENCH_DURATION_MS");
    unsetenv("PSP_BENCH_SEED");
  }
};

// RackSched's placement result: sampling two servers' depths (po2c) never
// loses to random placement on fleet p99.9 slowdown. Both policies see the
// same arrival trace, so the comparison is paired.
TEST_F(FigureOrdering, FleetPo2cNoWorseThanRandomAt70PctLoad) {
  const auto p999 = [](const WorkloadSpec& workload, uint32_t servers,
                       FleetPolicyKind kind) {
    FleetSimulation fleet(workload, FleetConfig(workload, servers, 0.7, kind),
                          [](uint32_t) { return MakeDarc(); });
    fleet.Run();
    return fleet.metrics().OverallSlowdown(99.9);
  };
  for (const WorkloadSpec& workload : {HighBimodal(), ExtremeBimodal()}) {
    for (const uint32_t servers : {2u, 4u, 8u}) {
      const double random = p999(workload, servers, FleetPolicyKind::kRandom);
      const double po2c = p999(workload, servers, FleetPolicyKind::kPowerOfTwo);
      EXPECT_GT(po2c, 0.0);
      EXPECT_LE(po2c, random) << workload.name << ", " << servers << " servers";
    }
  }
}

// Deadline-aware dispatch (EDF) misses no more budgets than deadline-blind
// c-FCFS on High Bimodal.
TEST_F(FigureOrdering, DeadlineEdfMissesNoMoreThanCFcfsAt70PctLoad) {
  const WorkloadSpec workload = HighBimodal();
  const auto miss_rate = [&](std::unique_ptr<SchedulingPolicy> policy) {
    ClusterEngine engine(workload, DeadlineTestbedConfig(workload, 0.7),
                         std::move(policy));
    engine.Run();
    return engine.metrics().DeadlineMissRate();
  };
  const double cfcfs = miss_rate(MakePspCFcfs(BudgetsFor(workload)));
  const double edf = miss_rate(MakeEdf(BudgetsFor(workload)));
  EXPECT_GT(cfcfs, 0.0);
  EXPECT_LE(edf, cfcfs);
}

}  // namespace
}  // namespace bench
}  // namespace psp
