// Cross-cutting integration matrix: every (policy × paper workload) pair at
// moderate load must satisfy the universal invariants — request conservation,
// slowdown ≥ ~1, per-type mix matching the spec, no drops below saturation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/sim/cluster.h"
#include "src/sim/policies/c_fcfs.h"
#include "src/sim/policies/d_fcfs.h"
#include "src/sim/policies/drr.h"
#include "src/sim/policies/oracle_policies.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/policies/time_sharing.h"
#include "src/sim/policies/work_stealing.h"

namespace psp {
namespace {

struct Combo {
  std::string policy;
  std::string workload;
};

using Factory = std::function<std::unique_ptr<SchedulingPolicy>()>;

Factory FactoryFor(const std::string& name) {
  if (name == "c-fcfs") {
    return [] { return std::make_unique<CentralFcfsPolicy>(); };
  }
  if (name == "d-fcfs") {
    return [] { return std::make_unique<DecentralizedFcfsPolicy>(); };
  }
  if (name == "work-stealing") {
    return [] { return std::make_unique<WorkStealingPolicy>(); };
  }
  if (name == "shinjuku") {
    return [] {
      return std::make_unique<TimeSharingPolicy>(TimeSharingOptions{});
    };
  }
  if (name == "sjf") {
    return [] { return std::make_unique<ShortestJobFirstPolicy>(); };
  }
  if (name == "edf") {
    return [] { return std::make_unique<EarliestDeadlineFirstPolicy>(10.0); };
  }
  if (name == "drr") {
    return [] { return std::make_unique<DeficitRoundRobinPolicy>(); };
  }
  if (name == "static-partition") {
    return [] { return std::make_unique<StaticPartitionPolicy>(); };
  }
  // darc
  return [] {
    PersephoneOptions o;
    o.scheduler.mode = PolicyMode::kDarc;
    return std::make_unique<PersephonePolicy>(o);
  };
}

WorkloadSpec WorkloadFor(const std::string& name) {
  if (name == "high-bimodal") {
    return HighBimodal();
  }
  if (name == "extreme-bimodal") {
    return ExtremeBimodal();
  }
  if (name == "tpcc") {
    return TpccMix();
  }
  if (name == "fb-usr") {
    return FacebookUsrLike();
  }
  return RocksDbMix();
}

class ConsistencyMatrix
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(ConsistencyMatrix, UniversalInvariantsHold) {
  const auto [policy_name, workload_name] = GetParam();
  const WorkloadSpec workload = WorkloadFor(workload_name);
  constexpr uint32_t kWorkers = 8;
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.rate_rps = 0.55 * workload.PeakLoadRps(kWorkers);
  config.duration = 80 * kMillisecond;
  config.net_one_way = 5 * kMicrosecond;
  config.seed = 21;

  ClusterEngine engine(workload, config, FactoryFor(policy_name)());
  engine.Run();
  const Metrics& metrics = engine.metrics();

  // 1. Conservation: nothing lost, nothing duplicated (measured + warmup +
  //    drops == generated; warmup completions are the non-measured rest).
  EXPECT_LE(metrics.TotalCount() + metrics.TotalDrops(), engine.generated());
  EXPECT_GT(metrics.TotalCount(), 0u);

  // 2. At 55% load, a sane policy sheds nothing.
  EXPECT_EQ(metrics.TotalDrops(), 0u)
      << policy_name << " on " << workload_name;

  // 3. Latency ≥ service + RTT: slowdown strictly above 1 even at p50 is not
  //    guaranteed (network adds a constant), but p0 latency of each type must
  //    be at least its fixed service time + RTT.
  for (const auto& type : workload.types()) {
    const Nanos floor_lat = FromMicros(type.mean_us) + 10 * kMicrosecond;
    EXPECT_GE(metrics.TypeLatency(type.wire_id, 0.0) + 1000, floor_lat)
        << policy_name << "/" << workload_name << " type " << type.name;
  }

  // 4. Observed mix matches the spec's ratios within 3 points.
  for (const auto& type : workload.types()) {
    const double observed =
        static_cast<double>(metrics.TypeCount(type.wire_id)) /
        static_cast<double>(metrics.TotalCount());
    EXPECT_NEAR(observed, type.ratio, 0.03)
        << policy_name << "/" << workload_name << " type " << type.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConsistencyMatrix,
    ::testing::Combine(::testing::Values("c-fcfs", "d-fcfs", "work-stealing",
                                         "shinjuku", "sjf", "edf", "drr",
                                         "static-partition", "darc"),
                       ::testing::Values("high-bimodal", "extreme-bimodal",
                                         "tpcc", "rocksdb", "fb-usr")),
    [](const auto& test_info) {
      std::string name = std::string(std::get<0>(test_info.param)) + "_" +
                         std::get<1>(test_info.param);
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace psp
