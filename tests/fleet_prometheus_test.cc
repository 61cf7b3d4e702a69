// The fleet /metrics page is the federation of its members' own pages: it
// validates, carries every member sample under server="i", sums every member
// counter into psp_fleet_*, and names the dispatcher's own families
// psp_fleet_* exactly once — for the simulated and the threaded fleet alike.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/fleet/fleet_runtime.h"
#include "src/fleet/fleet_sim.h"
#include "src/introspect/prometheus.h"
#include "src/sim/policies/c_fcfs.h"

namespace psp {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    out.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return out;
}

void ExpectFederatedFleetPage(const FleetSnapshot& snap) {
  ASSERT_EQ(snap.num_servers(), 2u);
  const std::string page = snap.ToPrometheus();
  EXPECT_EQ(CheckExposition(page), "");
  const std::vector<std::string> lines = Lines(page);
  const std::set<std::string> line_set(lines.begin(), lines.end());

  // Member samples, re-labelled, plus the expected per-label counter sums.
  std::map<std::string, uint64_t> sums;  // "psp_fleet_x_total{labels}" -> sum
  for (uint32_t i = 0; i < snap.num_servers(); ++i) {
    const std::string member = RenderPrometheusText(snap.servers[i]);
    std::set<std::string> counters;
    for (const std::string& line : Lines(member)) {
      if (line.compare(0, 7, "# TYPE ") == 0 && line.size() > 15 &&
          line.compare(line.size() - 8, 8, " counter") == 0) {
        counters.insert(line.substr(7, line.size() - 15));
      }
      PrometheusSample s;
      if (line.empty() || line[0] == '#' ||
          !ParsePrometheusSample(line, &s).empty() || s.name == "psp_up") {
        continue;
      }
      const std::string labelled =
          s.name + "{server=\"" + std::to_string(i) + "\"" +
          (s.labels.empty() ? "" : "," + s.labels) + "} " + s.value;
      EXPECT_TRUE(line_set.count(labelled)) << labelled;
      if (counters.count(s.name)) {
        sums["psp_fleet_" + s.name.substr(4) +
             (s.labels.empty() ? "" : "{" + s.labels + "}")] +=
            std::strtoull(s.value.c_str(), nullptr, 10);
      }
    }
  }
  ASSERT_FALSE(sums.empty());
  for (const auto& [series, sum] : sums) {
    EXPECT_TRUE(line_set.count(series + " " + std::to_string(sum))) << series;
  }

  // The dispatcher's own families: fleet.x -> psp_fleet_x, per-server
  // fleet.server.N.x -> psp_fleet_server_x{server="N"}.
  EXPECT_TRUE(line_set.count("psp_fleet_policy{policy=\"" + snap.policy +
                             "\"} 1"));
  for (const auto& [name, value] : snap.counters) {
    const std::string field = name.substr(name.rfind('.') + 1);
    const std::string series =
        name.compare(0, 13, "fleet.server.") == 0
            ? "psp_fleet_server_" + field + "_total{server=\"" +
                  name.substr(13, name.rfind('.') - 13) + "\"}"
            : "psp_fleet_" + PrometheusMetricName(name.substr(6)) + "_total";
    EXPECT_TRUE(line_set.count(series + " " + std::to_string(value)))
        << series;
  }
  EXPECT_TRUE(line_set.count("psp_fleet_num_servers 2"));

  // Exact rack-wide histogram rollups sit in each summary family's block.
  for (const auto& [name, hist] : snap.Merged().histograms) {
    EXPECT_TRUE(line_set.count("psp_" + PrometheusMetricName(name) +
                               "_count{server=\"merged\"} " +
                               std::to_string(hist.Count())))
        << name;
  }

  EXPECT_EQ(page.find("psp_fleet_fleet_"), std::string::npos);
  EXPECT_TRUE(line_set.count("psp_fleet_servers 2"));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.back(), "psp_up 1");
  EXPECT_EQ(page.find("\npsp_up "), page.rfind("\npsp_up "));
}

TEST(FleetPrometheus, SimulatedFleetPageFederatesMemberPages) {
  FleetSimConfig config;
  config.num_servers = 2;
  config.server.num_workers = 4;
  config.duration = 20 * kMillisecond;
  config.seed = 7;
  config.policy = FleetPolicyConfig::Default(FleetPolicyKind::kPowerOfTwo);
  const WorkloadSpec workload = HighBimodal();
  config.rate_rps = 0.5 * 2 * workload.PeakLoadRps(4);
  FleetSimulation fleet(workload, config, [](uint32_t) {
    return std::make_unique<CentralFcfsPolicy>();
  });
  fleet.Run();
  ExpectFederatedFleetPage(fleet.fleet_snapshot());
}

TEST(FleetPrometheus, RuntimeFleetPageFederatesMemberPages) {
  FleetRuntimeConfig config;
  config.num_servers = 2;
  config.server.num_workers = 2;
  config.server.pool_buffers = 1024;
  config.policy = FleetPolicyConfig::Default(FleetPolicyKind::kRoundRobin);
  FleetRuntime fleet(config);
  fleet.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(1), 1.0);
  fleet.Start();
  constexpr uint64_t kTotal = 200;
  Nanos spin = FromMicros(1);
  for (uint64_t i = 0; i < kTotal; ++i) {
    while (!fleet.Submit(1, static_cast<uint32_t>(i), &spin, sizeof(spin))) {
      std::this_thread::yield();
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetClientReport report = fleet.client_report();
    if (report.responses + report.dispatch_drops >= kTotal) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  fleet.Stop();
  ExpectFederatedFleetPage(fleet.fleet_snapshot());
}

}  // namespace
}  // namespace psp
