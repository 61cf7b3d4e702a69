// Policy explorer: compare every scheduling policy in the library on a
// user-defined n-modal workload, using the deterministic discrete-event
// testbed model. Useful for answering "would DARC help *my* mix?".
//
//   $ ./examples/policy_explorer [workers] [load] [mean_us:ratio ...]
//   $ ./examples/policy_explorer 14 0.8 1:0.5 100:0.5
//   $ ./examples/policy_explorer 16 0.9 0.5:99.5 500:0.5
//   $ ./examples/policy_explorer 14 - --trace capture.csv   # replay a trace
//
// Defaults to High Bimodal on 14 workers at 80% load. Trace files use the
// CSV format of src/sim/trace.h (send_us,type,service_us per line).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/trace.h"
#include "src/sim/policies/c_fcfs.h"
#include "src/sim/policies/d_fcfs.h"
#include "src/sim/policies/oracle_policies.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/policies/time_sharing.h"
#include "src/sim/policies/work_stealing.h"

namespace {

psp::WorkloadSpec ParseWorkload(int argc, char** argv, int first_arg) {
  psp::WorkloadSpec spec;
  spec.name = "custom";
  psp::WorkloadPhase phase;
  for (int i = first_arg; i < argc; ++i) {
    const char* colon = std::strchr(argv[i], ':');
    if (colon == nullptr) {
      std::fprintf(stderr, "ignoring malformed type spec '%s'\n", argv[i]);
      continue;
    }
    psp::WorkloadType type;
    type.wire_id = static_cast<psp::TypeId>(phase.types.size() + 1);
    type.mean_us = std::atof(argv[i]);
    type.ratio = std::atof(colon + 1);
    type.name = "T" + std::to_string(type.wire_id) + "(" +
                std::to_string(type.mean_us) + "us)";
    if (type.mean_us <= 0 || type.ratio <= 0) {
      std::fprintf(stderr, "ignoring non-positive type spec '%s'\n", argv[i]);
      continue;
    }
    phase.types.push_back(std::move(type));
  }
  if (phase.types.empty()) {
    phase.types = {psp::WorkloadType{1, "SHORT", 1.0, 0.5},
                   psp::WorkloadType{2, "LONG", 100.0, 0.5}};
  }
  spec.phases.push_back(std::move(phase));
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t workers =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 14;
  const double load = argc > 2 ? std::atof(argv[2]) : 0.8;

  // Trace replay mode: --trace <file> replaces the synthetic generator.
  std::vector<psp::TraceEntry> trace;
  psp::WorkloadSpec workload;
  if (argc > 4 && std::strcmp(argv[3], "--trace") == 0) {
    std::string error;
    const auto parsed = psp::ParseTraceCsvFile(argv[4], &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "trace error: %s\n", error.c_str());
      return 1;
    }
    trace = *parsed;
    // Derive a workload spec (type means/ratios) from the trace itself so
    // DARC can be seeded and metrics get names.
    std::map<psp::TypeId, std::pair<double, uint64_t>> stats;
    for (const auto& e : trace) {
      auto& [sum, n] = stats[e.wire_type];
      sum += static_cast<double>(e.service);
      ++n;
    }
    psp::WorkloadPhase phase;
    for (const auto& [type, agg] : stats) {
      psp::WorkloadType t;
      t.wire_id = type;
      t.name = "T" + std::to_string(type);
      t.mean_us = agg.first / static_cast<double>(agg.second) / 1e3;
      t.ratio = static_cast<double>(agg.second) /
                static_cast<double>(trace.size());
      phase.types.push_back(std::move(t));
    }
    workload.name = std::string("trace:") + argv[4];
    workload.phases.push_back(std::move(phase));
    std::printf("replaying %zu requests from %s (%zu types)\n\n",
                trace.size(), argv[4], stats.size());
  } else {
    workload = ParseWorkload(argc, argv, 3);
  }

  const double peak = workload.PeakLoadRps(workers);
  std::printf("workload '%s': mean service %.2f us, peak %.0f kRPS on %u "
              "workers; ",
              workload.name.c_str(), workload.MeanServiceNanos() / 1e3,
              peak / 1e3, workers);
  if (trace.empty()) {
    std::printf("evaluating at %.0f%% load\n\n", load * 100);
  } else {
    // A replay's load is the trace's own: requests over its send-time span.
    const auto [first, last] = std::minmax_element(
        trace.begin(), trace.end(), [](const auto& a, const auto& b) {
          return a.send_time < b.send_time;
        });
    const double span_s =
        static_cast<double>(last->send_time - first->send_time) / 1e9;
    const double offered =
        span_s > 0 ? static_cast<double>(trace.size()) / span_s : 0.0;
    std::printf("the trace offers %.1f kRPS (%.0f%% of peak)\n\n",
                offered / 1e3, offered / peak * 100);
  }

  struct Entry {
    const char* name;
    std::function<std::unique_ptr<psp::SchedulingPolicy>()> make;
  };
  const std::vector<Entry> policies = {
      {"d-FCFS",
       [] { return std::make_unique<psp::DecentralizedFcfsPolicy>(); }},
      {"c-FCFS", [] { return std::make_unique<psp::CentralFcfsPolicy>(); }},
      {"work-stealing",
       [] { return std::make_unique<psp::WorkStealingPolicy>(); }},
      {"shinjuku-mq",
       [] {
         psp::TimeSharingOptions o;
         o.multi_queue = true;
         o.preempt_overhead = 2 * psp::kMicrosecond;
         return std::make_unique<psp::TimeSharingPolicy>(o);
       }},
      {"sjf",
       [] { return std::make_unique<psp::ShortestJobFirstPolicy>(); }},
      {"edf",
       [] { return std::make_unique<psp::EarliestDeadlineFirstPolicy>(10.0); }},
      {"static-partition",
       [] { return std::make_unique<psp::StaticPartitionPolicy>(); }},
      {"darc",
       [] {
         psp::PersephoneOptions o;
         o.scheduler.mode = psp::PolicyMode::kDarc;
         return std::make_unique<psp::PersephonePolicy>(o);
       }},
  };

  std::printf("%-18s %14s %12s", "policy", "p999_slowdown", "drops");
  for (const auto& type : workload.types()) {
    std::printf(" %16s", (type.name + "_p999us").c_str());
  }
  std::printf("\n");

  std::string darc_stage_report;
  for (const auto& entry : policies) {
    psp::ClusterConfig config;
    config.num_workers = workers;
    config.rate_rps = load * peak;
    config.duration = 300 * psp::kMillisecond;
    config.net_one_way = 5 * psp::kMicrosecond;
    config.telemetry.sample_every = 16;  // lifecycle traces for StageReport
    auto engine_ptr =
        trace.empty()
            ? std::make_unique<psp::ClusterEngine>(workload, config,
                                                   entry.make())
            : std::make_unique<psp::ClusterEngine>(workload, config,
                                                   entry.make(), trace);
    psp::ClusterEngine& engine = *engine_ptr;
    engine.Run();
    const psp::Metrics& metrics = engine.metrics();
    std::printf("%-18s %14.1f %12llu", entry.name,
                metrics.OverallSlowdown(99.9),
                static_cast<unsigned long long>(metrics.TotalDrops()));
    for (const auto& type : workload.types()) {
      std::printf(" %16.1f",
                  psp::ToMicros(metrics.TypeLatency(type.wire_id, 99.9)));
    }
    std::printf("\n");
    if (std::strcmp(entry.name, "darc") == 0) {
      // Same unified snapshot API as the threaded runtime (see quickstart):
      // per-stage latency decomposition from sampled lifecycle traces.
      darc_stage_report = engine.telemetry_snapshot().StageReport();
    }
  }
  if (!darc_stage_report.empty()) {
    std::printf("\ndarc stage breakdown (sampled lifecycle traces):\n%s",
                darc_stage_report.c_str());
  }
  return 0;
}
