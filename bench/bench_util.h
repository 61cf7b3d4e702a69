// Shared harness for the paper-figure benchmarks: system presets calibrated
// per DESIGN.md §5, load sweeps, and aligned table / CSV output. The fleet
// and deadline figures' configurations live here too, so the ordering tests
// (tests/bench_policy_order_test.cc) run exactly the figures' gated points.
//
// Environment knobs (all optional):
//   PSP_BENCH_DURATION_MS  sending window per point (default 250)
//   PSP_BENCH_CSV          "1" = emit CSV instead of aligned tables
//   PSP_BENCH_SEED         RNG seed (default 42)
#ifndef PSP_BENCH_BENCH_UTIL_H_
#define PSP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet_sim.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/c_fcfs.h"
#include "src/sim/policies/d_fcfs.h"
#include "src/sim/policies/oracle_policies.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/policies/time_sharing.h"
#include "src/sim/policies/work_stealing.h"

namespace psp {
namespace bench {

inline Nanos BenchDuration() {
  const char* env = std::getenv("PSP_BENCH_DURATION_MS");
  const long ms = env != nullptr ? std::atol(env) : 250;
  return (ms > 0 ? ms : 250) * kMillisecond;
}

inline uint64_t BenchSeed() {
  const char* env = std::getenv("PSP_BENCH_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 42;
}

inline bool CsvMode() {
  const char* env = std::getenv("PSP_BENCH_CSV");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

// --- System presets (calibration per DESIGN.md §5) ---------------------------

// The idealised §2 simulator: no network, no pipeline costs.
inline ClusterConfig IdealConfig(uint32_t workers, double rate) {
  ClusterConfig c;
  c.num_workers = workers;
  c.rate_rps = rate;
  c.duration = BenchDuration();
  c.net_one_way = 0;
  c.dispatch_cost = 0;
  c.completion_cost = 0;
  c.seed = BenchSeed();
  return c;
}

// The CloudLab-like testbed model: 10 µs RTT + per-stage pipeline costs.
inline ClusterConfig TestbedConfig(uint32_t workers, double rate) {
  ClusterConfig c;
  c.num_workers = workers;
  c.rate_rps = rate;
  c.duration = BenchDuration();
  c.net_one_way = 5 * kMicrosecond;
  c.dispatch_cost = 100;   // net worker + classifier + decision (§5.1)
  c.completion_cost = 40;  // ≈88 cycles @2.6 GHz (§4.3.2)
  c.seed = BenchSeed();
  return c;
}

inline std::unique_ptr<SchedulingPolicy> MakeDarc() {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kDarc;
  return std::make_unique<PersephonePolicy>(o);
}

inline std::unique_ptr<SchedulingPolicy> MakeDarcStatic(uint32_t reserved) {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kDarcStatic;
  o.scheduler.static_reserved = reserved;
  return std::make_unique<PersephonePolicy>(o);
}

inline std::unique_ptr<SchedulingPolicy> MakePspCFcfs(
    DeadlineConfig deadline = {}) {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kCFcfs;
  o.scheduler.deadline = std::move(deadline);
  return std::make_unique<PersephonePolicy>(o);
}

// Deadline-tier policies (src/sched): bucketed EDF dispatch, and the
// slack-aware DARC variant that inflates reservations for deadline-at-risk
// types. Both need per-type budgets to do anything interesting; DARC/c-FCFS
// accept the same config so miss accounting is apples-to-apples.
inline std::unique_ptr<SchedulingPolicy> MakeEdf(DeadlineConfig deadline) {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kEdf;
  o.scheduler.deadline = std::move(deadline);
  return std::make_unique<PersephonePolicy>(o);
}

inline std::unique_ptr<SchedulingPolicy> MakeDarcSlack(
    DeadlineConfig deadline) {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kDarcSlack;
  o.scheduler.deadline = std::move(deadline);
  return std::make_unique<PersephonePolicy>(o);
}

inline std::unique_ptr<SchedulingPolicy> MakeDarcWithDeadlines(
    DeadlineConfig deadline) {
  PersephoneOptions o;
  o.scheduler.mode = PolicyMode::kDarc;
  o.scheduler.deadline = std::move(deadline);
  return std::make_unique<PersephonePolicy>(o);
}

// Shenango models: IOKernel RSS steering with (c-FCFS) or without (d-FCFS)
// work stealing.
inline std::unique_ptr<SchedulingPolicy> MakeShenangoCFcfs() {
  return std::make_unique<WorkStealingPolicy>();
}
inline std::unique_ptr<SchedulingPolicy> MakeShenangoDFcfs() {
  return std::make_unique<DecentralizedFcfsPolicy>();
}

// Shinjuku model: ≈2 µs measured per-interrupt cost on the testbed (§1);
// quantum per workload as reported in §5.4.
inline std::unique_ptr<SchedulingPolicy> MakeShinjuku(
    Nanos quantum, bool multi_queue, Nanos overhead = 2 * kMicrosecond) {
  TimeSharingOptions o;
  o.quantum = quantum;
  o.preempt_overhead = overhead;
  o.multi_queue = multi_queue;
  return std::make_unique<TimeSharingPolicy>(o);
}

// --- Fleet and deadline figure points -------------------------------------

// fig_fleet_policies: N DARC servers of this many workers behind one rack
// dispatcher.
inline constexpr uint32_t kFleetWorkersPerServer = 8;

// One fig_fleet_policies point: `servers` servers at `load` of the fleet's
// peak rate. Each server's pipeline is calibrated like the testbed model; the
// rack hop (client -> dispatcher) carries the 5 us one-way, the dispatcher ->
// server hop is the intra-rack 1 us.
inline FleetSimConfig FleetConfig(const WorkloadSpec& workload,
                                  uint32_t servers, double load,
                                  FleetPolicyKind kind) {
  FleetSimConfig config;
  config.num_servers = servers;
  config.server.num_workers = kFleetWorkersPerServer;
  config.server.net_one_way = kMicrosecond;
  config.server.dispatch_cost = 100;
  config.server.completion_cost = 40;
  config.net_one_way = 5 * kMicrosecond;
  config.dispatch_cost = 50;
  config.rate_rps = load * static_cast<double>(servers) *
                    workload.PeakLoadRps(kFleetWorkersPerServer);
  config.duration = BenchDuration();
  config.seed = BenchSeed();
  config.policy = FleetPolicyConfig::Default(kind);
  return config;
}

// fig_deadline: the 14-worker testbed model.
inline constexpr uint32_t kDeadlineWorkers = 14;

inline ClusterConfig DeadlineTestbedConfig(const WorkloadSpec& workload,
                                           double load) {
  return TestbedConfig(kDeadlineWorkers,
                       load * workload.PeakLoadRps(kDeadlineWorkers));
}

// fig_deadline's per-type budgets: max(20 µs, 1.4 × mean), a loose floor for
// short types and a tight bound for long ones. Derived from the workload
// alone.
inline DeadlineConfig BudgetsFor(const WorkloadSpec& workload) {
  DeadlineConfig config;
  for (const auto& t : workload.AllTypes()) {
    DeadlineTarget target;
    target.type_name = t.name;
    target.budget = FromMicros(std::max(20.0, 1.4 * t.mean_us));
    config.targets.push_back(target);
  }
  return config;
}

// --- Sweeps -------------------------------------------------------------------

// Default load fractions for throughput-vs-slowdown curves.
inline std::vector<double> DefaultLoads() {
  return {0.05, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95};
}

struct RunResult {
  double offered_rps = 0;
  double achieved_rps = 0;
  double overall_slowdown_p999 = 0;
  uint64_t drops = 0;
  ClusterEngine* engine = nullptr;  // valid only inside RunPoint's callback
};

// Runs one (workload, load, policy) point and returns headline metrics.
// `inspect` (optional) receives the finished engine for extra columns.
template <typename PolicyFactory, typename Inspect>
RunResult RunPoint(const WorkloadSpec& workload, const ClusterConfig& config,
                   PolicyFactory&& factory, Inspect&& inspect) {
  ClusterEngine engine(workload, config, factory());
  engine.Run();
  RunResult r;
  r.offered_rps = config.rate_rps;
  r.achieved_rps = engine.metrics().ThroughputRps(engine.MeasuredWindow());
  r.overall_slowdown_p999 = engine.metrics().OverallSlowdown(99.9);
  r.drops = engine.metrics().TotalDrops();
  r.engine = &engine;
  inspect(engine);
  r.engine = nullptr;
  return r;
}

// --- Worker time provenance ---------------------------------------------------

// Aggregate worker-time shares: percent of summed worker wall time per
// ledger state. Worker slots only — the dispatcher pseudo-slot tracks a
// different resource and is reported separately by the exporters. In the
// simulator the decomposition is exact, so Sum() is 100.0 whenever any wall
// time was observed.
struct WorkerTimeShares {
  std::array<double, kNumWorkerTimeStates> pct{};

  double Pct(WorkerTimeState state) const {
    return pct[static_cast<size_t>(state)];
  }
  double Sum() const {
    double sum = 0;
    for (const double v : pct) {
      sum += v;
    }
    return sum;
  }
};

inline WorkerTimeShares WorkerTimeSharesFromRecords(
    const std::vector<WorkerTimeRecord>& records) {
  WorkerTimeShares shares;
  std::array<uint64_t, kNumWorkerTimeStates> sums{};
  uint64_t wall = 0;
  for (const WorkerTimeRecord& rec : records) {
    if (rec.role != "worker") {
      continue;
    }
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      sums[s] += rec.state_ns[s];
      wall += rec.state_ns[s];
    }
  }
  if (wall == 0) {
    return shares;
  }
  for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
    shares.pct[s] =
        100.0 * static_cast<double>(sums[s]) / static_cast<double>(wall);
  }
  return shares;
}

inline WorkerTimeShares ComputeWorkerTimeShares(const TelemetrySnapshot& snap) {
  return WorkerTimeSharesFromRecords(snap.worker_time);
}

// --- Output -------------------------------------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    if (CsvMode()) {
      PrintCsv();
      return;
    }
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t i = 0; i < headers_.size(); ++i) {
      width[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], row[i].size());
      }
    }
    PrintRow(headers_, width);
    std::string rule;
    for (size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(width[i], '-') + (i + 1 < headers_.size() ? "-+-" : "");
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      PrintRow(row, width);
    }
  }

 private:
  void PrintCsv() const {
    const auto emit = [](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%s", row[i].c_str(), i + 1 < row.size() ? "," : "\n");
      }
    };
    emit(headers_);
    for (const auto& row : rows_) {
      emit(row);
    }
  }

  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& width) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s%s", static_cast<int>(width[i]), row[i].c_str(),
                  i + 1 < row.size() ? " | " : "\n");
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtMicros(Nanos ns, int precision = 1) {
  return Fmt(ToMicros(ns), precision);
}

// Reports the first sweep load at which `slowdowns` stays at or below `slo`,
// expressed as the highest sustainable offered load (paper's "sustains X Mrps
// at a target SLO"). Returns the last load meeting the SLO, or 0.
inline double MaxLoadUnderSlo(const std::vector<double>& loads,
                              const std::vector<double>& slowdowns,
                              double slo) {
  double best = 0;
  for (size_t i = 0; i < loads.size() && i < slowdowns.size(); ++i) {
    if (slowdowns[i] > 0 && slowdowns[i] <= slo) {
      best = std::max(best, loads[i]);
    }
  }
  return best;
}

}  // namespace bench
}  // namespace psp

#endif  // PSP_BENCH_BENCH_UTIL_H_
