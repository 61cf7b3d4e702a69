// Deadline tier (src/sched): DARC vs EDF vs slack-DARC vs c-FCFS on
// deadline-miss-rate and goodput at 70–85% load, under High Bimodal and the
// TPC-C mix (testbed model: 10 µs RTT, 14 workers).
//
// Budgets are per-type with deliberately different tightness: every type gets
// budget = max(20 µs, 1.4 × mean). Short types therefore carry generous slack
// (20× mean for the 1 µs bimodal SHORT) while long types run tight (1.4×
// mean), so head-of-line blocking converts directly into misses and the
// slack-aware reservation has genuine at-risk types to shift cores toward.
// Shedding stays off here: all four policies see every request, so miss-rate
// differences are pure scheduling.
//
// Expected shape: EDF and slack-DARC beat plain DARC and c-FCFS on miss rate
// across the sweep, with goodput no worse. tests/bench_policy_order_test.cc
// gates EDF <= c-FCFS at 70% load on High Bimodal, on this figure's own
// configuration (bench_util.h's BudgetsFor and DeadlineTestbedConfig).
// One structural caveat: on a two-type mix the slack re-weighting cannot move
// the integer core split (the short type's demand share is ~1% and already
// sits on the 1-core reservation floor), so slack-DARC exactly matches plain
// DARC on High Bimodal and earns its lead on the five-type TPC-C mix.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"

namespace psp {
namespace bench {
namespace {

void Main() {
  std::printf("Deadline tier: miss rate and goodput by policy "
              "(14 workers, 10us RTT, budget = max(20us, 1.4x mean))\n\n");

  struct System {
    const char* name;
    std::function<std::unique_ptr<SchedulingPolicy>(DeadlineConfig)> make;
  };
  const std::vector<System> systems = {
      {"c-FCFS", [](DeadlineConfig d) { return MakePspCFcfs(std::move(d)); }},
      {"DARC",
       [](DeadlineConfig d) { return MakeDarcWithDeadlines(std::move(d)); }},
      {"EDF", [](DeadlineConfig d) { return MakeEdf(std::move(d)); }},
      {"slack-DARC",
       [](DeadlineConfig d) { return MakeDarcSlack(std::move(d)); }},
  };
  const std::vector<double> loads = {0.70, 0.75, 0.80, 0.85};

  Table table({"workload", "load", "policy", "miss_rate_pct", "goodput_krps",
               "p999_slowdown"});
  // miss-rate sums across the sweep, per system, for the headline comparison.
  std::vector<double> miss_sum(systems.size(), 0);

  for (const WorkloadSpec& workload : {HighBimodal(), TpccMix()}) {
    const DeadlineConfig budgets = BudgetsFor(workload);
    for (const double load : loads) {
      for (size_t s = 0; s < systems.size(); ++s) {
        ClusterEngine engine(workload, DeadlineTestbedConfig(workload, load),
                             systems[s].make(budgets));
        engine.Run();
        const Metrics& m = engine.metrics();
        const double miss_pct = m.DeadlineMissRate() * 100.0;
        miss_sum[s] += miss_pct;
        table.AddRow({workload.name, Fmt(load, 2), systems[s].name,
                      Fmt(miss_pct, 3),
                      Fmt(m.GoodputRps(engine.MeasuredWindow()) / 1e3, 1),
                      Fmt(m.OverallSlowdown(99.9), 1)});
      }
    }
  }
  table.Print();

  std::printf("\nMean miss rate across the sweep:");
  for (size_t s = 0; s < systems.size(); ++s) {
    std::printf(" %s %.3f%%%s", systems[s].name,
                miss_sum[s] / (2.0 * static_cast<double>(loads.size())),
                s + 1 < systems.size() ? "," : "\n");
  }
  std::printf("Expected ordering: EDF and slack-DARC at or below plain DARC "
              "and c-FCFS.\n");
}

}  // namespace
}  // namespace bench
}  // namespace psp

int main() {
  psp::bench::Main();
  return 0;
}
