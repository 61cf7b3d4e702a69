// Figure 7 (§5.5, "Handling workload changes"): four phases over two request
// types A and B at 80% utilisation, with DARC profiling windows driving
// reservation updates; c-FCFS as the baseline. Prints a per-100 ms timeline
// of p99.9 latency per type plus a sampled timeline of the cores guaranteed
// to each type.
//
// Paper shape: after each phase flip the profiler re-converges within
// ~500 ms. Phase plan (service time µs @ ratio):
//   P1  A:100@50%  B:1@50%    → B gets 1 core + 13 stealable, A gets 13
//   P2  A:1@50%    B:100@50%  → swapped (misclassification stress)
//   P3  A:1@94%    B:100@6%   → A's demand rises to 2 cores (rate scaled to
//                               hold 80% utilisation)
//   P4  A:1@100%              → no update needed: A already steals all
//                               cores; pending B requests drain on the
//                               spillway core
#include <cstdio>

#include "bench/bench_util.h"

namespace psp {
namespace bench {
namespace {

constexpr uint32_t kWorkers = 14;
constexpr double kUtil = 0.80;

void PrintTimeline(const ClusterEngine& engine) {
  Table table({"t_ms", "A_p999_us", "B_p999_us", "A_count", "B_count"});
  const auto series_a = engine.metrics().TimeSeries(1);
  const auto series_b = engine.metrics().TimeSeries(2);
  size_t bi = 0;
  for (const auto& bucket : series_a) {
    while (bi < series_b.size() && series_b[bi].start < bucket.start) {
      ++bi;
    }
    const bool has_b =
        bi < series_b.size() && series_b[bi].start == bucket.start;
    table.AddRow({std::to_string(bucket.start / kMillisecond),
                  FmtMicros(bucket.p999_latency),
                  has_b ? FmtMicros(series_b[bi].p999_latency) : "-",
                  std::to_string(bucket.count),
                  has_b ? std::to_string(series_b[bi].count) : "0"});
  }
  table.Print();
}

void Main() {
  const WorkloadSpec workload = FourPhaseAdaptation(2 * kSecond);
  const double rate = kUtil * workload.PeakLoadRps(kWorkers);
  std::printf("Figure 7: 4-phase adaptation at 80%% utilisation "
              "(phase length %lld ms, base rate %.0f kRPS; phases 3-4 scale "
              "it %.1fx)\n\n",
              static_cast<long long>(workload.phases[0].duration /
                                     kMillisecond),
              rate / 1e3, workload.phases[2].load_scale);

  ClusterConfig config = TestbedConfig(kWorkers, rate);
  config.duration = 4 * workload.phases[0].duration;
  config.warmup_fraction = 0;  // the timeline IS the result
  config.time_series_bucket = 100 * kMillisecond;
  // Continuous observability: the windowed recorder captures the same
  // dynamics machine-readably (per-type rates, queue depths, reserved shares,
  // windowed slowdowns); the simulator samples every completion so the series
  // is bit-deterministic for the seed.
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 100 * kMillisecond;
  config.telemetry.timeseries.slowdown_sample_every = 1;

  // --- DARC with live profiling --------------------------------------------
  PersephoneOptions options;
  options.scheduler.mode = PolicyMode::kDarc;
  options.seed_profiles = false;
  options.scheduler.profiler.min_window_samples = 20000;
  options.scheduler.profiler.slo_slowdown = 10.0;

  {
    ClusterEngine engine(workload, config,
                         std::make_unique<PersephonePolicy>(options));
    auto& darc = static_cast<PersephonePolicy&>(engine.policy());

    // Sample guaranteed cores every 250 ms of simulated time (the second row
    // of the paper's figure).
    struct CoreSample {
      Nanos t;
      uint32_t a;
      uint32_t b;
      uint64_t updates;
    };
    std::vector<CoreSample> core_timeline;
    for (Nanos t = 250 * kMillisecond; t <= config.duration;
         t += 250 * kMillisecond) {
      engine.sim().ScheduleAt(t, [t, &darc, &core_timeline] {
        const auto& s = darc.scheduler();
        core_timeline.push_back(
            CoreSample{t, s.reserved_workers_of(s.ResolveType(1)),
                       s.reserved_workers_of(s.ResolveType(2)),
                       s.reservation_updates()});
      });
    }
    engine.Run();

    std::printf("DARC: p99.9 latency per 100ms bucket\n");
    PrintTimeline(engine);

    std::printf("\nDARC: guaranteed cores over time (update events where the "
                "counter steps)\n");
    Table cores({"t_ms", "A_cores", "B_cores", "updates"});
    for (const auto& sample : core_timeline) {
      cores.AddRow({std::to_string(sample.t / kMillisecond),
                    std::to_string(sample.a), std::to_string(sample.b),
                    std::to_string(sample.updates)});
    }
    cores.Print();

    // The structured reservation-update series: every applied reservation,
    // stamped with virtual time and the profiler window that triggered it —
    // the exact moments the core timeline above only samples.
    std::printf("\nDARC: reservation-update events (structured series)\n");
    Table updates({"t_ms", "seq", "window", "A_cores", "B_cores"});
    for (const ReservationUpdate& u : engine.telemetry().reservation_updates()) {
      uint32_t a = 0;
      uint32_t b = 0;
      for (const ReservationShare& share : u.shares) {
        if (share.name == "A") {
          a = share.reserved_workers;
        } else if (share.name == "B") {
          b = share.reserved_workers;
        }
      }
      updates.AddRow({std::to_string(u.at / kMillisecond),
                      std::to_string(u.seq), std::to_string(u.window),
                      std::to_string(a), std::to_string(b)});
    }
    updates.Print();
    std::printf("\n");
  }

  // --- c-FCFS baseline -------------------------------------------------------
  {
    ClusterEngine engine(workload, config, MakePspCFcfs());
    engine.Run();
    std::printf("c-FCFS (baseline): p99.9 latency per 100ms bucket\n");
    PrintTimeline(engine);
  }
}

}  // namespace
}  // namespace bench
}  // namespace psp

int main() {
  psp::bench::Main();
  return 0;
}
