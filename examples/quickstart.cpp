// Quickstart: stand up a Perséphone server with DARC scheduling, register two
// request types with a classifier-friendly header protocol, drive it with the
// in-process open-loop load generator, and print client-observed latencies.
//
//   $ ./examples/quickstart [num_workers] [requests]
//
// The workload is a small High-Bimodal mix: 90% short (5 µs) and 10% long
// (200 µs) requests. DARC reserves a core for the shorts so their tail
// latency stays near service time even while longs queue.
//
// Set PSP_ADMIN=1 to serve the live introspection plane on an ephemeral
// loopback port (printed at startup; scrape it with tools/pspctl). With
// PSP_ADMIN_SERVE_MS=N the server stays up N ms after the load finishes so an
// external scraper has a window — this is what scripts/check.sh's
// `introspect` smoke step uses.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/apps/synthetic.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"

int main(int argc, char** argv) {
  const uint32_t num_workers =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 2;
  const uint64_t requests =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 2000;

  // 1. Configure the runtime: worker count and the DARC scheduler.
  psp::RuntimeConfig config;
  config.num_workers = num_workers;
  config.scheduler.mode = psp::PolicyMode::kDarc;

  // Opt-in live introspection: loopback /metrics + snapshots + outliers.
  const char* admin_env = std::getenv("PSP_ADMIN");
  const bool admin_on = admin_env != nullptr && admin_env[0] == '1';
  if (admin_on) {
    config.admin.enabled = true;  // port 0 = ephemeral, printed below
    config.outliers.enabled = true;
    config.telemetry.timeseries.enabled = true;
  }

  psp::Persephone server(config);

  // 2. Register request types. The wire id is what the classifier extracts
  //    from the request header; the seeds (expected mean service time and
  //    occurrence ratio) let DARC start with a steady-state reservation.
  server.RegisterType(/*wire_id=*/1, "SHORT", psp::MakeSpinHandler(),
                      psp::FromMicros(5), /*expected_ratio=*/0.9);
  server.RegisterType(/*wire_id=*/2, "LONG", psp::MakeSpinHandler(),
                      psp::FromMicros(200), /*expected_ratio=*/0.1);

  // 3. Start the pipeline: one net-worker/dispatcher thread + workers.
  server.Start();
  std::printf("Perséphone up: %u workers, DARC active=%s\n", num_workers,
              server.scheduler().darc_active() ? "yes" : "no");
  if (admin_on) {
    // pspctl and scripts/check.sh parse this line for the ephemeral port.
    std::printf("admin: listening on 127.0.0.1:%u\n", server.admin_port());
    std::fflush(stdout);
  }
  for (psp::TypeIndex t = 1; t < server.scheduler().num_types(); ++t) {
    std::printf("  type %-6s guaranteed cores: %u\n",
                server.scheduler().type_name(t).c_str(),
                server.scheduler().reserved_workers_of(t));
  }

  // 4. Drive it: open-loop Poisson client at a modest rate.
  psp::LoadGenConfig lg;
  lg.rate_rps = 5000;
  lg.total_requests = requests;
  psp::LoadGenerator client(
      &server,
      {psp::MakeSpinSpec(1, "SHORT", 0.9, psp::FromMicros(5)),
       psp::MakeSpinSpec(2, "LONG", 0.1, psp::FromMicros(200))},
      lg);
  const psp::LoadGenReport report = client.Run();
  // Optional post-load serve window so an external scraper can hit the
  // endpoint while the runtime is still live.
  if (const char* serve_ms = std::getenv("PSP_ADMIN_SERVE_MS");
      admin_on && serve_ms != nullptr) {
    const int ms = std::atoi(serve_ms);
    if (ms > 0) {
      std::printf("admin: serving for %d ms\n", ms);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
  server.Stop();

  // 5. Report: client-observed latency from the load generator...
  std::printf("\nsent %llu, received %llu (%.0f rps achieved)\n",
              static_cast<unsigned long long>(report.sent),
              static_cast<unsigned long long>(report.received),
              report.AchievedRps());
  for (const auto& [wire_id, hist] : report.latency) {
    if (hist.Count() == 0) {
      continue;
    }
    std::printf("  type %u: p50 %.1f us, p99 %.1f us, p99.9 %.1f us "
                "(%llu samples)\n",
                wire_id, psp::ToMicros(hist.Percentile(50)),
                psp::ToMicros(hist.Percentile(99)),
                psp::ToMicros(hist.Percentile(99.9)),
                static_cast<unsigned long long>(hist.Count()));
  }

  // ...and the server's own view through the unified telemetry snapshot:
  // every counter/gauge in one table, plus the per-stage latency breakdown
  // reconstructed from sampled lifecycle traces (rx → queueing → service →
  // tx). The same API works on the simulator (see policy_explorer).
  const psp::TelemetrySnapshot snap = server.telemetry_snapshot();
  std::printf("\n%s", snap.ToTable().c_str());
  std::printf("\n%s", snap.StageReport().c_str());
  // Per-worker occupancy from the time ledger: DARC's deliberate idling
  // shows as reserved cores that stay mostly idle.
  for (uint32_t w = 0; w < server.num_workers(); ++w) {
    const psp::WorkerTimeRecord& time = snap.worker_time[w];
    const uint64_t wall = time.WallNs();
    std::printf("  worker %u: %llu requests, %.1f%% busy\n", w,
                static_cast<unsigned long long>(snap.counter(
                    "worker." + std::to_string(w) + ".requests")),
                wall > 0 ? 100.0 * time.BusyNs() / wall : 0.0);
  }
  return 0;
}
