// Scrape-under-load bench: the admin plane must be able to serve a 10 Hz
// Prometheus scraper without disturbing the data path. Runs the same
// open-loop spin workload against a live runtime in interleaved rounds —
// scraper idle vs. scraping GET /metrics every 100 ms — and compares the
// client-observed p99 (min across rounds per variant, robust to shared-box
// noise the same way micro_telemetry's min-of-batches is). Acceptance: the
// scraped p99 stays within 5% of baseline.
//
// `scripts/check.sh bench` runs it and fails on any non-zero exit.
// Exit codes: 0 ok, 1 gate breach, 2 operational failure (no scrapes landed
// or malformed exposition).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>

#include "src/apps/synthetic.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace {

constexpr uint64_t kRequests = 20000;  // per round
constexpr int kRounds = 5;             // per variant

// Minimal blocking GET against the loopback admin port; returns the body or
// "" on failure.
std::string ScrapeMetrics(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  if (::write(fd, req, sizeof(req) - 1) !=
      static_cast<ssize_t>(sizeof(req) - 1)) {
    ::close(fd);
    return "";
  }
  std::string response;
  char chunk[8192];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

int Main() {
  RuntimeConfig config;
  config.num_workers = 2;
  config.telemetry.sample_every = 64;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 50 * kMillisecond;
  config.admin.enabled = true;  // ephemeral loopback port
  config.outliers.enabled = true;
  config.outliers.k = 8;
  Persephone server(config);
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();
  const uint16_t port = server.admin_port();

  // 10 Hz scraper, gated by `armed` so the idle variant shares the thread's
  // scheduling footprint and differs only in the scrapes themselves.
  std::atomic<bool> armed{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> bad_scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!armed.load(std::memory_order_acquire)) {
        continue;
      }
      const std::string body = ScrapeMetrics(port);
      if (body.find("psp_up 1") != std::string::npos) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      } else {
        bad_scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  auto run_round = [&](bool scraped, uint64_t seed) {
    armed.store(scraped, std::memory_order_release);
    LoadGenConfig lg;
    lg.rate_rps = 20000;
    lg.total_requests = kRequests;
    lg.seed = seed;
    LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(5))},
                      lg);
    const LoadGenReport report = gen.Run();
    armed.store(false, std::memory_order_release);
    return static_cast<double>(report.overall.Percentile(0.99));
  };

  // Warm-up round (TSC calibration, allocator, code paths) — not measured.
  run_round(false, 1);

  double base_p99 = 1e18;
  double scraped_p99 = 1e18;
  for (int round = 0; round < kRounds; ++round) {
    base_p99 = std::min(base_p99,
                        run_round(false, 100 + static_cast<uint64_t>(round)));
    scraped_p99 = std::min(
        scraped_p99, run_round(true, 200 + static_cast<uint64_t>(round)));
  }

  stop.store(true, std::memory_order_release);
  scraper.join();
  server.Stop();

  const double delta_pct = (scraped_p99 - base_p99) / base_p99 * 100.0;
  const uint64_t total_scrapes = scrapes.load();
  const uint64_t failed = bad_scrapes.load();

  std::printf("# scrape-under-load, %d rounds x %" PRIu64
              " requests per variant, 10 Hz GET /metrics\n",
              kRounds, kRequests);
  std::printf("%-24s %10.0f ns\n", "p99 (scraper idle)", base_p99);
  std::printf("%-24s %10.0f ns  (delta %+.2f%%)\n", "p99 (10 Hz scrape)",
              scraped_p99, delta_pct);
  std::printf("%-24s %10" PRIu64 " ok, %" PRIu64 " failed\n", "scrapes",
              total_scrapes, failed);

  if (total_scrapes == 0 || failed > 0) {
    std::printf("scrape-check: FAIL (%" PRIu64 " ok, %" PRIu64 " failed)\n",
                total_scrapes, failed);
    return 2;
  }
  const bool ok = delta_pct < 5.0;
  std::printf("scrape-overhead-check: %s (%+.2f%% < 5%%)\n",
              ok ? "PASS" : "FAIL", delta_pct);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace psp

int main() { return psp::Main(); }
