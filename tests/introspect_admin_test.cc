// End-to-end admin plane tests: a real AdminServer on an ephemeral loopback
// port (and UDS), scraped over actual sockets; then the full runtime with
// the endpoint enabled — counters move between scrapes, the outlier ring
// serves its JSON and the profiler routes arm and disarm a capture.
#include "src/introspect/admin.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "src/apps/synthetic.h"
#include "src/introspect/prometheus.h"
#include "src/runtime/loadgen.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace {

// Minimal HTTP client against 127.0.0.1:`port`; returns the status line +
// full response, or "" on transport failure.
std::string HttpRequest(uint16_t port, const std::string& method,
                        const std::string& path,
                        const std::string& body = "") {
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
  const std::string req = method + " " + path +
                          " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::write(fd, req.data() + sent, req.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

int Status(const std::string& response) {
  if (response.compare(0, 5, "HTTP/") != 0) {
    return -1;
  }
  return std::atoi(response.c_str() + response.find(' ') + 1);
}

TEST(AdminServer, ServesMetricsSnapshotAndHealth) {
  AdminConfig config;
  config.enabled = true;  // port 0 = ephemeral
  AdminHooks hooks;
  hooks.snapshot = [] {
    TelemetrySnapshot snap;
    snap.counters["test.counter"] = 5;
    return snap;
  };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpRequest(server.port(), "GET", "/metrics");
  EXPECT_EQ(Status(metrics), 200);
  EXPECT_NE(Body(metrics).find("psp_test_counter_total 5"),
            std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);

  const std::string snapshot =
      HttpRequest(server.port(), "GET", "/snapshot.json");
  EXPECT_EQ(Status(snapshot), 200);
  EXPECT_NE(Body(snapshot).find("\"test.counter\""), std::string::npos);

  const std::string timeseries =
      HttpRequest(server.port(), "GET", "/timeseries.json");
  EXPECT_EQ(Status(timeseries), 200);

  const std::string health = HttpRequest(server.port(), "GET", "/healthz");
  EXPECT_EQ(Status(health), 200);
  EXPECT_EQ(Body(health), "ok\n");

  // Unknown path and unhooked endpoints.
  EXPECT_EQ(Status(HttpRequest(server.port(), "GET", "/nope")), 404);
  EXPECT_EQ(Status(HttpRequest(server.port(), "GET", "/outliers.json")), 404);
  EXPECT_EQ(Status(HttpRequest(server.port(), "POST", "/profile/start")),
            501);
  EXPECT_EQ(Status(HttpRequest(server.port(), "PUT", "/metrics")), 405);
  EXPECT_GE(server.requests_served(), 8u);
  server.Stop();
  EXPECT_FALSE(server.running());
}

// The 405 body echoes the caller's method as a JSON string: control bytes
// from outside the process must arrive escaped, not raw.
TEST(AdminServer, MethodNotAllowedBodyEscapesMethod) {
  AdminConfig config;
  config.enabled = true;
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  AdminServer server(config, std::move(hooks));
  ASSERT_EQ(server.Start(), "");
  const std::string response = HttpRequest(server.port(), "G\tET", "/");
  EXPECT_EQ(Status(response), 405);
  EXPECT_EQ(Body(response), "{\"error\":\"method not allowed: G\\tET\"}\n");
  server.Stop();
}

TEST(AdminServer, UnixDomainSocketListener) {
  AdminConfig config;
  config.enabled = true;
  config.listen_tcp = false;
  config.uds_path = ::testing::TempDir() + "/psp_admin_test.sock";
  AdminHooks hooks;
  hooks.snapshot = [] { return TelemetrySnapshot{}; };
  AdminServer server(config, hooks);
  ASSERT_EQ(server.Start(), "");
  EXPECT_EQ(server.port(), 0);  // no TCP listener

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config.uds_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, req, sizeof(req) - 1),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string response;
  char chunk[1024];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(Status(response), 200);
  server.Stop();
  // Stop removes the socket file.
  EXPECT_NE(::access(config.uds_path.c_str(), F_OK), 0);
}

// The full loop: runtime with the admin plane on, real load, two scrapes
// observing progress, outliers and a profile capture; the removed write
// routes answer 404.
TEST(AdminServer, RuntimeEndToEnd) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.telemetry.sample_every = 2;
  config.telemetry.timeseries.enabled = true;
  config.telemetry.timeseries.interval = 10 * kMillisecond;
  config.admin.enabled = true;  // ephemeral port
  config.outliers.enabled = true;
  config.outliers.k = 4;
  Persephone server(config);
  server.RegisterType(1, "SPIN", MakeSpinHandler(), FromMicros(5), 1.0);
  server.Start();
  const uint16_t port = server.admin_port();
  ASSERT_GT(port, 0);

  // Scrape an idle server: liveness marker present, exposition well formed.
  const std::string before = Body(HttpRequest(port, "GET", "/metrics"));
  EXPECT_NE(before.find("psp_up 1"), std::string::npos);

  // Arm a profile capture, then drive load.
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/profile/start?hz=499")), 200);
  // Double-arm is a 409.
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/profile/start")), 409);

  LoadGenConfig lg;
  lg.rate_rps = 4000;
  lg.total_requests = 400;
  LoadGenerator gen(&server, {MakeSpinSpec(1, "SPIN", 1.0, FromMicros(5))},
                    lg);
  gen.Run();

  // Counters moved between scrapes.
  const std::string after = Body(HttpRequest(port, "GET", "/metrics"));
  EXPECT_NE(after.find("psp_runtime_rx_packets_total 400"),
            std::string::npos)
      << after.substr(0, 2000);

  // Outliers captured with full stage breakdowns.
  const std::string outliers = Body(HttpRequest(port, "GET",
                                                "/outliers.json"));
  EXPECT_NE(outliers.find("\"name\":\"SPIN\""), std::string::npos);
  EXPECT_NE(outliers.find("\"stages\""), std::string::npos);
  EXPECT_GT(server.outliers()->offered(), 0u);

  // Stop the capture: the sample counts come back and the folded stacks
  // stay readable. Stopping again without re-arming is a 409.
  const std::string stop = HttpRequest(port, "POST", "/profile/stop");
  EXPECT_EQ(Status(stop), 200);
  EXPECT_NE(Body(stop).find("\"samples\""), std::string::npos);
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/profile/stop")), 409);
  EXPECT_EQ(Status(HttpRequest(port, "GET", "/profile.folded")), 200);

  // A capture runs until /profile/stop: a duration is refused by name, and
  // nothing is left running.
  const std::string timed = HttpRequest(port, "POST", "/profile/start?dur=1");
  EXPECT_EQ(Status(timed), 409);
  EXPECT_NE(Body(timed).find("dur"), std::string::npos);
  EXPECT_FALSE(server.cpu_sampler().running());

  // The snapshot Perfetto capture, the flight recorder and runtime config
  // are gone.
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/trace/start")), 404);
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/trace/stop")), 404);
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/flightrecorder/dump")), 404);
  EXPECT_EQ(Status(HttpRequest(port, "POST", "/config", "sampling=8")), 404);
  EXPECT_EQ(server.telemetry().sample_every(), 2u);

  server.Stop();
  // The endpoint is down after Stop().
  EXPECT_EQ(HttpRequest(port, "GET", "/healthz"), "");
}

}  // namespace
}  // namespace psp
