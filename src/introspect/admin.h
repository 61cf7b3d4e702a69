// The live admin plane: a dependency-free HTTP/1.1 endpoint served from one
// dedicated thread over loopback TCP and/or a Unix-domain socket. This is
// the *serving* side of observability — the snapshot, time series, sampled
// lifecycle records, tail-outlier ring and CPU profile become scrapeable
// while the server runs, with the polling cost kept entirely off the data
// path: a scrape assembles one snapshot on the admin thread, the hot path
// never blocks on it.
//
// Security posture: the TCP listener binds 127.0.0.1 only (never a routable
// interface) and the UDS path inherits filesystem permissions; there is no
// auth layer, so treat the endpoint as machine-local (docs/OBSERVABILITY.md,
// "Live introspection").
//
// Routes (all responses close the connection; see docs/OBSERVABILITY.md):
//   GET  /metrics              Prometheus text exposition
//   GET  /snapshot.json        full TelemetrySnapshot JSON
//   GET  /timeseries.json      time-series intervals (snapshot JSON subset)
//   GET  /outliers.json        K-slowest-per-type tail capture
//   GET  /lifecycle.json       sampled per-request lifecycle records
//   GET  /healthz              liveness probe ("ok")
//   GET  /profile.folded       collected CPU samples as folded stacks
//   POST /profile/start        arm the sampling profiler (?hz=99)
//   POST /profile/stop         disarm it (samples stay readable)
#ifndef PSP_SRC_INTROSPECT_ADMIN_H_
#define PSP_SRC_INTROSPECT_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "src/telemetry/snapshot.h"

namespace psp {

struct AdminConfig {
  bool enabled = false;
  // Loopback TCP listener. 0 = pick an ephemeral port (read it back via
  // AdminServer::port() — tests and examples print it for the scraper).
  uint16_t port = 0;
  bool listen_tcp = true;
  // Unix-domain socket path; empty = no UDS listener. A stale socket file is
  // unlinked on Start.
  std::string uds_path;

  // Empty string = valid; otherwise a description of the problem.
  std::string Validate() const;
};

// The engine side of the plane: everything the server can serve, as
// callbacks so the admin thread never reaches into engine internals
// directly. `snapshot` is required when `enabled`; the rest degrade to 404 /
// 501 when unset.
struct AdminHooks {
  // GET /metrics renders snapshot() through RenderPrometheusText.
  std::function<TelemetrySnapshot()> snapshot;
  // Default (unset): derived from snapshot() — intervals + type names only.
  std::function<std::string()> timeseries_json;
  std::function<std::string()> outliers_json;
  // GET /lifecycle.json: sampled lifecycle records with wire identity, the
  // server half of the cross-process trace join (tools/psp_tracejoin).
  // Default (unset): derived from snapshot().
  std::function<std::string()> lifecycle_json;
  // POST handlers return the response body; on failure they return "" and
  // set *error (the server answers 409 with the error text).
  // POST /profile/start receives the raw query string ("hz=99"); an error
  // covers a bad query as well as a capture already running.
  std::function<std::string(const std::string& query, std::string* error)>
      profile_start;
  std::function<std::string(std::string* error)> profile_stop;
  // GET /profile.folded: folded-stack text of the last/live capture.
  std::function<std::string()> profile_folded;
};

// Builds the /timeseries.json body from a snapshot by re-exporting only the
// interval records + type names through TelemetrySnapshot::ToJson.
std::string TimeseriesJsonFromSnapshot(const TelemetrySnapshot& snapshot);

// Builds the /lifecycle.json body: every sampled RequestTrace in the
// snapshot's rings as one record with wire identity (wire_request_id /
// client_id) and the 7 stage stamps keyed by TraceStageName. This is the
// fetchable server half of a distributed trace.
std::string LifecycleJsonFromSnapshot(const TelemetrySnapshot& snapshot);

class AdminServer {
 public:
  AdminServer(AdminConfig config, AdminHooks hooks);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds the listeners and spawns the serving thread. Returns "" on
  // success, else a description of the failure (nothing is left running).
  std::string Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound TCP port (resolves an ephemeral request); 0 when TCP is off.
  uint16_t port() const { return port_; }
  const std::string& uds_path() const { return config_.uds_path; }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void ServeLoop();
  void HandleConnection(int fd);
  // Dispatches one parsed request; fills status/content_type/body. `query`
  // is the raw query string (text after '?'), "" when absent.
  void HandleRequest(const std::string& method, const std::string& path,
                     const std::string& query, int* status,
                     std::string* content_type, std::string* response);

  AdminConfig config_;
  AdminHooks hooks_;
  int tcp_fd_ = -1;
  int uds_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_served_{0};
};

}  // namespace psp

#endif  // PSP_SRC_INTROSPECT_ADMIN_H_
