#include "src/introspect/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/common/json_escape.h"
#include "src/introspect/prometheus.h"
#include "src/telemetry/snapshot.h"

namespace psp {
namespace {

// Header block is small by construction (pspctl / curl); body is bounded so
// a misbehaving client cannot balloon the admin thread.
constexpr size_t kMaxHeaderBytes = 16 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024;

const char* StatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 501:
      return "Not Implemented";
    default:
      return "Error";
  }
}

void SetIoTimeouts(int fd) {
  struct timeval tv;
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// Splits "a=b" into key/value; returns false when '=' is missing.
bool SplitKeyValue(const std::string& line, std::string* key,
                   std::string* value) {
  const size_t eq = line.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  *key = line.substr(0, eq);
  *value = line.substr(eq + 1);
  return true;
}

}  // namespace

std::string AdminConfig::Validate() const {
  if (!enabled) {
    return "";
  }
  if (!listen_tcp && uds_path.empty()) {
    return "admin: enabled but no listener (listen_tcp false, uds_path empty)";
  }
  if (!uds_path.empty() && uds_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return "admin: uds_path too long for sockaddr_un";
  }
  return "";
}

std::string TimeseriesJsonFromSnapshot(const TelemetrySnapshot& snapshot) {
  TelemetrySnapshot trimmed;
  trimmed.timeseries = snapshot.timeseries;
  trimmed.type_names = snapshot.type_names;
  return trimmed.ToJson();
}

std::string LifecycleJsonFromSnapshot(const TelemetrySnapshot& snapshot) {
  std::string out = "{\"traces\":[";
  bool first = true;
  for (const RequestTrace& t : snapshot.traces) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"request_id\":" + std::to_string(t.request_id) +
           ",\"type\":" + std::to_string(t.type);
    const auto name = snapshot.type_names.find(t.type);
    if (name != snapshot.type_names.end()) {
      out += ",\"type_name\":\"" + JsonEscape(name->second) + "\"";
    }
    out += ",\"worker\":" + std::to_string(t.worker) +
           ",\"wire_request_id\":" + std::to_string(t.wire_request_id) +
           ",\"client_id\":" + std::to_string(t.client_id) + ",\"stamps\":{";
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      if (i > 0) {
        out += ',';
      }
      out += '"';
      out += TraceStageName(static_cast<TraceStage>(i));
      out += "\":" + std::to_string(t.stamp[i]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

AdminServer::AdminServer(AdminConfig config, AdminHooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {}

AdminServer::~AdminServer() { Stop(); }

std::string AdminServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return "admin: already running";
  }
  const std::string err = config_.Validate();
  if (!err.empty()) {
    return err;
  }
  if (!hooks_.snapshot) {
    return "admin: snapshot hook is required";
  }

  if (config_.listen_tcp) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      return std::string("admin: socket: ") + std::strerror(errno);
    }
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a routable iface
    addr.sin_port = htons(config_.port);
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const std::string msg =
          std::string("admin: bind 127.0.0.1:") +
          std::to_string(config_.port) + ": " + std::strerror(errno);
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      return msg;
    }
    if (::listen(tcp_fd_, 16) < 0) {
      const std::string msg =
          std::string("admin: listen: ") + std::strerror(errno);
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      return msg;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      port_ = ntohs(bound.sin_port);
    }
  }

  if (!config_.uds_path.empty()) {
    uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (uds_fd_ < 0) {
      const std::string msg =
          std::string("admin: unix socket: ") + std::strerror(errno);
      Stop();
      return msg;
    }
    ::unlink(config_.uds_path.c_str());  // drop a stale socket file
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(uds_fd_, 16) < 0) {
      const std::string msg = std::string("admin: bind ") + config_.uds_path +
                              ": " + std::strerror(errno);
      Stop();
      return msg;
    }
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return "";
}

void AdminServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (uds_fd_ >= 0) {
    ::close(uds_fd_);
    uds_fd_ = -1;
    ::unlink(config_.uds_path.c_str());
  }
  port_ = 0;
  running_.store(false, std::memory_order_release);
}

void AdminServer::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    nfds_t nfds = 0;
    if (tcp_fd_ >= 0) {
      fds[nfds].fd = tcp_fd_;
      fds[nfds].events = POLLIN;
      fds[nfds].revents = 0;
      ++nfds;
    }
    if (uds_fd_ >= 0) {
      fds[nfds].fd = uds_fd_;
      fds[nfds].events = POLLIN;
      fds[nfds].revents = 0;
      ++nfds;
    }
    // Short poll timeout so Stop() is observed promptly even when idle.
    const int ready = ::poll(fds, nfds, /*timeout_ms=*/100);
    if (ready <= 0) {
      continue;
    }
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) {
        continue;
      }
      SetIoTimeouts(client);
      HandleConnection(client);
      ::close(client);
    }
  }
}

void AdminServer::HandleConnection(int fd) {
  // Read the header block.
  std::string buf;
  size_t header_end = std::string::npos;
  char chunk[4096];
  while (buf.size() < kMaxHeaderBytes) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      break;
    }
  }
  if (header_end == std::string::npos) {
    return;  // malformed or truncated; nothing sensible to answer
  }

  // Request line: METHOD SP PATH SP VERSION.
  const size_t line_end = buf.find("\r\n");
  const std::string request_line = buf.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    status = 400;
    response = "malformed request line\n";
  } else {
    const std::string method = request_line.substr(0, sp1);
    std::string path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string query;
    const size_t query_pos = path.find('?');
    if (query_pos != std::string::npos) {
      query = path.substr(query_pos + 1);
      path.resize(query_pos);
    }

    // Content-Length, case-insensitive scan of the header block.
    size_t content_length = 0;
    {
      size_t pos = line_end + 2;
      while (pos < header_end) {
        size_t eol = buf.find("\r\n", pos);
        if (eol == std::string::npos || eol > header_end) {
          eol = header_end;
        }
        const std::string line = buf.substr(pos, eol - pos);
        const size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::string key = line.substr(0, colon);
          for (char& c : key) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
          if (key == "content-length") {
            content_length = static_cast<size_t>(
                std::strtoul(line.c_str() + colon + 1, nullptr, 10));
          }
        }
        pos = eol + 2;
      }
    }

    std::string body;
    if (content_length > kMaxBodyBytes) {
      status = 400;
      response = "body too large\n";
    } else {
      body = buf.substr(header_end + 4);
      while (body.size() < content_length) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
          if (n < 0 && errno == EINTR) {
            continue;
          }
          break;
        }
        body.append(chunk, static_cast<size_t>(n));
      }
      if (body.size() < content_length) {
        status = 400;
        response = "truncated body\n";
      } else {
        body.resize(content_length);
        HandleRequest(method, path, query, body, &status, &content_type,
                      &response);
      }
    }
  }

  requests_served_.fetch_add(1, std::memory_order_relaxed);
  std::string head = "HTTP/1.1 " + std::to_string(status) + ' ' +
                     StatusReason(status) + "\r\nContent-Type: " +
                     content_type + "\r\nContent-Length: " +
                     std::to_string(response.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (WriteAll(fd, head.data(), head.size())) {
    WriteAll(fd, response.data(), response.size());
  }
  ::shutdown(fd, SHUT_WR);
  // Drain until the peer closes so its final read never sees a reset.
  while (::read(fd, chunk, sizeof(chunk)) > 0) {
  }
}

void AdminServer::HandleRequest(const std::string& method,
                                const std::string& path,
                                const std::string& query,
                                const std::string& body, int* status,
                                std::string* content_type,
                                std::string* response) {
  const auto not_wired = [&](const char* what) {
    *status = 501;
    *response = std::string(what) + " not wired on this endpoint\n";
  };
  const auto run_post = [&](const std::function<std::string(std::string*)>& fn,
                            const char* what, const char* type) {
    if (!fn) {
      not_wired(what);
      return;
    }
    std::string error;
    std::string out = fn(&error);
    if (!error.empty()) {
      *status = 409;
      *response = error + "\n";
      return;
    }
    *content_type = type;
    *response = std::move(out);
  };

  if (method == "GET") {
    if (path == "/metrics") {
      *content_type = "text/plain; version=0.0.4; charset=utf-8";
      *response = hooks_.metrics_text ? hooks_.metrics_text()
                                      : RenderPrometheusText(hooks_.snapshot());
      return;
    }
    if (path == "/fleet.json") {
      if (!hooks_.fleet_json) {
        *status = 404;
        *response = "not a fleet endpoint\n";
        return;
      }
      *content_type = "application/json";
      *response = hooks_.fleet_json();
      return;
    }
    if (path == "/snapshot.json") {
      *content_type = "application/json";
      *response = hooks_.snapshot().ToJson();
      return;
    }
    if (path == "/timeseries.json") {
      *content_type = "application/json";
      *response = hooks_.timeseries_json
                      ? hooks_.timeseries_json()
                      : TimeseriesJsonFromSnapshot(hooks_.snapshot());
      return;
    }
    if (path == "/lifecycle.json") {
      *content_type = "application/json";
      *response = hooks_.lifecycle_json
                      ? hooks_.lifecycle_json()
                      : LifecycleJsonFromSnapshot(hooks_.snapshot());
      return;
    }
    if (path == "/outliers.json") {
      if (!hooks_.outliers_json) {
        *status = 404;
        *response = "outlier capture not enabled\n";
        return;
      }
      *content_type = "application/json";
      *response = hooks_.outliers_json();
      return;
    }
    if (path == "/profile.folded") {
      if (!hooks_.profile_folded) {
        *status = 404;
        *response = "profiler not wired on this endpoint\n";
        return;
      }
      *response = hooks_.profile_folded();
      return;
    }
    if (path == "/healthz") {
      *response = "ok\n";
      return;
    }
    *status = 404;
    *response = "unknown path: " + path + "\n";
    return;
  }

  if (method == "POST") {
    if (path == "/trace/start") {
      run_post(hooks_.trace_start, "trace capture",
               "application/json");
      return;
    }
    if (path == "/trace/stop") {
      run_post(hooks_.trace_stop, "trace capture", "application/json");
      return;
    }
    if (path == "/flightrecorder/dump") {
      run_post(hooks_.flight_dump, "flight recorder",
               "text/plain; charset=utf-8");
      return;
    }
    if (path == "/profile/start") {
      if (!hooks_.profile_start) {
        not_wired("profiler");
        return;
      }
      run_post(
          [this, &query](std::string* error) {
            return hooks_.profile_start(query, error);
          },
          "profiler", "application/json");
      return;
    }
    if (path == "/profile/stop") {
      run_post(hooks_.profile_stop, "profiler", "application/json");
      return;
    }
    if (path == "/config") {
      if (!hooks_.set_config) {
        not_wired("runtime config");
        return;
      }
      // Body: one key=value per line ('&' also accepted as a separator so a
      // urlencoded-style body works).
      size_t applied = 0;
      size_t pos = 0;
      while (pos <= body.size()) {
        size_t end = body.find_first_of("\n&", pos);
        if (end == std::string::npos) {
          end = body.size();
        }
        std::string line = body.substr(pos, end - pos);
        pos = end + 1;
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
          line.pop_back();
        }
        if (line.empty()) {
          continue;
        }
        std::string key, value;
        if (!SplitKeyValue(line, &key, &value)) {
          *status = 400;
          *response = "expected key=value, got: " + line + "\n";
          return;
        }
        const std::string error = hooks_.set_config(key, value);
        if (!error.empty()) {
          *status = 400;
          *response = error + "\n";
          return;
        }
        ++applied;
      }
      if (applied == 0) {
        *status = 400;
        *response = "empty config body\n";
        return;
      }
      *content_type = "application/json";
      *response =
          "{\"ok\":true,\"applied\":" + std::to_string(applied) + "}\n";
      return;
    }
    *status = 404;
    *response = "unknown path: " + path + "\n";
    return;
  }

  *status = 405;
  *response =
      "{\"error\":\"" + JsonEscape("method not allowed: " + method) +
      "\"}\n";
}

}  // namespace psp
