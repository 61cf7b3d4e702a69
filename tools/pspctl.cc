// pspctl: command-line client for the live introspection plane
// (src/introspect/admin.h). It speaks HTTP over its own plain POSIX socket
// client, so it exercises the endpoint the way an external scraper would;
// the exposition validator and the federation come from
// src/introspect/prometheus.h, the same code the in-process fleet page uses.
//
// Usage:
//   pspctl [--port P | --host H:P | --uds PATH] [--out FILE] [--check] CMD
//
// Commands:
//   metrics            GET /metrics   (--check validates the exposition)
//   snapshot           GET /snapshot.json
//   fleet              GET /fleet.json (fleet endpoints only; 404 elsewhere)
//   timeseries         GET /timeseries.json
//   outliers           GET /outliers.json
//   lifecycle          GET /lifecycle.json (sampled per-request records)
//   health             GET /healthz
//   trace start        POST /trace/start   (arms an on-demand capture)
//   trace stop         POST /trace/stop    (returns the trace; use --out)
//   profile [HZ [DUR]] one-shot CPU profile: POST /profile/start?hz=HZ,
//                      wait DUR seconds locally (defaults 99 Hz, 2 s),
//                      POST /profile/stop, GET /profile.folded and print
//                      the folded stacks (use --out for flamegraph.pl).
//   profile start [HZ [DUR]] | profile stop | profile folded
//                      drive the endpoints individually (start with DUR
//                      arms the server-side auto-stop).
//   flight             POST /flightrecorder/dump
//   set KEY=VALUE...   POST /config  (e.g. set sampling=64)
//   federate H:P...    scrape /metrics from N independent server processes
//                      and merge: every sample gains a server="i" label,
//                      counter families are summed into psp_fleet_*
//                      families, psp_fleet_servers counts the endpoints.
//                      --check validates the merged page.
//   checkfile FILE     run the --check exposition validator on a local file
//                      (e.g. psp_loadgen --prom output); no endpoint needed.
//
// The port defaults to $PSP_ADMIN_PORT. Exit codes: 0 success, 1 usage,
// 2 connect/transport failure, 3 HTTP error status, 4 --check failed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/introspect/prometheus.h"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string uds_path;
  std::string out_file;
  bool check = false;
};

int UsageError(const char* detail) {
  std::fprintf(stderr,
               "pspctl: %s\n"
               "usage: pspctl [--port P | --host H:P | --uds PATH] "
               "[--out FILE] [--check]\n"
               "              metrics|snapshot|fleet|timeseries|outliers|"
               "lifecycle|health|flight|trace start|stop|set K=V...\n"
               "       pspctl [endpoint flags] profile [HZ [DUR_SEC]]\n"
               "       pspctl [endpoint flags] profile start [HZ [DUR]]|"
               "stop|folded\n"
               "       pspctl [--out FILE] [--check] federate HOST:PORT...\n"
               "       pspctl checkfile FILE\n",
               detail);
  return 1;
}

int Connect(const Options& opt, std::string* error) {
  if (!opt.uds_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::strerror(errno);
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      *error = opt.uds_path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opt.port));
  if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host address: " + opt.host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = opt.host + ":" + std::to_string(opt.port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
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

// Issues one request; returns the HTTP status (or -1 on transport failure)
// and fills `body`.
int Request(const Options& opt, const std::string& method,
            const std::string& path, const std::string& payload,
            std::string* body, std::string* error) {
  const int fd = Connect(opt, error);
  if (fd < 0) {
    return -1;
  }
  std::string req = method + " " + path + " HTTP/1.1\r\nHost: " + opt.host +
                    "\r\nConnection: close\r\nContent-Length: " +
                    std::to_string(payload.size()) + "\r\n\r\n" + payload;
  if (!SendAll(fd, req)) {
    *error = "send failed";
    ::close(fd);
    return -1;
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos ||
      response.compare(0, 5, "HTTP/") != 0) {
    *error = "malformed HTTP response";
    return -1;
  }
  const size_t sp = response.find(' ');
  const int status = std::atoi(response.c_str() + sp + 1);
  *body = response.substr(header_end + 4);
  return status;
}

int Emit(const Options& opt, const std::string& body) {
  if (opt.out_file.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }
  std::ofstream out(opt.out_file, std::ios::binary);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) {
    std::fprintf(stderr, "pspctl: write %s failed\n", opt.out_file.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env = std::getenv("PSP_ADMIN_PORT")) {
    opt.port = std::atoi(env);
  }
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pspctl: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      opt.port = std::atoi(next("--port"));
    } else if (arg == "--host") {
      const std::string hp = next("--host");
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        return UsageError("--host expects HOST:PORT");
      }
      opt.host = hp.substr(0, colon);
      opt.port = std::atoi(hp.c_str() + colon + 1);
    } else if (arg == "--uds") {
      opt.uds_path = next("--uds");
    } else if (arg == "--out") {
      opt.out_file = next("--out");
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--help" || arg == "-h") {
      UsageError("help");
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    return UsageError("missing command");
  }

  // Commands with their own endpoint story come first: checkfile is purely
  // local, federate names its endpoints as positional HOST:PORT arguments.
  if (args[0] == "checkfile") {
    if (args.size() != 2) {
      return UsageError("checkfile expects exactly one FILE argument");
    }
    std::ifstream in(args[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "pspctl: cannot read %s\n", args[1].c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (const std::string problem = psp::CheckExposition(ss.str());
        !problem.empty()) {
      std::fprintf(stderr, "pspctl: %s: malformed exposition: %s\n",
                   args[1].c_str(), problem.c_str());
      return 4;
    }
    return 0;
  }
  if (args[0] == "federate") {
    if (args.size() < 2) {
      return UsageError("federate expects one or more HOST:PORT arguments");
    }
    std::vector<std::string> pages;
    for (size_t i = 1; i < args.size(); ++i) {
      const size_t colon = args[i].rfind(':');
      if (colon == std::string::npos) {
        return UsageError(("federate endpoint is not HOST:PORT: " + args[i])
                              .c_str());
      }
      Options endpoint;
      endpoint.host = args[i].substr(0, colon);
      endpoint.port = std::atoi(args[i].c_str() + colon + 1);
      if (endpoint.port <= 0) {
        return UsageError(("bad port in endpoint: " + args[i]).c_str());
      }
      std::string body;
      std::string error;
      const int status =
          Request(endpoint, "GET", "/metrics", "", &body, &error);
      if (status < 0) {
        std::fprintf(stderr, "pspctl: %s: %s\n", args[i].c_str(),
                     error.c_str());
        return 2;
      }
      if (status >= 400) {
        std::fprintf(stderr, "pspctl: %s: HTTP %d\n", args[i].c_str(), status);
        return 3;
      }
      pages.push_back(std::move(body));
    }
    const std::string merged = psp::FederateMetrics(pages);
    if (opt.check) {
      if (const std::string problem = psp::CheckExposition(merged);
          !problem.empty()) {
        std::fprintf(stderr, "pspctl: malformed federated exposition: %s\n",
                     problem.c_str());
        return 4;
      }
    }
    return Emit(opt, merged);
  }

  if (opt.uds_path.empty() && opt.port <= 0) {
    return UsageError("no endpoint: pass --port/--host/--uds or set "
                      "PSP_ADMIN_PORT");
  }

  if (args[0] == "profile") {
    // Sub-forms that map to a single endpoint fall through to the generic
    // request path below; the argument-less / numeric form is the one-shot
    // capture loop (start -> local wait -> stop -> fetch folded stacks).
    auto one_request = [&](const std::string& method, const std::string& path,
                           std::string* body) -> int {
      std::string error;
      const int status = Request(opt, method, path, "", body, &error);
      if (status < 0) {
        std::fprintf(stderr, "pspctl: %s\n", error.c_str());
        return 2;
      }
      if (status >= 400) {
        std::fprintf(stderr, "pspctl: %s: HTTP %d: %s", path.c_str(), status,
                     body->c_str());
        return 3;
      }
      return 0;
    };
    std::string body;
    if (args.size() >= 2 && args[1] == "stop") {
      if (const int rc = one_request("POST", "/profile/stop", &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    if (args.size() >= 2 && args[1] == "folded") {
      if (const int rc = one_request("GET", "/profile.folded", &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    const bool explicit_start = args.size() >= 2 && args[1] == "start";
    const size_t num_begin = explicit_start ? 2 : 1;
    double hz = 99.0;
    double dur_sec = 2.0;
    bool dur_given = false;
    if (args.size() > num_begin) {
      hz = std::atof(args[num_begin].c_str());
    }
    if (args.size() > num_begin + 1) {
      dur_sec = std::atof(args[num_begin + 1].c_str());
      dur_given = true;
    }
    if (hz < 1 || hz > 10000 || dur_sec < 0 || dur_sec > 3600) {
      return UsageError("profile expects HZ in [1,10000], DUR in [0,3600]");
    }
    std::string start_path =
        "/profile/start?hz=" + std::to_string(static_cast<int>(hz));
    if (explicit_start) {
      // Explicit start hands the stop to the server-side auto-stop timer
      // (when DUR is given) or to a later `pspctl profile stop`.
      if (dur_given) {
        start_path += "&dur=" + std::to_string(dur_sec);
      }
      if (const int rc = one_request("POST", start_path, &body)) {
        return rc;
      }
      return Emit(opt, body);
    }
    // One-shot: no server-side dur — this process owns the stop, so the
    // explicit /profile/stop below can never race an auto-stop into a 409.
    if (const int rc = one_request("POST", start_path, &body)) {
      return rc;
    }
    std::fprintf(stderr, "pspctl: profiling at %d Hz for %.1f s...\n",
                 static_cast<int>(hz), dur_sec);
    timespec wait{};
    wait.tv_sec = static_cast<time_t>(dur_sec);
    wait.tv_nsec =
        static_cast<long>((dur_sec - std::floor(dur_sec)) * 1e9);
    while (::nanosleep(&wait, &wait) != 0 && errno == EINTR) {
    }
    if (const int rc = one_request("POST", "/profile/stop", &body)) {
      return rc;
    }
    std::fprintf(stderr, "pspctl: %s\n", body.c_str());
    if (const int rc = one_request("GET", "/profile.folded", &body)) {
      return rc;
    }
    return Emit(opt, body);
  }

  const std::string& cmd = args[0];
  std::string method = "GET";
  std::string path;
  std::string payload;
  if (cmd == "metrics") {
    path = "/metrics";
  } else if (cmd == "snapshot") {
    path = "/snapshot.json";
  } else if (cmd == "fleet") {
    path = "/fleet.json";
  } else if (cmd == "timeseries") {
    path = "/timeseries.json";
  } else if (cmd == "outliers") {
    path = "/outliers.json";
  } else if (cmd == "lifecycle") {
    path = "/lifecycle.json";
  } else if (cmd == "health") {
    path = "/healthz";
  } else if (cmd == "flight") {
    method = "POST";
    path = "/flightrecorder/dump";
  } else if (cmd == "trace") {
    if (args.size() != 2 || (args[1] != "start" && args[1] != "stop")) {
      return UsageError("trace expects 'start' or 'stop'");
    }
    method = "POST";
    path = "/trace/" + args[1];
  } else if (cmd == "set") {
    if (args.size() < 2) {
      return UsageError("set expects KEY=VALUE arguments");
    }
    method = "POST";
    path = "/config";
    for (size_t i = 1; i < args.size(); ++i) {
      payload += args[i];
      payload += '\n';
    }
  } else {
    return UsageError(("unknown command: " + cmd).c_str());
  }

  std::string body;
  std::string error;
  const int status = Request(opt, method, path, payload, &body, &error);
  if (status < 0) {
    std::fprintf(stderr, "pspctl: %s\n", error.c_str());
    return 2;
  }
  if (status >= 400) {
    std::fprintf(stderr, "pspctl: HTTP %d: %s", status, body.c_str());
    return 3;
  }
  if (opt.check && cmd == "metrics") {
    if (const std::string problem = psp::CheckExposition(body);
        !problem.empty()) {
      std::fprintf(stderr, "pspctl: malformed exposition: %s\n",
                   problem.c_str());
      return 4;
    }
  }
  return Emit(opt, body);
}
