// psp_loadgen: external UDP load generator for a Perséphone server running
// the socket ingress (IngressMode::kUdp). Open-loop Poisson arrivals of typed
// spin requests; reports client-observed RTT percentiles per type.
//
// Two-terminal quickstart (see README.md):
//   terminal 1:  ./examples/udp_server --port 9042
//   terminal 2:  ./tools/psp_loadgen --port 9042 --rate 2000 --requests 5000
//
// Request mix: repeat --type id:NAME:ratio:spin_us (default 1:SHORT:0.9:5
// plus 2:LONG:0.1:200, the paper's high-bimodal shape scaled down). The spin
// duration rides the payload, matching the synthetic app's handler.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/json_escape.h"
#include "src/common/time.h"
#include "src/introspect/prometheus.h"
#include "src/net/udp_loadgen.h"

namespace {

struct TypeArg {
  uint32_t wire_id;
  std::string name;
  double ratio;
  double spin_us;
  uint32_t deadline_us = 0;  // 0 = no deadline
};

// --deadline-us NAME:N — looked up against the --type names after parsing.
struct DeadlineArg {
  std::string type_name;
  uint32_t budget_us;
};

bool ParseDeadlineArg(const std::string& arg, DeadlineArg* out) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= arg.size()) {
    return false;
  }
  char* end = nullptr;
  const long budget = std::strtol(arg.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || budget <= 0 || budget > INT32_MAX) {
    return false;
  }
  out->type_name = arg.substr(0, colon);
  out->budget_us = static_cast<uint32_t>(budget);
  return true;
}

bool ParseTypeArg(const std::string& arg, TypeArg* out) {
  // id:NAME:ratio:spin_us
  unsigned id = 0;
  char name[64] = {0};
  double ratio = 0;
  double spin_us = 0;
  if (std::sscanf(arg.c_str(), "%u:%63[^:]:%lf:%lf", &id, name, &ratio,
                  &spin_us) != 4 ||
      ratio <= 0 || spin_us < 0) {
    return false;
  }
  *out = TypeArg{id, name, ratio, spin_us};
  return true;
}

psp::UdpRequestSpec SpinSpec(const TypeArg& t) {
  psp::UdpRequestSpec spec;
  spec.wire_id = t.wire_id;
  spec.name = t.name;
  spec.ratio = t.ratio;
  spec.deadline_us = t.deadline_us;
  const psp::Nanos spin = psp::FromMicros(t.spin_us);
  spec.build_payload = [spin](std::byte* payload, uint32_t capacity,
                              psp::Rng&) -> uint32_t {
    if (capacity < sizeof(psp::Nanos)) {
      return 0;
    }
    std::memcpy(payload, &spin, sizeof(spin));
    return sizeof(spin);
  };
  return spec;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [--host H] [--rate RPS] [--requests N] [--seed S]\n"
      "          [--flows F] [--type id:NAME:ratio:spin_us]... [--json]\n"
      "          [--sample N] [--prom FILE] [--deadline-us NAME:N]...\n"
      "Sends an open-loop Poisson stream of typed spin requests to a\n"
      "Persephone UDP server and reports client-observed RTTs.\n"
      "--flows F uses F client sockets (distinct source ports) so a\n"
      "reuseport server spreads the flows across its net-worker shards.\n"
      "--sample N marks every Nth request for distributed tracing (the\n"
      "server echoes its rx/tx stamps); sampled per-request records land in\n"
      "the --json report, and --prom FILE writes the psp_net_* network-time\n"
      "decomposition as Prometheus text exposition.\n"
      "--deadline-us NAME:N stamps an N-microsecond latency budget into the\n"
      "wire header of every NAME request (the server's deadline tier turns\n"
      "it into an absolute deadline at ingress) and reports client-observed\n"
      "deadline misses per type.\n",
      argv0);
  return 2;
}

// Writes the client-side network-time decomposition (sampled subset) as
// Prometheus text exposition 0.0.4: RTT, echoed server sojourn, and their
// difference (time on the wire + kernel + NIC queues), per type, as
// summaries; sample counts as a counter. Same conventions as the server's
// /metrics page so `pspctl checkfile` accepts it.
bool WriteNetProm(const char* path, const std::vector<TypeArg>& types,
                  const psp::UdpLoadGenReport& report) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  const auto summary = [&](const char* name, const char* help,
                           const std::map<uint32_t, psp::Histogram>& per_type) {
    std::fprintf(f, "# HELP %s %s\n# TYPE %s summary\n", name, help, name);
    for (const TypeArg& t : types) {
      const auto it = per_type.find(t.wire_id);
      if (it == per_type.end() || it->second.Count() == 0) {
        continue;
      }
      const psp::Histogram& h = it->second;
      const std::string type = psp::PrometheusLabelEscape(t.name);
      for (const auto& [q, p] : {std::pair<const char*, double>{"0.5", 50},
                                 {"0.99", 99},
                                 {"0.999", 99.9}}) {
        std::fprintf(f, "%s{type=\"%s\",quantile=\"%s\"} %.3f\n", name,
                     type.c_str(), q, psp::ToMicros(h.Percentile(p)));
      }
      std::fprintf(f, "%s_sum{type=\"%s\"} %.3f\n", name, type.c_str(),
                   psp::ToMicros(static_cast<psp::Nanos>(
                       h.Mean() * static_cast<double>(h.Count()))));
      std::fprintf(f, "%s_count{type=\"%s\"} %llu\n", name, type.c_str(),
                   static_cast<unsigned long long>(h.Count()));
    }
  };
  summary("psp_net_client_rtt_us",
          "Client-observed RTT per type (post-warmup requests).",
          report.latency);
  summary("psp_net_server_sojourn_us",
          "Server sojourn echoed on sampled responses (server tx - rx).",
          report.server_sojourn);
  summary("psp_net_time_us",
          "Network time: client RTT minus echoed server sojourn.",
          report.net_time);
  std::fprintf(f,
               "# HELP psp_net_samples_total Sampled trace records captured.\n"
               "# TYPE psp_net_samples_total counter\n"
               "psp_net_samples_total %llu\n",
               static_cast<unsigned long long>(report.samples.size()));
  std::fprintf(f, "psp_up 1\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  psp::UdpLoadGenConfig config;
  std::vector<TypeArg> types;
  std::vector<DeadlineArg> deadlines;
  bool json = false;
  bool have_port = false;
  const char* prom_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.port = static_cast<uint16_t>(std::atoi(v));
      have_port = true;
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.rate_rps = std::atof(v);
    } else if (arg == "--requests") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.total_requests = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--flows") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.num_flows = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--type") {
      const char* v = next();
      TypeArg t;
      if (v == nullptr || !ParseTypeArg(v, &t)) {
        std::fprintf(stderr, "bad --type '%s' (want id:NAME:ratio:spin_us)\n",
                     v == nullptr ? "" : v);
        return 2;
      }
      types.push_back(t);
    } else if (arg == "--deadline-us") {
      const char* v = next();
      DeadlineArg d;
      if (v == nullptr || !ParseDeadlineArg(v, &d)) {
        std::fprintf(stderr, "bad --deadline-us '%s' (want NAME:budget_us)\n",
                     v == nullptr ? "" : v);
        return 2;
      }
      deadlines.push_back(d);
    } else if (arg == "--sample") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.sample_every = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--prom") {
      prom_path = next();
      if (prom_path == nullptr) return Usage(argv[0]);
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_port || config.port == 0 || config.rate_rps <= 0 ||
      config.total_requests == 0 || config.num_flows == 0) {
    return Usage(argv[0]);
  }
  if (types.empty()) {
    types.push_back(TypeArg{1, "SHORT", 0.9, 5});
    types.push_back(TypeArg{2, "LONG", 0.1, 200});
  }
  for (const DeadlineArg& d : deadlines) {
    bool matched = false;
    for (TypeArg& t : types) {
      if (t.name == d.type_name) {
        t.deadline_us = d.budget_us;
        matched = true;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "--deadline-us %s:%u names no --type\n",
                   d.type_name.c_str(), d.budget_us);
      return 2;
    }
  }

  std::vector<psp::UdpRequestSpec> mix;
  mix.reserve(types.size());
  for (const TypeArg& t : types) {
    mix.push_back(SpinSpec(t));
  }

  psp::UdpLoadGenerator gen(std::move(mix), config);
  std::string error;
  const psp::UdpLoadGenReport report = gen.Run(&error);
  if (!error.empty()) {
    std::fprintf(stderr, "psp_loadgen: %s\n", error.c_str());
    return 1;
  }

  if (json) {
    std::printf(
        "{\"sent\":%llu,\"received\":%llu,\"send_drops\":%llu,"
        "\"achieved_rps\":%.1f,\"overall\":{\"count\":%llu,\"p50_us\":%.1f,"
        "\"p99_us\":%.1f,\"p999_us\":%.1f},\"types\":[",
        static_cast<unsigned long long>(report.sent),
        static_cast<unsigned long long>(report.received),
        static_cast<unsigned long long>(report.send_drops),
        report.AchievedRps(),
        static_cast<unsigned long long>(report.overall.Count()),
        psp::ToMicros(report.overall.Percentile(50)),
        psp::ToMicros(report.overall.Percentile(99)),
        psp::ToMicros(report.overall.Percentile(99.9)));
    bool first = true;
    for (const TypeArg& t : types) {
      const auto it = report.latency.find(t.wire_id);
      if (it == report.latency.end()) {
        continue;
      }
      std::printf(
          "%s{\"name\":\"%s\",\"wire_id\":%u,\"count\":%llu,\"p50_us\":%.1f,"
          "\"p99_us\":%.1f,\"p999_us\":%.1f",
          first ? "" : ",", psp::JsonEscape(t.name).c_str(), t.wire_id,
          static_cast<unsigned long long>(it->second.Count()),
          psp::ToMicros(it->second.Percentile(50)),
          psp::ToMicros(it->second.Percentile(99)),
          psp::ToMicros(it->second.Percentile(99.9)));
      if (t.deadline_us > 0) {
        const auto checked = report.deadline_checked.find(t.wire_id);
        const auto missed = report.deadline_missed.find(t.wire_id);
        const unsigned long long n_checked =
            checked != report.deadline_checked.end() ? checked->second : 0;
        const unsigned long long n_missed =
            missed != report.deadline_missed.end() ? missed->second : 0;
        std::printf(",\"deadline_us\":%u,\"deadline_checked\":%llu,"
                    "\"deadline_missed\":%llu,\"miss_rate_pct\":%.3f",
                    t.deadline_us, n_checked, n_missed,
                    n_checked > 0
                        ? 100.0 * static_cast<double>(n_missed) /
                              static_cast<double>(n_checked)
                        : 0.0);
      }
      std::printf("}");
      first = false;
    }
    std::printf("]");
    if (config.sample_every > 0) {
      // Per-request trace records (see docs/API.md "psp_loadgen --json").
      // Client-clock fields are ns; server stamps are the server's clock.
      std::printf(",\"sample_every\":%u,\"samples\":[", config.sample_every);
      first = true;
      for (const psp::ClientSpanRecord& s : report.samples) {
        std::printf("%s{\"request_id\":%llu,\"flow\":%u,\"wire_type\":%u,"
                    "\"due_ns\":%lld,\"send_ns\":%lld,\"recv_ns\":%lld,"
                    "\"server_rx_ns\":%lld,\"server_tx_ns\":%lld}",
                    first ? "" : ",",
                    static_cast<unsigned long long>(s.request_id), s.flow,
                    s.wire_type, static_cast<long long>(s.due_ns),
                    static_cast<long long>(s.send_ns),
                    static_cast<long long>(s.recv_ns),
                    static_cast<long long>(s.server_rx_ns),
                    static_cast<long long>(s.server_tx_ns));
        first = false;
      }
      std::printf("],\"net\":[");
      first = true;
      for (const TypeArg& t : types) {
        const auto sj = report.server_sojourn.find(t.wire_id);
        const auto nt = report.net_time.find(t.wire_id);
        if (sj == report.server_sojourn.end() || sj->second.Count() == 0) {
          continue;
        }
        std::printf(
            "%s{\"name\":\"%s\",\"wire_id\":%u,\"count\":%llu,"
            "\"sojourn_p50_us\":%.1f,\"sojourn_p99_us\":%.1f,"
            "\"net_p50_us\":%.1f,\"net_p99_us\":%.1f}",
            first ? "" : ",", psp::JsonEscape(t.name).c_str(), t.wire_id,
            static_cast<unsigned long long>(sj->second.Count()),
            psp::ToMicros(sj->second.Percentile(50)),
            psp::ToMicros(sj->second.Percentile(99)),
            nt != report.net_time.end() && nt->second.Count() > 0
                ? psp::ToMicros(nt->second.Percentile(50))
                : 0.0,
            nt != report.net_time.end() && nt->second.Count() > 0
                ? psp::ToMicros(nt->second.Percentile(99))
                : 0.0);
        first = false;
      }
      std::printf("]");
    }
    std::printf("}\n");
  } else {
    std::printf("sent %llu  received %llu  send_drops %llu  achieved %.0f rps\n",
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.received),
                static_cast<unsigned long long>(report.send_drops),
                report.AchievedRps());
    for (const TypeArg& t : types) {
      const auto it = report.latency.find(t.wire_id);
      if (it == report.latency.end() || it->second.Count() == 0) {
        continue;
      }
      std::printf("  %-8s n=%-7llu p50 %8.1f us  p99 %8.1f us  p99.9 %8.1f us",
                  t.name.c_str(),
                  static_cast<unsigned long long>(it->second.Count()),
                  psp::ToMicros(it->second.Percentile(50)),
                  psp::ToMicros(it->second.Percentile(99)),
                  psp::ToMicros(it->second.Percentile(99.9)));
      if (t.deadline_us > 0) {
        const auto checked = report.deadline_checked.find(t.wire_id);
        const auto missed = report.deadline_missed.find(t.wire_id);
        const unsigned long long n_checked =
            checked != report.deadline_checked.end() ? checked->second : 0;
        const unsigned long long n_missed =
            missed != report.deadline_missed.end() ? missed->second : 0;
        std::printf("  deadline %uus miss %llu/%llu", t.deadline_us, n_missed,
                    n_checked);
      }
      std::printf("\n");
    }
    std::printf("  %-8s n=%-7llu p50 %8.1f us  p99 %8.1f us  p99.9 %8.1f us\n",
                "ALL",
                static_cast<unsigned long long>(report.overall.Count()),
                psp::ToMicros(report.overall.Percentile(50)),
                psp::ToMicros(report.overall.Percentile(99)),
                psp::ToMicros(report.overall.Percentile(99.9)));
  }
  if (!json && config.sample_every > 0) {
    std::printf("  sampled %zu trace records (1 in %u)\n",
                report.samples.size(), config.sample_every);
  }
  if (prom_path != nullptr && !WriteNetProm(prom_path, types, report)) {
    std::fprintf(stderr, "psp_loadgen: cannot write %s\n", prom_path);
    return 1;
  }
  // A run that got nothing back is a failure for scripts (server down, wrong
  // port, firewalled loopback).
  return report.received > 0 ? 0 : 1;
}
