// psp_e2e_server: the benchmark-owned Perséphone server. One process serves
// one trial: Persephone in UDP ingress mode with the workload's workers (two,
// or one for udp-tiny), one net worker and yield polling, every engine thread
// pinned (dispatcher and net worker on core 0, workers on cores 1-2),
// configured by workload name.
//
//   psp_e2e_server --workload udp-bimodal [--trace] [--dump lifecycle.json]
//
// Protocol with psp_e2e (bench/e2e/server_process.h):
//   stdout "ready <port>"  sockets bound and every engine thread pinned
//   stdin EOF              stop serving
//   stdout, after stop     "counter <name> <value>" for every telemetry
//                          counter, "ledger <role> <slot> <ns x 6>" per
//                          time-ledger slot, then "end"
// --trace records a lifecycle trace for every request the client marks with
// the PSP trace flag (and no others), written to --dump at stop.
//
// Exit codes: 0 ok, 1 usage error or runtime failure, 2 a thread could not
// be pinned (the benchmark publishes no numbers from an unpinned layout).
#include <dirent.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench/e2e/workloads.h"
#include "src/apps/synthetic.h"
#include "src/introspect/admin.h"
#include "src/runtime/persephone.h"

namespace psp {
namespace e2e {
namespace {

// Counts this process's threads by their CPU affinity list ("0", "1-2", ...).
std::map<std::string, int> ThreadAffinities() {
  std::map<std::string, int> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    std::ifstream status(std::string("/proc/self/task/") + entry->d_name +
                         "/status");
    std::string line;
    while (std::getline(status, line)) {
      constexpr const char kKey[] = "Cpus_allowed_list:";
      if (line.compare(0, sizeof(kKey) - 1, kKey) == 0) {
        const size_t value = line.find_first_not_of(" \t", sizeof(kKey) - 1);
        ++out[value == std::string::npos ? "" : line.substr(value)];
        break;
      }
    }
  }
  closedir(dir);
  return out;
}

// The engine threads pin themselves as they start; waits (bounded) until the
// layout is dispatcher + net worker on core 0 and one worker on each of cores
// 1..workers.
bool WaitForPinnedLayout(uint32_t workers) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < deadline) {
    std::map<std::string, int> threads = ThreadAffinities();
    bool pinned = threads["0"] >= 2;
    for (uint32_t core = 1; core <= workers; ++core) {
      pinned = pinned && threads[std::to_string(core)] >= 1;
    }
    if (pinned) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

int Main(int argc, char** argv) {
  const UdpWorkload* workload = nullptr;
  bool trace = false;
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = FindUdpWorkload(argv[++i]);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_path = argv[++i];
    } else {
      workload = nullptr;
      break;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload udp-bimodal|udp-tiny|udp-deadline "
                 "[--trace] [--dump PATH]\n",
                 argv[0]);
    return 1;
  }

  RuntimeConfig config;
  config.num_workers = workload->workers;
  config.pin_threads = true;
  config.scheduler.mode = workload->policy;
  config.scheduler.deadline.shed = workload->shed;
  for (const RequestClass& c : workload->classes) {
    if (c.budget_us > 0) {
      DeadlineTarget target;
      target.type_name = c.name;
      target.budget = static_cast<Nanos>(c.budget_us) * kMicrosecond;
      config.scheduler.deadline.targets.push_back(target);
    }
  }
  config.ingress.mode = IngressMode::kUdp;
  config.ingress.listen_port = 0;
  config.ingress.num_net_workers = 1;
  config.ingress.poll.policy = PollPolicy::kYield;
  // A host that takes a core away for a few milliseconds queues that long's
  // worth of datagrams on the socket; at 140k rps the 1 MiB default drops.
  config.ingress.socket_buffer_bytes = 4 << 20;
  // Untraced runs carry no lifecycle tracing at all; traced runs record
  // exactly the requests the client elected (sample_every 0 disables the
  // server's own 1-in-N ticks, the wire flag still forces a record).
  config.telemetry.enable_tracing = trace;
  config.telemetry.sample_every = 0;
  config.telemetry.trace_ring_capacity = 1 << 15;

  Persephone server(config);
  for (const RequestClass& c : workload->classes) {
    server.RegisterType(c.wire_id, c.name, MakeSpinHandler(), c.spin,
                        c.ratio);
  }
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psp_e2e_server: start failed: %s\n", e.what());
    return 1;
  }
  if (!WaitForPinnedLayout(workload->workers)) {
    std::fprintf(stderr,
                 "psp_e2e_server: engine threads did not pin to cores 0-%u\n",
                 workload->workers);
    server.Stop();
    return 2;
  }
  std::printf("ready %u\n", server.udp_port());
  std::fflush(stdout);

  while (std::getchar() != EOF) {
  }
  server.Stop();

  const TelemetrySnapshot snap = server.telemetry_snapshot();
  for (const auto& [name, value] : snap.counters) {
    std::printf("counter %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  const UdpIngressStats udp = server.udp_ingress()->stats();
  std::printf("counter udp.net_cpu_nanos %llu\n",
              static_cast<unsigned long long>(udp.net_cpu_nanos));
  for (const WorkerTimeRecord& record : snap.worker_time) {
    std::printf("ledger %s %u", record.role.c_str(), record.slot);
    for (const uint64_t ns : record.state_ns) {
      std::printf(" %llu", static_cast<unsigned long long>(ns));
    }
    std::printf("\n");
  }
  if (trace && !dump_path.empty()) {
    std::ofstream out(dump_path);
    out << LifecycleJsonFromSnapshot(snap);
    if (!out) {
      std::fprintf(stderr, "psp_e2e_server: cannot write %s\n",
                   dump_path.c_str());
      return 1;
    }
  }
  std::printf("end\n");
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace psp

int main(int argc, char** argv) { return psp::e2e::Main(argc, argv); }
