#include "bench/e2e/host.h"

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace psp {
namespace e2e {
namespace {

std::string FirstLine(const char* path, const std::string& fallback) {
  std::ifstream in(path);
  std::string line;
  return std::getline(in, line) && !line.empty() ? line : fallback;
}

// User-space instruction counting needs a PMU; KVM guests often expose none.
std::string ProbePmu() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) {
    return std::string("unavailable: ") + std::strerror(errno);
  }
  ::close(static_cast<int>(fd));
  return "available";
}

}  // namespace

HostInfo ProbeHost() {
  HostInfo host;
  host.cores = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  host.governor = FirstLine(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "unavailable");
  host.perf_event_paranoid =
      FirstLine("/proc/sys/kernel/perf_event_paranoid", "unavailable");
  host.pmu = ProbePmu();
  return host;
}

bool PinCurrentThreadTo(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    return false;
  }
  cpu_set_t check;
  CPU_ZERO(&check);
  return ::sched_getaffinity(0, sizeof(check), &check) == 0 &&
         CPU_COUNT(&check) == 1 && CPU_ISSET(core, &check);
}

}  // namespace e2e
}  // namespace psp
