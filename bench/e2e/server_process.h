// One psp_e2e_server child process: spawn with its own core set, wait for
// "ready <port>", and at stop collect its counter report and rusage. The
// destructor kills and reaps a child that is still running, so no error path
// leaves a server behind.
#ifndef PSP_BENCH_E2E_SERVER_PROCESS_H_
#define PSP_BENCH_E2E_SERVER_PROCESS_H_

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace psp {
namespace e2e {

// Exit code psp_e2e uses when the host cannot give the benchmark its pinned
// 4-core layout.
inline constexpr int kExitHostUnfit = 2;

struct LedgerRecord {
  std::string role;  // "worker" or "dispatcher"
  uint32_t slot = 0;
  std::array<uint64_t, 6> ns{};  // indexed by WorkerTimeState
};

struct ServerReport {
  std::map<std::string, uint64_t> counters;
  std::vector<LedgerRecord> ledger;
  double maxrss_mb = 0;

  uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Forks `binary args...` restricted to `cores`, then waits up to `timeout`
  // for its ready line. Returns "" on success, else the reason; exit_code()
  // then holds the child's status when it exited on its own.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::vector<int>& cores, Nanos timeout);

  uint16_t port() const { return port_; }
  // TscClock instant taken immediately before the fork.
  Nanos spawned_at() const { return spawned_at_; }
  int exit_code() const { return exit_code_; }

  // Closes the child's stdin (its stop signal), parses the report it prints
  // and reaps it. Returns "" when the child exited 0 with a complete report.
  std::string Stop(ServerReport* out, Nanos timeout);

 private:
  bool ReadLine(std::string* line, Nanos deadline);
  // Waits for the child to exit until `deadline`, then kills it.
  void Reap(Nanos deadline, double* maxrss_mb);

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
  uint16_t port_ = 0;
  Nanos spawned_at_ = 0;
  int exit_code_ = -1;
};

}  // namespace e2e
}  // namespace psp

#endif  // PSP_BENCH_E2E_SERVER_PROCESS_H_
