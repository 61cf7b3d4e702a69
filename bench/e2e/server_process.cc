#include "bench/e2e/server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

namespace psp {
namespace e2e {

ServerProcess::~ServerProcess() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::vector<int>& cores,
                                 Nanos timeout) {
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return std::string("pipe: ") + std::strerror(errno);
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return std::string("pipe: ") + std::strerror(errno);
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int core : cores) {
    CPU_SET(core, &set);
  }

  spawned_at_ = TscClock::Global().Now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    return std::string("fork: ") + std::strerror(errno);
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server's main
    // thread must not share the client's core, so the child starts on the
    // server core set; its engine threads then pin themselves inside it.
    if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
      ::_exit(kExitHostUnfit);
    }
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(to_child[0]);
  ::close(from_child[1]);
  stdin_fd_ = to_child[1];
  stdout_fd_ = from_child[0];

  std::string line;
  if (!ReadLine(&line, TscClock::Global().Now() + timeout)) {
    Reap(TscClock::Global().Now() + kSecond, nullptr);
    return "server exited before it was ready (status " +
           std::to_string(exit_code_) + ")";
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "ready %u", &port) != 1 || port == 0 ||
      port > 65535) {
    return "unexpected server line: " + line;
  }
  port_ = static_cast<uint16_t>(port);
  return "";
}

bool ServerProcess::ReadLine(std::string* line, Nanos deadline) {
  while (true) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      *line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return true;
    }
    const Nanos left = deadline - TscClock::Global().Now();
    if (left <= 0 || stdout_fd_ < 0) {
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(left / kMillisecond) + 1);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    char buf[4096];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return false;  // EOF: the child closed stdout
    }
    pending_.append(buf, static_cast<size_t>(n));
  }
}

void ServerProcess::Reap(Nanos deadline, double* maxrss_mb) {
  if (pid_ <= 0) {
    return;
  }
  int status = 0;
  rusage usage{};
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         TscClock::Global().Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    done = ::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  exit_code_ = done > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (maxrss_mb != nullptr) {
    *maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }
}

std::string ServerProcess::Stop(ServerReport* out, Nanos timeout) {
  const Nanos deadline = TscClock::Global().Now() + timeout;
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  bool complete = false;
  std::string line;
  while (ReadLine(&line, deadline)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "counter") {
      std::string name;
      uint64_t value = 0;
      in >> name >> value;
      out->counters[name] = value;
    } else if (kind == "ledger") {
      LedgerRecord record;
      in >> record.role >> record.slot;
      for (uint64_t& ns : record.ns) {
        in >> ns;
      }
      out->ledger.push_back(record);
    } else if (kind == "end") {
      complete = true;
    }
  }
  Reap(deadline, &out->maxrss_mb);
  if (exit_code_ != 0) {
    return "server exited with status " + std::to_string(exit_code_);
  }
  return complete ? "" : "server report incomplete";
}

}  // namespace e2e
}  // namespace psp
