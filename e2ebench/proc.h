// Process-level helpers: spawning and stopping the real nabbitc-serve
// binary, and reading /proc for peak RSS, CPU time and hypervisor steal.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/timing.h"

namespace e2ebench {

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MiB;
/// 0 when unreadable.
inline double peak_rss_mb(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// utime + stime of `pid` in nanoseconds; 0 when unreadable.
inline std::uint64_t cpu_ns(const std::string& pid) {
  std::ifstream f("/proc/" + pid + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), {});
  const std::size_t close = s.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(s.substr(close + 2));
  std::string field;
  std::uint64_t ut = 0, st = 0;
  // After "pid (comm) ": state is field 3; utime/stime are fields 14/15.
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) ut = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) st = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return (ut + st) * (1'000'000'000ull / static_cast<std::uint64_t>(hz));
}

/// Aggregate CPU ticks from /proc/stat: total and hypervisor steal.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline CpuTicks host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of all CPU ticks between two readings that the hypervisor stole.
inline double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// One nabbitc-serve child process. start() returns once the daemon has
/// printed its "listening" line; stop() sends SIGTERM (SIGKILL after a
/// grace period) and reaps the child. The destructor stops a running one.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& binary, const std::vector<std::string>& args,
             std::string* err) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *err = "pipe2 failed";
      return false;
    }
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec. The daemon dies
      // with the benchmark even if the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], 2);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    if (pid_ < 0) {
      ::close(fds[0]);
      pid_ = -1;
      *err = "cannot fork for " + binary;
      return false;
    }
    err_fd_ = fds[0];
    // Wait for "listening (...)" on stderr; the TCP port follows "tcp:".
    const std::uint64_t deadline = nabbitc::now_ns() + 20'000'000'000ull;
    std::string buf;
    while (buf.find('\n') == std::string::npos ||
           buf.find("listening") == std::string::npos) {
      const std::uint64_t now = nabbitc::now_ns();
      if (now >= deadline) {
        *err = "daemon did not report listening: " + buf;
        stop();
        return false;
      }
      pollfd p{err_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(err_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        *err = "daemon exited before listening: " + buf;
        stop();
        return false;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t t = buf.find("tcp:");
    if (t != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::strtoul(buf.c_str() + t + 4, nullptr, 10));
    }
    return true;
  }

  /// Returns the child's exit status (-1 when it had to be killed or was
  /// not running).
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    int result = -1;
    const std::uint64_t deadline = nabbitc::now_ns() + 10'000'000'000ull;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        result = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (nabbitc::now_ns() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      drain_stderr();
      ::usleep(2000);
    }
    pid_ = -1;
    if (err_fd_ >= 0) ::close(err_fd_);
    err_fd_ = -1;
    return result;
  }

  std::string pid_str() const { return std::to_string(pid_); }
  std::uint16_t tcp_port() const { return port_; }

 private:
  // Keeps the daemon from blocking on a full stderr pipe while stopping.
  void drain_stderr() {
    if (err_fd_ < 0) return;
    pollfd p{err_fd_, POLLIN, 0};
    char chunk[512];
    while (::poll(&p, 1, 0) > 0 && ::read(err_fd_, chunk, sizeof(chunk)) > 0) {
    }
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace e2ebench
