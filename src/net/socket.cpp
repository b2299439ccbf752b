#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/timing.h"

namespace nabbitc::net {

namespace {

void set_err(std::string* err, const char* what) {
  if (err != nullptr) {
    *err = what;
    *err += ": ";
    *err += strerror(errno);
  }
}

bool set_cloexec(int fd) { return fcntl(fd, F_SETFD, FD_CLOEXEC) == 0; }

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_tcp_loopback(std::uint16_t port, std::uint16_t* bound_port,
                       std::string* err) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket(AF_INET)");
    return {};
  }
  set_cloexec(fd.get());
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_err(err, "bind(127.0.0.1)");
    return {};
  }
  if (::listen(fd.get(), 64) != 0) {
    set_err(err, "listen");
    return {};
  }
  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&got), &len) != 0) {
      set_err(err, "getsockname");
      return {};
    }
    *bound_port = ntohs(got.sin_port);
  }
  return fd;
}

Fd listen_unix(const std::string& path, std::string* err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "unix path too long: " + path;
    return {};
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket(AF_UNIX)");
    return {};
  }
  set_cloexec(fd.get());
  ::unlink(path.c_str());  // stale socket from a previous run
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_err(err, "bind(unix)");
    return {};
  }
  if (::listen(fd.get(), 64) != 0) {
    set_err(err, "listen(unix)");
    return {};
  }
  return fd;
}

Fd accept_conn(int listen_fd) {
  sockaddr_storage peer{};
  socklen_t len = sizeof(peer);
  Fd fd(::accept4(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len,
                  SOCK_CLOEXEC));
  if (fd.valid() && peer.ss_family == AF_INET) {
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Fd connect_tcp_loopback(std::uint16_t port, std::string* err) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket(AF_INET)");
    return {};
  }
  set_cloexec(fd.get());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_err(err, "connect(127.0.0.1)");
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Fd connect_unix(const std::string& path, std::string* err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "unix path too long: " + path;
    return {};
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket(AF_UNIX)");
    return {};
  }
  set_cloexec(fd.get());
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_err(err, "connect(unix)");
    return {};
  }
  return fd;
}

bool set_nonblocking(int fd, std::string* err) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    set_err(err, "fcntl(O_NONBLOCK)");
    return false;
  }
  return true;
}

int poll_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) return 0;
    return 1;  // POLLIN, POLLHUP, or POLLERR — all mean "read() will answer"
  }
}

ReadStatus read_some(int fd, void* buf, std::size_t cap, std::size_t* n) {
  *n = 0;
  for (;;) {
    const ssize_t r = ::recv(fd, buf, cap, 0);
    if (r > 0) {
      *n = static_cast<std::size_t>(r);
      return ReadStatus::kData;
    }
    if (r == 0) return ReadStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kWouldBlock;
    return ReadStatus::kError;
  }
}

bool write_all(int fd, const void* buf, std::size_t n, int timeout_ms) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (now_ns() >= deadline) return false;
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, 10);
      continue;
    }
    return false;  // peer gone (EPIPE/ECONNRESET/...)
  }
  return true;
}

bool WakeFd::open(std::string* err) {
  fd = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!fd.valid()) {
    set_err(err, "eventfd");
    return false;
  }
  return true;
}

void WakeFd::notify() noexcept {
  const std::uint64_t one = 1;
  // Best effort: the only failure is a counter at its maximum, which
  // already reads as a pending wakeup.
  [[maybe_unused]] const ssize_t r = ::write(fd.get(), &one, sizeof(one));
}

void WakeFd::drain() noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t r = ::read(fd.get(), &count, sizeof(count));
}

}  // namespace nabbitc::net
