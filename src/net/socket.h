// Thin POSIX socket layer under the daemon and client library.
//
// RAII fd ownership plus the handful of primitives the net layer needs:
// loopback-TCP / Unix-domain listeners and connectors, non-blocking reads,
// poll-bounded writes (MSG_NOSIGNAL — a dead peer is a return code here,
// never a SIGPIPE), and an eventfd waker for the accept loop, the sessions
// and the daemon's signal handler. Everything
// reports errors by return value + message; nothing in this layer aborts,
// because every failure mode is reachable from the network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace nabbitc::net {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() noexcept = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// Listening socket on 127.0.0.1:`port` (0 = ephemeral; *bound_port gets
/// the kernel's choice). Invalid Fd + *err on failure.
Fd listen_tcp_loopback(std::uint16_t port, std::uint16_t* bound_port,
                       std::string* err);

/// Listening Unix-domain socket at `path` (unlinked first if stale).
Fd listen_unix(const std::string& path, std::string* err);

/// accept(2) on a listener. The connection is close-on-exec and, when it
/// is TCP, has TCP_NODELAY set: a RESULT written right after SUBMITTED
/// must not wait for the client's delayed ACK. Invalid Fd when nothing is
/// pending (non-blocking listener) or on error.
Fd accept_conn(int listen_fd);

Fd connect_tcp_loopback(std::uint16_t port, std::string* err);
Fd connect_unix(const std::string& path, std::string* err);

bool set_nonblocking(int fd, std::string* err);

/// poll(2) for readability. 1 = readable (or EOF/error pending), 0 =
/// timeout, -1 = poll error. timeout_ms < 0 blocks indefinitely.
int poll_readable(int fd, int timeout_ms);

/// Outcome of one non-blocking read attempt.
enum class ReadStatus : std::uint8_t {
  kData,      // *n bytes read
  kWouldBlock,
  kEof,       // orderly shutdown by the peer
  kError,
};
ReadStatus read_some(int fd, void* buf, std::size_t cap, std::size_t* n);

/// Writes the whole buffer, polling through EAGAIN. False when the peer is
/// gone or the fd stays unwritable for `timeout_ms` (a stalled client must
/// not wedge its session thread forever).
bool write_all(int fd, const void* buf, std::size_t n, int timeout_ms);

/// Signal-safe / cross-thread wakeup: a non-blocking eventfd. `fd` is
/// polled for POLLIN; notify() adds 1 to its counter (one write), drain()
/// resets it (one read), however many notifies came in between.
struct WakeFd {
  Fd fd;
  bool open(std::string* err);
  void notify() noexcept;
  void drain() noexcept;
};

}  // namespace nabbitc::net
