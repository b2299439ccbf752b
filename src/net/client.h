// In-repo client library for nabbitc-serve.
//
// A synchronous, single-connection client: each call sends one request
// frame and blocks (with a timeout) until the matching reply. The one
// asynchronous piece of the protocol is the RESULT push — the server sends
// it whenever an execution finishes, possibly while the client is awaiting
// some other reply — so the client stashes every RESULT it sees into a
// pending map; wait_result() serves from that map first and only then
// reads the socket. Not thread-safe: one Client per thread (sessions are
// cheap; the daemon multiplexes).
//
// Every call reports failure by returning std::nullopt with a diagnostic
// in last_error(). A transport failure (EOF, timeout, protocol error)
// closes the connection; subsequent calls fail fast.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/submit_options.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/wire.h"

namespace nabbitc::net {

class Client {
 public:
  Client() = default;

  bool connect_unix(const std::string& path);
  bool connect_tcp(std::uint16_t port);
  void close() noexcept { fd_.reset(); }
  bool connected() const noexcept { return fd_.valid(); }
  const std::string& last_error() const noexcept { return err_; }

  /// REGISTER: content-addressed, idempotent; reply.shared says whether the
  /// server already had this graph compiled.
  std::optional<RegisteredMsg> register_graph(const WireGraph& g,
                                              int timeout_ms = 30000);

  /// SUBMIT outcome: accepted (exec_id) or a BUSY pushback.
  struct SubmitOutcome {
    bool accepted = false;
    std::uint64_t exec_id = 0;
    BusyMsg busy{};
  };
  std::optional<SubmitOutcome> submit(std::uint64_t handle,
                                      std::uint64_t payload,
                                      api::Priority priority,
                                      std::uint64_t deadline_rel_ns = 0,
                                      std::string_view name = {},
                                      int timeout_ms = 30000);

  /// One kSubmitBatch item; fields mirror the singleton submit() arguments.
  struct BatchItem {
    std::uint64_t payload = 0;
    api::Priority priority = api::Priority::kNormal;
    std::uint64_t deadline_rel_ns = 0;
    std::string name;  // <= kMaxNameLen
  };
  /// SUBMIT_BATCH outcome: exec ids for the admitted PREFIX (item order);
  /// the `rejected` suffix hit the admission cap `busy_scope` names and
  /// should be resubmitted later, exactly like a singleton BUSY.
  struct BatchOutcome {
    std::vector<std::uint64_t> exec_ids;
    std::uint32_t rejected = 0;
    std::uint8_t busy_scope = 0;  // BusyScope; 0 iff rejected == 0
  };
  /// N submissions against one handle in one frame (one syscall each way).
  /// items.size() must be 1..kMaxBatchItems.
  std::optional<BatchOutcome> submit_batch(std::uint64_t handle,
                                           std::span<const BatchItem> items,
                                           int timeout_ms = 30000);

  /// Blocks until the RESULT push for `exec_id` arrives (or was already
  /// stashed while awaiting other replies).
  std::optional<ResultMsg> wait_result(std::uint64_t exec_id,
                                       int timeout_ms = 30000);

  std::optional<StatusMsg> query_status(std::uint64_t exec_id,
                                        int timeout_ms = 30000);
  std::optional<CancelAckMsg> cancel(std::uint64_t exec_id,
                                     int timeout_ms = 30000);
  /// METRICS: the server's full metrics-registry dump (counters, gauges,
  /// histogram buckets) plus server-derived gauges (lane depths, pool
  /// occupancy). See obs/metrics.h for the name vocabulary.
  std::optional<MetricsMsg> metrics(int timeout_ms = 30000);
  /// SLOW: the slow-request ring, slowest first (obs/slow_ring.h).
  std::optional<SlowMsg> slow(int timeout_ms = 30000);

  std::size_t pending_results() const noexcept { return results_.size(); }

  /// Test escape hatches: raw bytes onto the wire / the raw fd.
  bool send_raw(const void* data, std::size_t n);
  int fd() const noexcept { return fd_.get(); }

 private:
  enum class Pump : std::uint8_t { kPush, kReply, kTimeout, kClosed };

  bool post_connect();
  bool send_frame(FrameType type, const WireWriter& body);
  /// Advances the stream until one frame is processed: RESULT pushes are
  /// stashed (kPush), anything else is handed back (kReply).
  Pump pump(std::uint64_t deadline_ns, FrameAssembler::Frame& reply);
  /// Request/reply core: pumps until a frame of `want` arrives. A kError
  /// frame or any unexpected type fails the call.
  std::optional<FrameAssembler::Frame> await(FrameType want, int timeout_ms);
  void fail(std::string msg) noexcept;

  Fd fd_;
  FrameAssembler assembler_;
  std::map<std::uint64_t, ResultMsg> results_;  // stashed RESULT pushes
  std::string err_;
};

}  // namespace nabbitc::net
