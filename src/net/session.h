// One connected client: a thread that speaks the frame protocol and owns
// that client's in-flight executions.
//
// The session sleeps in one untimed poll(2) on two fds: its socket and its
// waker. Every execution it submits carries the waker as its completion
// sink (rt/completion_sink.h), so the worker that finishes the execution's
// root wakes the poll; Server::stop() wakes it the same way. Each loop turn
// arms the waker, sweeps the in-flight table for executions that reached a
// terminal state, pushing a RESULT frame for each, and only then sleeps.
// Nothing runs on a timer: a RESULT leaves as soon as the session sees the
// completion event. Tiny plans that ran inline at submit are done before
// the sweep that follows their SUBMIT.
//
// All Execution handles live in the in-flight table, so the lifetime story
// is simple: whatever ends the loop — orderly client close, abrupt
// disconnect, protocol error, or server shutdown — the epilogue either
// drains (waits and, when the socket still works, delivers) or
// cancels-then-joins every in-flight execution, then waits until no worker
// can touch the waker again, before the thread exits. Cancel-on-disconnect
// falls out of that epilogue: a vanished client's executions get
// Execution::cancel() and nothing else in the server is touched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/runtime.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace nabbitc::net {

class Session {
 public:
  Session(Server& server, Fd fd, std::uint64_t id) noexcept;
  ~Session();  // join()

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void start();
  void join();
  bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }
  /// Wakes the session's poll so it re-checks Server::stopping(). Safe
  /// from any thread until the Session is destroyed.
  void wake() noexcept { waker_.wake(); }

 private:
  /// The session's completion sink: an eventfd the finishing worker (or
  /// Server::stop()) notifies.
  struct Waker final : api::CompletionSink {
    WakeFd wfd;
    void wake() noexcept override { wfd.notify(); }
  };

  /// One accepted SUBMIT. The name is copied here because
  /// SubmitOptions::name is a borrowed pointer — the execution must not
  /// outlive it, and an unordered_map's nodes give it a stable address.
  struct InFlight {
    api::Execution exec;
    std::string name;
    std::uint64_t payload = 0;
    /// Slow-request stage stamps (obs/slow_ring.h): when the SUBMIT frame
    /// entered dispatch, when admission control let it through, and when
    /// it was submitted to the runtime. 0 when metrics are disabled.
    std::uint64_t t_decode_ns = 0;
    std::uint64_t t_admit_ns = 0;
    std::uint64_t t_submit_ns = 0;
    const plan::GraphPlan* plan = nullptr;
  };

  void run();
  /// Reads everything the socket has into the assembler, adding the byte
  /// count to *n; false on EOF / hard error.
  bool pump_socket(std::size_t* n);
  /// Decodes and dispatches every complete frame; false = the connection
  /// is done.
  bool dispatch_frames();
  /// Handles one frame. False = the connection is done (protocol error
  /// already answered).
  bool dispatch(const FrameAssembler::Frame& f);
  bool handle_register(std::span<const std::uint8_t> body);
  bool handle_submit(std::span<const std::uint8_t> body);
  bool handle_submit_batch(std::span<const std::uint8_t> body);
  /// Answers a SUBMIT or SUBMIT_BATCH naming a handle this server never
  /// registered: a client logic error, not stream corruption, so the
  /// session keeps serving.
  bool send_unknown_handle();
  /// Refuses one SUBMIT with a BUSY reply naming the admission cap that
  /// said no, and counts the rejection.
  bool send_busy(BusyScope scope, std::uint32_t in_flight,
                 std::uint32_t limit);
  /// Stages the InFlight record of one admitted wire item (a SubmitRequest
  /// or a SubmitBatchItem, whose name it takes) and fills `so` for its
  /// submission: priority clamped to a lane, relative deadline made
  /// absolute, name borrowed from the record, completion sink waker_.
  template <class Item>
  InFlight& stage_submission(std::uint64_t exec_id, Item& item,
                             const plan::GraphPlan* plan,
                             std::uint64_t t_admit_ns, api::SubmitOptions& so);
  bool handle_status_req(std::span<const std::uint8_t> body);
  bool handle_cancel(std::span<const std::uint8_t> body);
  bool handle_metrics();
  bool handle_slow();

  /// Pushes RESULT for every terminal execution and retires its record.
  /// Returns how many records it retired.
  std::size_t sweep_completed(bool deliver);
  /// Builds + (optionally) sends the RESULT frame for one finished record,
  /// updates server counters, and releases its global-admission slot.
  void finish_record(std::uint64_t exec_id, InFlight& rec, bool deliver);
  void cancel_all() noexcept;
  /// Blocks until the in-flight table is empty, retiring records as their
  /// executions finish.
  void drain_all(bool deliver);

  bool send(FrameType type, const WireWriter& body) noexcept;
  void send_protocol_error(ErrCode code, const std::string& message) noexcept;

  Server& server_;
  Fd fd_;
  std::uint64_t id_;
  std::thread thread_;
  /// Opened by start(); closed only when the Session is destroyed, so a
  /// late Server::stop() notify never writes to a recycled fd number.
  Waker waker_;
  std::atomic<bool> finished_{false};
  FrameAssembler assembler_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  /// When the frame currently being dispatched entered dispatch (the
  /// "decode" stage stamp for any SUBMIT it carries). 0 when metrics are
  /// disabled.
  std::uint64_t frame_t0_ns_ = 0;
  /// Cleared on the first failed send: the peer is gone, stop writing.
  bool alive_ = true;
};

}  // namespace nabbitc::net
