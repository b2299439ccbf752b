#include "net/session.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/remote_graph.h"
#include "obs/metrics.h"
#include "support/timing.h"

namespace nabbitc::net {

namespace {

/// Session-layer metrics, resolved once per process. dispatch covers one
/// full frame turnaround (decode + handler + reply write); reply is the
/// reply write alone, so dispatch - reply isolates server-side work.
/// pickup is the completion -> RESULT-write stage: from the worker's
/// completion stamp to the start of the RESULT write. empty_wakeups counts
/// poll returns after which neither the sweep nor the socket had anything.
struct NetMetrics {
  obs::Histogram* dispatch_ns;
  obs::Histogram* reply_ns;
  obs::Histogram* pickup_ns;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* empty_wakeups;
};

NetMetrics& net_metrics() {
  static NetMetrics m{
      &obs::registry().histogram("net_dispatch_ns"),
      &obs::registry().histogram("net_reply_ns"),
      &obs::registry().histogram("net_pickup_ns"),
      &obs::registry().counter("net_bytes_in_total"),
      &obs::registry().counter("net_bytes_out_total"),
      &obs::registry().counter("net_session_empty_wakeups_total"),
  };
  return m;
}

}  // namespace

Session::Session(Server& server, Fd fd, std::uint64_t id) noexcept
    : server_(server), fd_(std::move(fd)), id_(id) {}

Session::~Session() { join(); }

void Session::start() {
  server_.sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  server_.sessions_active_.fetch_add(1, std::memory_order_acq_rel);
  // Opened here, before the thread exists: Server::stop() may wake() the
  // session as soon as it is listed. run() disconnects if this failed.
  std::string ignored;
  waker_.wfd.open(&ignored);
  thread_ = std::thread([this] { run(); });
}

void Session::join() {
  if (thread_.joinable()) thread_.join();
}

void Session::run() {
  std::string err;
  bool disconnected = !waker_.wfd.fd.valid() ||
                      !set_nonblocking(fd_.get(), &err);
  bool woke = false;          // a poll() returned since the last sweep
  std::size_t bytes_in = 0;   // what the socket gave after that poll

  while (!disconnected && alive_ && !server_.stopping()) {
    // Arm BEFORE sweeping: a root that finishes after the sweep passed it
    // wakes the poll below (see rt/completion_sink.h).
    waker_.arm();
    const std::size_t retired = sweep_completed(/*deliver=*/true);
    if (woke && retired == 0 && bytes_in == 0) {
      net_metrics().empty_wakeups->add(1);
    }
    pollfd fds[2] = {{fd_.get(), POLLIN, 0},
                     {waker_.wfd.fd.get(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      disconnected = true;
      break;
    }
    woke = true;
    bytes_in = 0;
    if (fds[1].revents != 0) waker_.wfd.drain();
    // POLLIN, POLLHUP and POLLERR all mean read() will answer.
    if (fds[0].revents != 0 &&
        (!pump_socket(&bytes_in) || !dispatch_frames())) {
      disconnected = true;
    }
  }

  // Epilogue: every in-flight execution is joined before this thread exits.
  if (disconnected || !alive_) {
    // Cancel-on-disconnect: the client cannot receive results anymore, so
    // shed its work. Other sessions are untouched.
    cancel_all();
    drain_all(/*deliver=*/false);
  } else if (server_.opts_.drain_on_shutdown) {
    drain_all(/*deliver=*/true);
  } else {
    cancel_all();
    drain_all(/*deliver=*/true);  // push terminal (cancelled) results
  }
  // Every execution is done, but its worker may still be inside the
  // waker's notify: wait for it to let go.
  waker_.quiesce();

  fd_.reset();
  server_.sessions_active_.fetch_sub(1, std::memory_order_acq_rel);
  finished_.store(true, std::memory_order_release);
}

bool Session::pump_socket(std::size_t* n) {
  std::uint8_t buf[16 * 1024];
  for (;;) {
    std::size_t got = 0;
    switch (read_some(fd_.get(), buf, sizeof(buf), &got)) {
      case ReadStatus::kData:
        net_metrics().bytes_in->add(got);
        assembler_.feed(buf, got);
        *n += got;
        break;
      case ReadStatus::kWouldBlock:
        return true;
      case ReadStatus::kEof:
      case ReadStatus::kError:
        return false;
    }
  }
}

bool Session::dispatch_frames() {
  FrameAssembler::Frame f;
  HeaderStatus hs = HeaderStatus::kOk;
  for (;;) {
    switch (assembler_.next(f, &hs)) {
      case FrameAssembler::Result::kNeedMore:
        return true;
      case FrameAssembler::Result::kError:
        send_protocol_error(err_code_of(hs), header_status_name(hs));
        return false;
      case FrameAssembler::Result::kFrame: {
        frame_t0_ns_ = obs::enabled() ? now_ns() : 0;
        const bool ok = dispatch(f);
        if (frame_t0_ns_ != 0) {
          net_metrics().dispatch_ns->record(now_ns() - frame_t0_ns_);
        }
        if (!ok) return false;
        break;
      }
    }
  }
}

bool Session::dispatch(const FrameAssembler::Frame& f) {
  const std::span<const std::uint8_t> body(f.body.data(), f.body.size());
  switch (f.type) {
    case FrameType::kRegister:
      return handle_register(body);
    case FrameType::kSubmit:
      return handle_submit(body);
    case FrameType::kSubmitBatch:
      return handle_submit_batch(body);
    case FrameType::kStatusReq:
      return handle_status_req(body);
    case FrameType::kCancel:
      return handle_cancel(body);
    case FrameType::kMetricsReq:
      return handle_metrics();
    case FrameType::kSlowReq:
      return handle_slow();
    default:
      // A server->client frame type arriving here means the peer is not a
      // client; close after answering.
      send_protocol_error(ErrCode::kMalformedBody,
                          std::string("unexpected frame from client: ") +
                              frame_type_name(f.type));
      return false;
  }
}

bool Session::handle_register(std::span<const std::uint8_t> body) {
  WireGraph g;
  std::string why;
  if (!decode_register(body, g, &why)) {
    send_protocol_error(ErrCode::kBadRegister, why);
    return false;
  }
  bool compiled_now = false;
  Server::SpecEntry* e = server_.register_spec(g, &compiled_now, &why);
  if (e == nullptr) {
    send_protocol_error(ErrCode::kBadRegister, why);
    return false;
  }
  RegisteredMsg m;
  m.handle = e->handle;
  m.plan_nodes = static_cast<std::uint32_t>(e->plan->num_nodes());
  m.shared = compiled_now ? 0 : 1;
  WireWriter w;
  encode_registered(m, w);
  return send(FrameType::kRegistered, w);
}

bool Session::send_unknown_handle() {
  ErrorMsg em;
  em.code = static_cast<std::uint8_t>(ErrCode::kUnknownHandle);
  em.message = "handle not registered on this server";
  WireWriter w;
  encode_error(em, w);
  return send(FrameType::kError, w);
}

bool Session::send_busy(BusyScope scope, std::uint32_t in_flight,
                        std::uint32_t limit) {
  server_.rejected_busy_.fetch_add(1, std::memory_order_relaxed);
  BusyMsg m;
  m.scope = static_cast<std::uint8_t>(scope);
  m.in_flight = in_flight;
  m.limit = limit;
  WireWriter w;
  encode_busy(m, w);
  return send(FrameType::kBusy, w);
}

template <class Item>
Session::InFlight& Session::stage_submission(std::uint64_t exec_id, Item& item,
                                             const plan::GraphPlan* plan,
                                             std::uint64_t t_admit_ns,
                                             api::SubmitOptions& so) {
  InFlight& rec = inflight_.try_emplace(exec_id).first->second;
  rec.name = std::move(item.name);
  rec.payload = item.payload;
  rec.plan = plan;
  rec.t_decode_ns = frame_t0_ns_;
  rec.t_admit_ns = t_admit_ns;

  so.priority = static_cast<api::Priority>(
      item.priority <= 2 ? item.priority : 1);
  // The decoders bound deadline_rel_ns by kMaxDeadlineRelNs, so the signed
  // nanosecond count cannot wrap negative (which would expire at once).
  if (item.deadline_rel_ns != 0) {
    so.deadline_ns =
        api::deadline_in(std::chrono::nanoseconds(item.deadline_rel_ns));
  }
  so.name = rec.name.empty() ? nullptr : rec.name.c_str();
  so.sink = &waker_;
  return rec;
}

bool Session::handle_submit(std::span<const std::uint8_t> body) {
  SubmitRequest req;
  std::string why;
  if (!decode_submit(body, req, &why)) {
    send_protocol_error(ErrCode::kBadSubmit, why);
    return false;
  }
  Server::SpecEntry* e = server_.find_spec(req.handle);
  if (e == nullptr) return send_unknown_handle();

  // Admission control: per-session cap first, then the global slot.
  const std::uint32_t session_cap = server_.opts_.max_inflight_per_session;
  if (inflight_.size() >= session_cap) {
    return send_busy(BusyScope::kSession,
                     static_cast<std::uint32_t>(inflight_.size()),
                     session_cap);
  }
  if (!server_.try_admit_global()) {
    return send_busy(BusyScope::kGlobal,
                     server_.global_inflight_.load(std::memory_order_relaxed),
                     server_.opts_.max_inflight_global);
  }

  // Runtime::submit, not submit_batch: a serial-lowered plan then runs
  // inline on this thread instead of taking a scheduler round trip.
  const std::uint64_t exec_id = server_.next_exec_id();
  api::SubmitOptions so;
  InFlight& rec = stage_submission(exec_id, req, e->plan.get(),
                                   obs::enabled() ? now_ns() : 0, so);
  rec.t_submit_ns = now_ns();
  rec.exec = server_.runtime_.submit(*rec.plan, so);
  server_.submitted_.fetch_add(1, std::memory_order_relaxed);

  SubmittedMsg m;
  m.exec_id = exec_id;
  WireWriter w;
  encode_submitted(m, w);
  return send(FrameType::kSubmitted, w);
}

bool Session::handle_submit_batch(std::span<const std::uint8_t> body) {
  SubmitBatchRequest req;
  std::string why;
  if (!decode_submit_batch(body, req, &why)) {
    send_protocol_error(ErrCode::kBadSubmit, why);
    return false;
  }
  Server::SpecEntry* e = server_.find_spec(req.handle);
  if (e == nullptr) return send_unknown_handle();

  // Prefix admission: the session cap bounds first, then ONE grab at the
  // global counter covers the whole remainder (try_admit_global_n). The
  // admitted prefix is submitted in a single Runtime::submit_batch call;
  // the suffix is reported rejected with the cap that said no, and was
  // never staged anywhere.
  const std::uint32_t want = static_cast<std::uint32_t>(req.items.size());
  const std::uint32_t session_cap = server_.opts_.max_inflight_per_session;
  const std::uint32_t session_room =
      inflight_.size() >= session_cap
          ? 0
          : session_cap - static_cast<std::uint32_t>(inflight_.size());
  const std::uint32_t session_ok = std::min(want, session_room);
  const std::uint32_t admitted = server_.try_admit_global_n(session_ok);

  SubmittedBatchMsg m;
  m.rejected = want - admitted;
  if (admitted < session_ok) {
    m.busy_scope = static_cast<std::uint8_t>(BusyScope::kGlobal);
  } else if (session_ok < want) {
    m.busy_scope = static_cast<std::uint8_t>(BusyScope::kSession);
  }
  if (m.rejected != 0) {
    server_.rejected_busy_.fetch_add(m.rejected, std::memory_order_relaxed);
  }

  if (admitted != 0) {
    // Records first: each SubmitOptions::name borrows the stable string
    // inside its InFlight node.
    m.exec_ids.reserve(admitted);
    const std::uint64_t t_admit = obs::enabled() ? now_ns() : 0;
    std::vector<InFlight*> recs(admitted);
    std::vector<api::SubmitOptions> sos(admitted);
    for (std::uint32_t i = 0; i < admitted; ++i) {
      const std::uint64_t exec_id = server_.next_exec_id();
      recs[i] = &stage_submission(exec_id, req.items[i], e->plan.get(),
                                  t_admit, sos[i]);
      m.exec_ids.push_back(exec_id);
    }
    const std::uint64_t t_submit = now_ns();
    std::vector<api::Execution> execs(admitted);
    server_.runtime_.submit_batch(
        *e->plan, std::span<const api::SubmitOptions>(sos.data(), admitted),
        execs.data());
    for (std::uint32_t i = 0; i < admitted; ++i) {
      recs[i]->t_submit_ns = t_submit;
      recs[i]->exec = std::move(execs[i]);
    }
    server_.submitted_.fetch_add(admitted, std::memory_order_relaxed);
  }

  WireWriter w;
  encode_submitted_batch(m, w);
  return send(FrameType::kSubmittedBatch, w);
}

bool Session::handle_status_req(std::span<const std::uint8_t> body) {
  std::uint64_t exec_id = 0;
  if (!decode_status_req(body, exec_id)) {
    send_protocol_error(ErrCode::kMalformedBody, "bad STATUS_REQ body");
    return false;
  }
  StatusMsg m;
  m.exec_id = exec_id;
  const auto it = inflight_.find(exec_id);
  if (it != inflight_.end()) {
    m.known = 1;
    const api::Status st = it->second.exec.status();
    m.state = static_cast<std::uint8_t>(st.state);
    m.computed = it->second.exec.nodes_computed();
    m.skipped = st.skipped_nodes;
  }
  WireWriter w;
  encode_status(m, w);
  return send(FrameType::kStatus, w);
}

bool Session::handle_cancel(std::span<const std::uint8_t> body) {
  CancelMsg req;
  if (!decode_cancel(body, req)) {
    send_protocol_error(ErrCode::kMalformedBody, "bad CANCEL body");
    return false;
  }
  CancelAckMsg m;
  m.exec_id = req.exec_id;
  const auto it = inflight_.find(req.exec_id);
  if (it != inflight_.end()) {
    m.found = 1;
    it->second.exec.cancel();  // RESULT still arrives via the sweep
  }
  WireWriter w;
  encode_cancel_ack(m, w);
  return send(FrameType::kCancelAck, w);
}

bool Session::handle_metrics() {
  WireWriter w;
  encode_metrics(server_.metrics_msg(), w);
  return send(FrameType::kMetrics, w);
}

bool Session::handle_slow() {
  WireWriter w;
  encode_slow(server_.slow_msg(), w);
  return send(FrameType::kSlow, w);
}

std::size_t Session::sweep_completed(bool deliver) {
  std::size_t retired = 0;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.exec.done()) {
      finish_record(it->first, it->second, deliver);
      // Erasing destroys the Execution handle, which recycles the pooled
      // plan instance — safe only after finish_record read the sink node.
      it = inflight_.erase(it);
      ++retired;
    } else {
      ++it;
    }
  }
  return retired;
}

void Session::finish_record(std::uint64_t exec_id, InFlight& rec,
                            bool deliver) {
  const api::Status st = rec.exec.status();
  ResultMsg m;
  m.exec_id = exec_id;
  m.state = static_cast<std::uint8_t>(st.state);
  m.computed = rec.exec.nodes_computed();
  m.skipped = st.skipped_nodes;
  if (st.state == api::ExecStatus::kCompleted) {
    const auto* sink =
        static_cast<const ServeNode*>(rec.exec.find(rec.plan->sink()));
    m.sink_value = sink->value;
    m.result = wire_result(m.sink_value, rec.payload);
    server_.completed_.fetch_add(1, std::memory_order_relaxed);
  } else if (st.state == api::ExecStatus::kDeadlineExceeded) {
    server_.deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    server_.cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  m.latency_ns = now_ns() - rec.t_submit_ns;
  server_.release_global();
  bool replied = false;
  if (deliver && alive_) {
    const std::uint64_t t_done = rec.exec.complete_time_ns();
    if (t_done != 0 && obs::enabled()) {
      net_metrics().pickup_ns->record(now_ns() - t_done);
    }
    WireWriter w;
    encode_result(m, w);
    replied = send(FrameType::kResult, w);
  }
  // Slow-request capture: note every completion; the ring keeps only the K
  // slowest. Stage stamps that never happened (metrics off, undelivered
  // reply, never-adopted root) stay 0 — see obs/slow_ring.h.
  obs::SlowEntry se;
  se.exec_id = exec_id;
  se.state = m.state;
  se.latency_ns = m.latency_ns;
  se.t_decode_ns = rec.t_decode_ns;
  se.t_admit_ns = rec.t_admit_ns;
  se.t_submit_ns = rec.t_submit_ns;
  se.t_dispatch_ns = rec.exec.first_dispatch_time_ns();
  se.t_complete_ns = rec.exec.complete_time_ns();
  se.t_reply_ns = replied ? now_ns() : 0;
  se.name = rec.name;
  server_.slow_ring().note(se);
}

void Session::cancel_all() noexcept {
  for (auto& [id, rec] : inflight_) rec.exec.cancel();
}

void Session::drain_all(bool deliver) {
  while (!inflight_.empty()) {
    inflight_.begin()->second.exec.wait();
    sweep_completed(deliver && alive_);
  }
}

bool Session::send(FrameType type, const WireWriter& body) noexcept {
  if (!alive_) return false;
  const std::vector<std::uint8_t> frame = body.frame(type);
  const std::uint64_t t0 = obs::enabled() ? now_ns() : 0;
  if (!write_all(fd_.get(), frame.data(), frame.size(),
                 server_.opts_.io_timeout_ms)) {
    alive_ = false;
    return false;
  }
  if (t0 != 0) net_metrics().reply_ns->record(now_ns() - t0);
  net_metrics().bytes_out->add(frame.size());
  return true;
}

void Session::send_protocol_error(ErrCode code,
                                  const std::string& message) noexcept {
  server_.protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  ErrorMsg m;
  m.code = static_cast<std::uint8_t>(code);
  m.message = message;
  WireWriter w;
  encode_error(m, w);
  send(FrameType::kError, w);
}

}  // namespace nabbitc::net
