#include "net/client.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/timing.h"

namespace nabbitc::net {

namespace {
constexpr std::uint64_t kMs = 1'000'000ull;
}  // namespace

bool Client::connect_unix(const std::string& path) {
  err_.clear();
  fd_ = net::connect_unix(path, &err_);
  return post_connect();
}

bool Client::connect_tcp(std::uint16_t port) {
  err_.clear();
  fd_ = net::connect_tcp_loopback(port, &err_);
  return post_connect();
}

bool Client::post_connect() {
  if (!fd_.valid()) return false;
  if (!set_nonblocking(fd_.get(), &err_)) {
    fd_.reset();
    return false;
  }
  assembler_ = FrameAssembler();
  results_.clear();
  return true;
}

bool Client::send_frame(FrameType type, const WireWriter& body) {
  if (!fd_.valid()) {
    err_ = "not connected";
    return false;
  }
  const std::vector<std::uint8_t> frame = body.frame(type);
  if (!write_all(fd_.get(), frame.data(), frame.size(), /*timeout_ms=*/10000)) {
    fail("send failed (server gone?)");
    return false;
  }
  return true;
}

bool Client::send_raw(const void* data, std::size_t n) {
  if (!fd_.valid()) {
    err_ = "not connected";
    return false;
  }
  return write_all(fd_.get(), data, n, /*timeout_ms=*/10000);
}

void Client::fail(std::string msg) noexcept {
  err_ = std::move(msg);
  fd_.reset();
}

Client::Pump Client::pump(std::uint64_t deadline_ns,
                          FrameAssembler::Frame& reply) {
  for (;;) {
    HeaderStatus hs = HeaderStatus::kOk;
    switch (assembler_.next(reply, &hs)) {
      case FrameAssembler::Result::kFrame:
        if (reply.type == FrameType::kResult) {
          ResultMsg m;
          if (!decode_result({reply.body.data(), reply.body.size()}, m)) {
            fail("malformed RESULT push from server");
            return Pump::kClosed;
          }
          results_[m.exec_id] = m;
          return Pump::kPush;
        }
        return Pump::kReply;
      case FrameAssembler::Result::kError:
        fail(std::string("protocol error from server stream: ") +
             header_status_name(hs));
        return Pump::kClosed;
      case FrameAssembler::Result::kNeedMore:
        break;
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) {
      err_ = "timed out waiting for server reply";
      return Pump::kTimeout;
    }
    const int wait_ms = static_cast<int>(
        std::min<std::uint64_t>((deadline_ns - now) / kMs + 1, 50));
    const int r = poll_readable(fd_.get(), wait_ms);
    if (r < 0) {
      fail("poll failed");
      return Pump::kClosed;
    }
    if (r == 0) continue;
    std::uint8_t buf[16 * 1024];
    std::size_t n = 0;
    switch (read_some(fd_.get(), buf, sizeof(buf), &n)) {
      case ReadStatus::kData:
        assembler_.feed(buf, n);
        break;
      case ReadStatus::kWouldBlock:
        break;
      case ReadStatus::kEof:
        fail("server closed the connection");
        return Pump::kClosed;
      case ReadStatus::kError:
        fail("read failed");
        return Pump::kClosed;
    }
  }
}

std::optional<FrameAssembler::Frame> Client::await(FrameType want,
                                                   int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * kMs;
  FrameAssembler::Frame f;
  for (;;) {
    switch (pump(deadline, f)) {
      case Pump::kPush:
        continue;
      case Pump::kReply:
        if (f.type == want) return f;
        if (f.type == FrameType::kError) {
          ErrorMsg em;
          if (decode_error({f.body.data(), f.body.size()}, em)) {
            err_ = std::string("server error (") +
                   err_code_name(static_cast<ErrCode>(em.code)) +
                   "): " + em.message;
          } else {
            err_ = "server error (undecodable)";
          }
          return std::nullopt;
        }
        fail(std::string("unexpected reply frame: ") +
             frame_type_name(f.type));
        return std::nullopt;
      case Pump::kTimeout:
      case Pump::kClosed:
        return std::nullopt;
    }
  }
}

std::optional<RegisteredMsg> Client::register_graph(const WireGraph& g,
                                                    int timeout_ms) {
  WireWriter w;
  encode_register(g, w);
  if (!send_frame(FrameType::kRegister, w)) return std::nullopt;
  const auto f = await(FrameType::kRegistered, timeout_ms);
  if (!f) return std::nullopt;
  RegisteredMsg m;
  if (!decode_registered({f->body.data(), f->body.size()}, m)) {
    fail("malformed REGISTERED reply");
    return std::nullopt;
  }
  return m;
}

std::optional<Client::SubmitOutcome> Client::submit(
    std::uint64_t handle, std::uint64_t payload, api::Priority priority,
    std::uint64_t deadline_rel_ns, std::string_view name, int timeout_ms) {
  SubmitRequest req;
  req.handle = handle;
  req.payload = payload;
  req.priority = static_cast<std::uint8_t>(priority);
  req.deadline_rel_ns = deadline_rel_ns;
  req.name.assign(name.substr(0, kMaxNameLen));
  WireWriter w;
  encode_submit(req, w);
  if (!send_frame(FrameType::kSubmit, w)) return std::nullopt;

  // The reply is kSubmitted OR kBusy; await() wants one type, so pump by
  // hand here.
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * kMs;
  FrameAssembler::Frame f;
  for (;;) {
    switch (pump(deadline, f)) {
      case Pump::kPush:
        continue;
      case Pump::kTimeout:
      case Pump::kClosed:
        return std::nullopt;
      case Pump::kReply:
        break;
    }
    SubmitOutcome out;
    if (f.type == FrameType::kSubmitted) {
      SubmittedMsg m;
      if (!decode_submitted({f.body.data(), f.body.size()}, m)) {
        fail("malformed SUBMITTED reply");
        return std::nullopt;
      }
      out.accepted = true;
      out.exec_id = m.exec_id;
      return out;
    }
    if (f.type == FrameType::kBusy) {
      if (!decode_busy({f.body.data(), f.body.size()}, out.busy)) {
        fail("malformed BUSY reply");
        return std::nullopt;
      }
      out.accepted = false;
      return out;
    }
    if (f.type == FrameType::kError) {
      ErrorMsg em;
      if (decode_error({f.body.data(), f.body.size()}, em)) {
        err_ = std::string("server error (") +
               err_code_name(static_cast<ErrCode>(em.code)) +
               "): " + em.message;
      } else {
        err_ = "server error (undecodable)";
      }
      return std::nullopt;
    }
    fail(std::string("unexpected reply frame: ") + frame_type_name(f.type));
    return std::nullopt;
  }
}

std::optional<Client::BatchOutcome> Client::submit_batch(
    std::uint64_t handle, std::span<const BatchItem> items, int timeout_ms) {
  if (items.empty() || items.size() > kMaxBatchItems) {
    err_ = "submit_batch: items.size() must be 1..kMaxBatchItems";
    return std::nullopt;
  }
  SubmitBatchRequest req;
  req.handle = handle;
  req.items.reserve(items.size());
  for (const BatchItem& it : items) {
    SubmitBatchItem wi;
    wi.payload = it.payload;
    wi.priority = static_cast<std::uint8_t>(it.priority);
    wi.deadline_rel_ns = it.deadline_rel_ns;
    wi.name = it.name.substr(0, kMaxNameLen);
    req.items.push_back(std::move(wi));
  }
  WireWriter w;
  encode_submit_batch(req, w);
  if (!send_frame(FrameType::kSubmitBatch, w)) return std::nullopt;

  const auto f = await(FrameType::kSubmittedBatch, timeout_ms);
  if (!f) return std::nullopt;
  SubmittedBatchMsg m;
  if (!decode_submitted_batch({f->body.data(), f->body.size()}, m)) {
    fail("malformed SUBMITTED_BATCH reply");
    return std::nullopt;
  }
  if (m.exec_ids.size() + m.rejected != items.size()) {
    fail("SUBMITTED_BATCH reply does not account for every item");
    return std::nullopt;
  }
  BatchOutcome out;
  out.exec_ids = std::move(m.exec_ids);
  out.rejected = m.rejected;
  out.busy_scope = m.busy_scope;
  return out;
}

std::optional<ResultMsg> Client::wait_result(std::uint64_t exec_id,
                                             int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * kMs;
  FrameAssembler::Frame f;
  for (;;) {
    const auto it = results_.find(exec_id);
    if (it != results_.end()) {
      const ResultMsg m = it->second;
      results_.erase(it);
      return m;
    }
    switch (pump(deadline, f)) {
      case Pump::kPush:
        continue;  // maybe ours — the map check above decides
      case Pump::kReply:
        if (f.type == FrameType::kError) {
          ErrorMsg em;
          if (decode_error({f.body.data(), f.body.size()}, em)) {
            err_ = std::string("server error (") +
                   err_code_name(static_cast<ErrCode>(em.code)) +
                   "): " + em.message;
          } else {
            err_ = "server error (undecodable)";
          }
          return std::nullopt;
        }
        fail(std::string("unexpected frame while awaiting RESULT: ") +
             frame_type_name(f.type));
        return std::nullopt;
      case Pump::kTimeout:
      case Pump::kClosed:
        return std::nullopt;
    }
  }
}

std::optional<StatusMsg> Client::query_status(std::uint64_t exec_id,
                                              int timeout_ms) {
  WireWriter w;
  encode_status_req(exec_id, w);
  if (!send_frame(FrameType::kStatusReq, w)) return std::nullopt;
  const auto f = await(FrameType::kStatus, timeout_ms);
  if (!f) return std::nullopt;
  StatusMsg m;
  if (!decode_status({f->body.data(), f->body.size()}, m)) {
    fail("malformed STATUS reply");
    return std::nullopt;
  }
  return m;
}

std::optional<CancelAckMsg> Client::cancel(std::uint64_t exec_id,
                                           int timeout_ms) {
  CancelMsg req;
  req.exec_id = exec_id;
  WireWriter w;
  encode_cancel(req, w);
  if (!send_frame(FrameType::kCancel, w)) return std::nullopt;
  const auto f = await(FrameType::kCancelAck, timeout_ms);
  if (!f) return std::nullopt;
  CancelAckMsg m;
  if (!decode_cancel_ack({f->body.data(), f->body.size()}, m)) {
    fail("malformed CANCEL_ACK reply");
    return std::nullopt;
  }
  return m;
}

std::optional<MetricsMsg> Client::metrics(int timeout_ms) {
  WireWriter w;  // empty body
  if (!send_frame(FrameType::kMetricsReq, w)) return std::nullopt;
  const auto f = await(FrameType::kMetrics, timeout_ms);
  if (!f) return std::nullopt;
  MetricsMsg m;
  if (!decode_metrics({f->body.data(), f->body.size()}, m)) {
    fail("malformed METRICS reply");
    return std::nullopt;
  }
  return m;
}

std::optional<SlowMsg> Client::slow(int timeout_ms) {
  WireWriter w;  // empty body
  if (!send_frame(FrameType::kSlowReq, w)) return std::nullopt;
  const auto f = await(FrameType::kSlow, timeout_ms);
  if (!f) return std::nullopt;
  SlowMsg m;
  if (!decode_slow({f->body.data(), f->body.size()}, m)) {
    fail("malformed SLOW reply");
    return std::nullopt;
  }
  return m;
}

}  // namespace nabbitc::net
