// A stand-in for nabbitc-serve that answers every request at once, so the
// load generator can be measured alone: REGISTER, SUBMIT and SUBMIT_BATCH
// are answered with the same frames the daemon sends (REGISTERED,
// SUBMITTED / SUBMITTED_BATCH, then one RESULT per item carrying the
// reference sink value), with no scheduler, plan or persist work behind
// them. Accepted TCP sockets get TCP_NODELAY, so no Nagle stall either.
// One thread per connection; stop() (or the destructor) joins them all.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/submit_options.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/wire.h"

namespace e2ebench {

class StubServer {
 public:
  StubServer() = default;
  ~StubServer() { stop(); }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  bool start_unix(const std::string& path, std::string* err) {
    listen_ = nabbitc::net::listen_unix(path, err);
    return start();
  }
  bool start_tcp(std::string* err) {
    tcp_ = true;
    listen_ = nabbitc::net::listen_tcp_loopback(0, &port_, err);
    return start();
  }
  std::uint16_t tcp_port() const { return port_; }

  void stop() {
    stop_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& t : conns_) t.join();
    conns_.clear();
    listen_.reset();
  }

 private:
  bool start() {
    if (!listen_.valid()) return false;
    acceptor_ = std::thread([this] { accept_loop(); });
    return true;
  }

  void accept_loop() {
    while (!stop_.load()) {
      if (nabbitc::net::poll_readable(listen_.get(), 20) <= 0) continue;
      nabbitc::net::Fd fd(::accept4(listen_.get(), nullptr, nullptr, SOCK_CLOEXEC));
      if (!fd.valid()) continue;
      if (tcp_) {
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (!nabbitc::net::set_nonblocking(fd.get(), nullptr)) continue;
      conns_.emplace_back([this, f = std::move(fd)]() mutable { serve(std::move(f)); });
    }
  }

  void serve(nabbitc::net::Fd fd) {
    using nabbitc::net::FrameType;
    nabbitc::net::FrameAssembler in;
    nabbitc::net::FrameAssembler::Frame f;
    std::map<std::uint64_t, std::uint64_t> sink_of;  // handle -> sink value
    std::vector<std::uint8_t> out;
    std::uint8_t buf[16 * 1024];
    const auto put = [&](FrameType t, const nabbitc::net::WireWriter& w) {
      const std::vector<std::uint8_t> frame = w.frame(t);
      out.insert(out.end(), frame.begin(), frame.end());
    };
    const auto result = [&](std::uint64_t handle, std::uint64_t payload) {
      nabbitc::net::ResultMsg r;
      r.exec_id = next_id_.fetch_add(1);
      r.state = static_cast<std::uint8_t>(nabbitc::api::ExecStatus::kCompleted);
      r.sink_value = sink_of[handle];
      r.result = nabbitc::net::wire_result(r.sink_value, payload);
      return r;
    };
    while (!stop_.load()) {
      if (nabbitc::net::poll_readable(fd.get(), 20) <= 0) continue;
      std::size_t n = 0;
      const auto rs = nabbitc::net::read_some(fd.get(), buf, sizeof(buf), &n);
      if (rs == nabbitc::net::ReadStatus::kWouldBlock) continue;
      if (rs != nabbitc::net::ReadStatus::kData) return;
      in.feed(buf, n);
      out.clear();
      for (;;) {
        const auto got = in.next(f);
        if (got == nabbitc::net::FrameAssembler::Result::kNeedMore) break;
        if (got == nabbitc::net::FrameAssembler::Result::kError) return;
        const std::span<const std::uint8_t> body{f.body.data(), f.body.size()};
        nabbitc::net::WireWriter w;
        if (f.type == FrameType::kRegister) {
          nabbitc::net::WireGraph g;
          if (!nabbitc::net::decode_register(body, g, nullptr)) return;
          nabbitc::net::RegisteredMsg m;
          m.handle = nabbitc::net::wire_graph_hash(g);
          m.plan_nodes = static_cast<std::uint32_t>(g.nodes.size());
          m.shared = sink_of.count(m.handle) != 0 ? 1 : 0;
          sink_of[m.handle] = nabbitc::net::expected_sink_value(g);
          nabbitc::net::encode_registered(m, w);
          put(FrameType::kRegistered, w);
        } else if (f.type == FrameType::kSubmit) {
          nabbitc::net::SubmitRequest req;
          if (!nabbitc::net::decode_submit(body, req, nullptr)) return;
          const nabbitc::net::ResultMsg r = result(req.handle, req.payload);
          nabbitc::net::encode_submitted({r.exec_id}, w);
          put(FrameType::kSubmitted, w);
          nabbitc::net::WireWriter wr;
          nabbitc::net::encode_result(r, wr);
          put(FrameType::kResult, wr);
        } else if (f.type == FrameType::kSubmitBatch) {
          nabbitc::net::SubmitBatchRequest req;
          if (!nabbitc::net::decode_submit_batch(body, req, nullptr)) return;
          std::vector<nabbitc::net::ResultMsg> results;
          nabbitc::net::SubmittedBatchMsg m;
          for (const auto& item : req.items) {
            results.push_back(result(req.handle, item.payload));
            m.exec_ids.push_back(results.back().exec_id);
          }
          nabbitc::net::encode_submitted_batch(m, w);
          put(FrameType::kSubmittedBatch, w);
          for (const auto& r : results) {
            nabbitc::net::WireWriter wr;
            nabbitc::net::encode_result(r, wr);
            put(FrameType::kResult, wr);
          }
        } else {
          return;  // the generator sends nothing else
        }
      }
      if (!out.empty() &&
          !nabbitc::net::write_all(fd.get(), out.data(), out.size(), 10000)) {
        return;
      }
    }
  }

  nabbitc::net::Fd listen_;
  bool tcp_ = false;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::thread acceptor_;
  std::vector<std::thread> conns_;  // touched by the acceptor, then stop()
};

}  // namespace e2ebench
