// Tests for the graph service (src/net/): wire/protocol decoding under
// malformed and fuzzed input, and the nabbitc-serve daemon end to end —
// client+server in-process over Unix-domain and loopback-TCP sockets, with
// content-addressed plan sharing, BUSY backpressure, cancel-on-disconnect,
// and graceful shutdown under load.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/remote_graph.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "persist/mmap_file.h"
#include "persist/plan_blob.h"
#include "persist/plan_cache.h"
#include "plan/plan.h"
#include "support/rng.h"
#include "support/timing.h"

namespace nabbitc::net {
namespace {

// --------------------------------------------------------------- wire layer

std::vector<std::uint8_t> frame_bytes(FrameType t,
                                      const WireWriter& body) {
  return body.frame(t);
}

TEST(WireFrame, HeaderRoundTrip) {
  std::uint8_t hdr[kFrameHeaderBytes];
  write_frame_header(hdr, FrameType::kSubmit, 1234);
  FrameHeader out;
  ASSERT_EQ(parse_frame_header(hdr, out), HeaderStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kSubmit);
  EXPECT_EQ(out.body_len, 1234u);
}

TEST(WireFrame, HeaderRejectsMagicVersionTypeAndOversize) {
  std::uint8_t hdr[kFrameHeaderBytes];
  FrameHeader out;

  write_frame_header(hdr, FrameType::kSubmit, 0);
  hdr[0] = 'X';
  EXPECT_EQ(parse_frame_header(hdr, out), HeaderStatus::kBadMagic);

  write_frame_header(hdr, FrameType::kSubmit, 0);
  hdr[2] = kWireVersion + 1;
  EXPECT_EQ(parse_frame_header(hdr, out), HeaderStatus::kBadVersion);

  // 42 was never a FrameType; 5 and 70 were STATS_REQ/STATS until v4.
  for (const std::uint8_t t : {42, 5, 70}) {
    write_frame_header(hdr, FrameType::kSubmit, 0);
    hdr[3] = t;
    EXPECT_EQ(parse_frame_header(hdr, out), HeaderStatus::kUnknownType)
        << int{t};
  }

  write_frame_header(hdr, FrameType::kSubmit, kMaxFrameBody + 1);
  EXPECT_EQ(parse_frame_header(hdr, out), HeaderStatus::kOversized);
}

TEST(WireFrame, AssemblerReassemblesByteByByte) {
  WireWriter body;
  body.u64(0xdeadbeefcafef00dULL);
  const std::vector<std::uint8_t> wire =
      frame_bytes(FrameType::kSubmitted, body);

  FrameAssembler a;
  FrameAssembler::Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    a.feed(&wire[i], 1);
    EXPECT_EQ(a.next(f), FrameAssembler::Result::kNeedMore);
  }
  a.feed(&wire.back(), 1);
  ASSERT_EQ(a.next(f), FrameAssembler::Result::kFrame);
  EXPECT_EQ(f.type, FrameType::kSubmitted);
  SubmittedMsg m;
  ASSERT_TRUE(decode_submitted({f.body.data(), f.body.size()}, m));
  EXPECT_EQ(m.exec_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(a.next(f), FrameAssembler::Result::kNeedMore);
}

TEST(WireFrame, AssemblerErrorIsSticky) {
  FrameAssembler a;
  const std::uint8_t junk[kFrameHeaderBytes] = {'X', 'Y', 0, 0, 0, 0, 0, 0};
  a.feed(junk, sizeof(junk));
  FrameAssembler::Frame f;
  HeaderStatus hs = HeaderStatus::kOk;
  EXPECT_EQ(a.next(f, &hs), FrameAssembler::Result::kError);
  EXPECT_EQ(hs, HeaderStatus::kBadMagic);
  // Even valid bytes afterwards cannot resynchronize the stream.
  WireWriter body;
  const auto good = frame_bytes(FrameType::kMetricsReq, body);
  a.feed(good.data(), good.size());
  EXPECT_EQ(a.next(f, &hs), FrameAssembler::Result::kError);
  EXPECT_TRUE(a.broken());
}

TEST(WireProtocol, MessageRoundTrips) {
  {
    RegisteredMsg in{0x1122334455667788ULL, 77, 1};
    WireWriter w;
    encode_registered(in, w);
    RegisteredMsg out;
    ASSERT_TRUE(decode_registered(w.span(), out));
    EXPECT_EQ(out.handle, in.handle);
    EXPECT_EQ(out.plan_nodes, in.plan_nodes);
    EXPECT_EQ(out.shared, in.shared);
  }
  {
    SubmitRequest in;
    in.handle = 9;
    in.payload = 0xabc;
    in.priority = 2;
    in.deadline_rel_ns = 5'000'000;
    in.name = "req-a";
    WireWriter w;
    encode_submit(in, w);
    SubmitRequest out;
    ASSERT_TRUE(decode_submit(w.span(), out, nullptr));
    EXPECT_EQ(out.handle, in.handle);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(out.priority, in.priority);
    EXPECT_EQ(out.deadline_rel_ns, in.deadline_rel_ns);
    EXPECT_EQ(out.name, in.name);
  }
  {
    ResultMsg in{1, 2, 3, 4, 5, 6, 7};
    WireWriter w;
    encode_result(in, w);
    ResultMsg out;
    ASSERT_TRUE(decode_result(w.span(), out));
    EXPECT_EQ(out.exec_id, 1u);
    EXPECT_EQ(out.latency_ns, 7u);
  }
  {
    ErrorMsg in{static_cast<std::uint8_t>(ErrCode::kBadRegister),
                "why it failed"};
    WireWriter w;
    encode_error(in, w);
    ErrorMsg out;
    ASSERT_TRUE(decode_error(w.span(), out));
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.message, in.message);
  }
}

TEST(WireProtocol, MetricsRoundTripsAndParsesStrictly) {
  MetricsMsg in;
  MetricEntry c;
  c.name = "requests_total";
  c.kind = 0;
  c.value = 12345;
  in.entries.push_back(c);
  MetricEntry h;
  h.name = "latency_ns";
  h.kind = 2;
  h.value = 3;
  h.buckets = {0, 1, 0, 2};
  in.entries.push_back(h);

  WireWriter w;
  encode_metrics(in, w);
  MetricsMsg out;
  ASSERT_TRUE(decode_metrics(w.span(), out));
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].name, "requests_total");
  EXPECT_EQ(out.entries[0].value, 12345u);
  EXPECT_TRUE(out.entries[0].buckets.empty());
  EXPECT_EQ(out.entries[1].name, "latency_ns");
  EXPECT_EQ(out.entries[1].kind, 2u);
  ASSERT_EQ(out.entries[1].buckets.size(), 4u);
  EXPECT_EQ(out.entries[1].buckets[3], 2u);

  // Truncation at every byte boundary fails cleanly; trailing garbage too.
  const auto full = w.span();
  for (std::size_t n = 0; n < full.size(); ++n) {
    MetricsMsg m;
    EXPECT_FALSE(decode_metrics(full.subspan(0, n), m)) << "len " << n;
  }
  std::vector<std::uint8_t> padded(full.begin(), full.end());
  padded.push_back(0);
  MetricsMsg m;
  EXPECT_FALSE(decode_metrics({padded.data(), padded.size()}, m));

  // An absurd entry count is rejected before any allocation.
  WireWriter bomb;
  bomb.u32(0x7fffffff);
  EXPECT_FALSE(decode_metrics(bomb.span(), m));
}

TEST(WireProtocol, SlowRoundTripsAndParsesStrictly) {
  SlowMsg in;
  SlowEntryMsg e;
  e.exec_id = 7;
  e.state = 2;
  e.latency_ns = 5'000'000;
  e.t_decode_ns = 100;
  e.t_admit_ns = 110;
  e.t_submit_ns = 120;
  e.t_dispatch_ns = 130;
  e.t_complete_ns = 5'000'120;
  e.t_reply_ns = 5'000'200;
  e.name = "slow-one";
  in.entries.push_back(e);

  WireWriter w;
  encode_slow(in, w);
  SlowMsg out;
  ASSERT_TRUE(decode_slow(w.span(), out));
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].exec_id, 7u);
  EXPECT_EQ(out.entries[0].latency_ns, 5'000'000u);
  EXPECT_EQ(out.entries[0].t_reply_ns, 5'000'200u);
  EXPECT_EQ(out.entries[0].name, "slow-one");

  const auto full = w.span();
  for (std::size_t n = 0; n < full.size(); ++n) {
    SlowMsg m;
    EXPECT_FALSE(decode_slow(full.subspan(0, n), m)) << "len " << n;
  }
  WireWriter bomb;
  bomb.u32(0xffffff);
  SlowMsg m;
  EXPECT_FALSE(decode_slow(bomb.span(), m));
}

TEST(WireProtocol, RegisterRoundTripsAndIsContentAddressed) {
  const WireGraph g = make_wavefront_wire_graph(4, 7);
  WireWriter w;
  encode_register(g, w);
  WireGraph out;
  ASSERT_TRUE(decode_register(w.span(), out, nullptr));
  ASSERT_EQ(out.nodes.size(), g.nodes.size());
  EXPECT_EQ(out.seed, g.seed);
  EXPECT_EQ(out.nodes[5].preds, g.nodes[5].preds);

  EXPECT_EQ(wire_graph_hash(g), wire_graph_hash(out));
  WireGraph other = g;
  other.seed ^= 1;
  EXPECT_NE(wire_graph_hash(g), wire_graph_hash(other));
  EXPECT_NE(wire_graph_hash(g), 0u);
}

TEST(WireProtocol, RegisterRejectsMalformedBodies) {
  const WireGraph g = make_wavefront_wire_graph(3, 1);
  WireWriter w;
  encode_register(g, w);
  WireGraph out;
  std::string why;

  // Truncation at every byte boundary fails cleanly (never crashes).
  for (std::size_t keep = 0; keep < w.size(); ++keep) {
    EXPECT_FALSE(decode_register({w.data(), keep}, out, &why)) << keep;
  }
  // Trailing bytes are an error too.
  std::vector<std::uint8_t> padded(w.data(), w.data() + w.size());
  padded.push_back(0);
  EXPECT_FALSE(decode_register({padded.data(), padded.size()}, out, &why));

  {
    WireWriter bad;  // zero nodes
    bad.u64(1);
    bad.u32(0);
    bad.u32(0);
    EXPECT_FALSE(decode_register(bad.span(), out, &why));
  }
  {
    WireWriter bad;  // node count over cap
    bad.u64(1);
    bad.u32(0);
    bad.u32(kMaxWireNodes + 1);
    EXPECT_FALSE(decode_register(bad.span(), out, &why));
  }
  {
    WireWriter bad;  // spin over cap
    bad.u64(1);
    bad.u32(kMaxNodeSpinNs + 1);
    bad.u32(1);
    bad.u8(0);
    bad.u8(0);
    EXPECT_FALSE(decode_register(bad.span(), out, &why));
  }
  {
    WireWriter bad;  // forward (non-topological) predecessor
    bad.u64(1);
    bad.u32(0);
    bad.u32(2);
    bad.u8(0);
    bad.u8(0);  // node 0: no preds
    bad.u8(0);
    bad.u8(1);
    bad.u32(1);  // node 1 depends on itself
    EXPECT_FALSE(decode_register(bad.span(), out, &why));
    EXPECT_FALSE(why.empty());
  }
  {
    WireWriter bad;  // duplicate predecessor
    bad.u64(1);
    bad.u32(0);
    bad.u32(2);
    bad.u8(0);
    bad.u8(0);
    bad.u8(0);
    bad.u8(2);
    bad.u32(0);
    bad.u32(0);
    EXPECT_FALSE(decode_register(bad.span(), out, &why));
  }
}

TEST(WireProtocol, SubmitRejectsBadPriorityAndOverlongName) {
  SubmitRequest in;
  in.priority = 3;
  WireWriter w;
  encode_submit(in, w);
  SubmitRequest out;
  EXPECT_FALSE(decode_submit(w.span(), out, nullptr));

  in.priority = 1;
  in.name.assign(kMaxNameLen + 1, 'x');
  WireWriter w2;
  encode_submit(in, w2);
  EXPECT_FALSE(decode_submit(w2.span(), out, nullptr));

  // A relative deadline past the cap (UINT64_MAX, say, sent to mean "none")
  // is refused instead of wrapping into an instant expiry; the cap itself
  // is accepted.
  in.name.clear();
  for (const std::uint64_t rel : {kMaxDeadlineRelNs + 1, ~std::uint64_t{0}}) {
    in.deadline_rel_ns = rel;
    WireWriter w3;
    encode_submit(in, w3);
    EXPECT_FALSE(decode_submit(w3.span(), out, nullptr)) << rel;
  }
  in.deadline_rel_ns = kMaxDeadlineRelNs;
  WireWriter w4;
  encode_submit(in, w4);
  ASSERT_TRUE(decode_submit(w4.span(), out, nullptr));
  EXPECT_EQ(out.deadline_rel_ns, kMaxDeadlineRelNs);
}

TEST(WireProtocol, SubmitBatchRoundTripsAndParsesStrictly) {
  SubmitBatchRequest in;
  in.handle = 0xdeadbeefcafe;
  in.items.resize(3);
  in.items[0].payload = 7;
  in.items[1].payload = 8;
  in.items[1].priority = 0;  // high
  in.items[1].deadline_rel_ns = 5'000'000;
  in.items[1].name = "item-b";
  in.items[2].payload = 9;
  in.items[2].priority = 2;  // low
  WireWriter w;
  encode_submit_batch(in, w);

  SubmitBatchRequest out;
  std::string why;
  ASSERT_TRUE(decode_submit_batch(w.span(), out, &why)) << why;
  EXPECT_EQ(out.handle, in.handle);
  ASSERT_EQ(out.items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.items[i].payload, in.items[i].payload);
    EXPECT_EQ(out.items[i].priority, in.items[i].priority);
    EXPECT_EQ(out.items[i].deadline_rel_ns, in.items[i].deadline_rel_ns);
    EXPECT_EQ(out.items[i].name, in.items[i].name);
  }

  // Strict total parsing, like every other codec: truncation at every byte
  // boundary fails cleanly, and so do trailing bytes.
  for (std::size_t keep = 0; keep < w.size(); ++keep) {
    EXPECT_FALSE(decode_submit_batch({w.data(), keep}, out, &why)) << keep;
  }
  std::vector<std::uint8_t> padded(w.data(), w.data() + w.size());
  padded.push_back(0);
  EXPECT_FALSE(decode_submit_batch({padded.data(), padded.size()}, out, &why));

  {
    WireWriter bad;  // zero items
    bad.u64(1);
    bad.u32(0);
    EXPECT_FALSE(decode_submit_batch(bad.span(), out, &why));
  }
  {
    WireWriter bad;  // count over cap (no item bytes needed: count first)
    bad.u64(1);
    bad.u32(kMaxBatchItems + 1);
    EXPECT_FALSE(decode_submit_batch(bad.span(), out, &why));
  }
  {
    SubmitBatchRequest b = in;  // per-item priority out of range
    b.items[1].priority = 3;
    WireWriter wb;
    encode_submit_batch(b, wb);
    EXPECT_FALSE(decode_submit_batch(wb.span(), out, &why));
  }
  {
    SubmitBatchRequest b = in;  // per-item name over cap
    b.items[2].name.assign(kMaxNameLen + 1, 'x');
    WireWriter wb;
    encode_submit_batch(b, wb);
    EXPECT_FALSE(decode_submit_batch(wb.span(), out, &why));
  }
  for (const std::uint64_t rel : {kMaxDeadlineRelNs + 1, ~std::uint64_t{0}}) {
    SubmitBatchRequest b = in;  // per-item deadline over cap
    b.items[2].deadline_rel_ns = rel;
    WireWriter wb;
    encode_submit_batch(b, wb);
    EXPECT_FALSE(decode_submit_batch(wb.span(), out, &why)) << rel;
  }
}

TEST(WireProtocol, SubmittedBatchRoundTripsAndParsesStrictly) {
  SubmittedBatchMsg in;
  in.exec_ids = {100, 101, 102};
  in.rejected = 2;
  in.busy_scope = static_cast<std::uint8_t>(BusyScope::kGlobal);
  WireWriter w;
  encode_submitted_batch(in, w);

  SubmittedBatchMsg out;
  ASSERT_TRUE(decode_submitted_batch(w.span(), out));
  EXPECT_EQ(out.exec_ids, in.exec_ids);
  EXPECT_EQ(out.rejected, 2u);
  EXPECT_EQ(out.busy_scope, in.busy_scope);

  for (std::size_t keep = 0; keep < w.size(); ++keep) {
    EXPECT_FALSE(decode_submitted_batch({w.data(), keep}, out)) << keep;
  }
  std::vector<std::uint8_t> padded(w.data(), w.data() + w.size());
  padded.push_back(0);
  EXPECT_FALSE(decode_submitted_batch({padded.data(), padded.size()}, out));

  WireWriter bad;  // accepted count over cap
  bad.u32(kMaxBatchItems + 1);
  bad.u32(0);
  bad.u8(0);
  EXPECT_FALSE(decode_submitted_batch(bad.span(), out));
}

// Fixed-seed fuzz: random bytes and corrupted valid frames must never
// crash or hang the assembler/decoders — only produce clean errors.
TEST(WireFuzz, RandomBytesProduceCleanErrorsNotCrashes) {
  Pcg32 rng(0xfeedface, 0x1);
  const WireGraph valid_graph = make_wavefront_wire_graph(4, 3);
  WireWriter reg_body;
  encode_register(valid_graph, reg_body);
  const auto valid_frame = frame_bytes(FrameType::kRegister, reg_body);

  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bytes;
    if (iter % 2 == 0) {
      // Pure noise.
      bytes.resize(16 + rng.below(512));
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    } else {
      // A valid frame with a few corrupted bytes (sometimes magic-
      // preserving so corruption lands in the body, not the header).
      bytes = valid_frame;
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int k = 0; k < flips; ++k) {
        const std::uint32_t at =
            (iter % 4 == 1) ? 4 + rng.below(static_cast<std::uint32_t>(
                                      bytes.size() - 4))
                            : rng.below(static_cast<std::uint32_t>(
                                  bytes.size()));
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
    }

    FrameAssembler a;
    std::size_t off = 0;
    while (off < bytes.size()) {  // random chunking
      const std::size_t n = std::min<std::size_t>(
          1 + rng.below(64), bytes.size() - off);
      a.feed(&bytes[off], n);
      off += n;
    }
    FrameAssembler::Frame f;
    for (int guard = 0; guard < 1000; ++guard) {
      const auto r = a.next(f);
      if (r != FrameAssembler::Result::kFrame) break;
      // Whatever came out, every decoder must handle the body totally.
      const std::span<const std::uint8_t> body(f.body.data(), f.body.size());
      WireGraph g;
      std::string why;
      (void)decode_register(body, g, &why);
      SubmitRequest sr;
      (void)decode_submit(body, sr, &why);
      RegisteredMsg rm;
      (void)decode_registered(body, rm);
      ResultMsg res;
      (void)decode_result(body, res);
      StatusMsg st;
      (void)decode_status(body, st);
      MetricsMsg metrics;
      (void)decode_metrics(body, metrics);
      ErrorMsg em;
      (void)decode_error(body, em);
      std::uint64_t id;
      (void)decode_status_req(body, id);
    }
  }
}

// The wire node function executed by the runtime matches the client-side
// reference evaluation bit for bit (no sockets involved).
TEST(WireProtocol, RuntimeExecutionMatchesExpectedValues) {
  const WireGraph g = make_random_wire_graph(0x5eed, 200);
  api::RuntimeOptions ro;
  ro.workers = 2;
  api::Runtime rt(ro);
  RemoteGraphSpec spec(g, rt.workers());
  const auto plan = rt.compile(spec, g.sink(), 1);
  api::Execution e = rt.run(*plan);
  ASSERT_EQ(e.status().state, api::ExecStatus::kCompleted);
  const auto* sink = static_cast<const ServeNode*>(e.find(g.sink()));
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->value, expected_sink_value(g));
}

// ------------------------------------------------------------- end to end

std::string unique_sock_path(const char* tag) {
  static std::atomic<int> counter{0};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/nbt-%d-%s-%d.sock",
                static_cast<int>(::getpid()), tag,
                counter.fetch_add(1, std::memory_order_relaxed));
  return buf;
}

ServerOptions test_opts(const std::string& sock_path,
                        std::uint32_t workers = 2) {
  ServerOptions o;
  o.runtime.workers = workers;
  o.unix_path = sock_path;
  return o;
}

/// Serial chain: node i depends on i-1. With node_spin_ns this is a
/// controllably-slow execution no worker count can shorten.
WireGraph make_chain(std::uint32_t n, std::uint64_t seed,
                     std::uint32_t spin_ns) {
  WireGraph g;
  g.seed = seed;
  g.node_spin_ns = spin_ns;
  g.nodes.resize(n);
  for (std::uint32_t i = 1; i < n; ++i) g.nodes[i].preds.push_back(i - 1);
  return g;
}

bool wait_for_zero_inflight(Server& server, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (now_ns() < deadline) {
    if (server.stats().in_flight == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Waits until every pooled instance is back on the plan's free list. A
// session releases an instance when it erases the in-flight record, which
// happens AFTER the RESULT frame is sent and after the global in-flight
// counter drops — so zero-in-flight does not imply the pool is quiescent.
// Watermark assertions must wait for free == built.
bool wait_for_pool_quiescent(const plan::GraphPlan* plan, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (now_ns() < deadline) {
    if (plan->instances_free() == plan->instances_built()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(NetService, RegisterSubmitResultOverUnix) {
  const std::string path = unique_sock_path("basic");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path)) << c.last_error();
  const WireGraph g = make_wavefront_wire_graph(6, 11);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();
  EXPECT_EQ(reg->handle, wire_graph_hash(g));
  EXPECT_EQ(reg->plan_nodes, 36u);
  EXPECT_EQ(reg->shared, 0u);

  const std::uint64_t payload = 0xfeed;
  const auto sub = c.submit(reg->handle, payload, api::Priority::kNormal,
                            /*deadline_rel_ns=*/0, "basic-test");
  ASSERT_TRUE(sub) << c.last_error();
  ASSERT_TRUE(sub->accepted);
  const auto res = c.wait_result(sub->exec_id);
  ASSERT_TRUE(res) << c.last_error();
  EXPECT_EQ(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  EXPECT_EQ(res->computed, 36u);
  EXPECT_EQ(res->skipped, 0u);
  EXPECT_EQ(res->sink_value, expected_sink_value(g));
  EXPECT_EQ(res->result, wire_result(expected_sink_value(g), payload));
  EXPECT_GT(res->latency_ns, 0u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.registered_specs, 1u);
  EXPECT_EQ(stats.plans_compiled, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  server.stop();
}

TEST(NetService, MetricsAndSlowCaptureOverUnix) {
  const std::string path = unique_sock_path("metrics");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path)) << c.last_error();
  const WireGraph g = make_wavefront_wire_graph(5, 3);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();

  constexpr std::uint32_t kSubmits = 6;
  for (std::uint32_t i = 0; i < kSubmits; ++i) {
    const auto sub = c.submit(reg->handle, i, api::Priority::kNormal,
                              /*deadline_rel_ns=*/0, "metrics-test");
    ASSERT_TRUE(sub) << c.last_error();
    ASSERT_TRUE(sub->accepted);
    ASSERT_TRUE(c.wait_result(sub->exec_id)) << c.last_error();
  }

  const auto m = c.metrics();
  ASSERT_TRUE(m) << c.last_error();
  const auto find = [&](const char* name) { return m->find(name); };
  // The registry is process-global (other tests in this binary also push
  // submissions through sessions), so counts are >=, not ==.
  const MetricEntry* sc = find("submit_complete_ns");
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->kind, static_cast<std::uint8_t>(obs::MetricKind::kHistogram));
  EXPECT_GE(sc->value, kSubmits);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : sc->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, sc->value);  // value IS the bucket-count total
  // Server-derived scrape-time entries.
  for (const char* name :
       {"net_sessions_active", "net_inflight", "net_submitted_total",
        "net_completed_total", "rt_arena_bytes", "sched_lane_depth_0"}) {
    EXPECT_NE(find(name), nullptr) << name;
  }
  const MetricEntry* completed = find("net_completed_total");
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->value, kSubmits);
  // Completion -> RESULT-write pickup: one sample per delivered RESULT.
  const MetricEntry* pickup = find("net_pickup_ns");
  ASSERT_NE(pickup, nullptr);
  EXPECT_EQ(pickup->kind,
            static_cast<std::uint8_t>(obs::MetricKind::kHistogram));
  EXPECT_GE(pickup->value, kSubmits);

  // Per-plan latency breakdown, bound at registration.
  char per_plan[64];
  std::snprintf(per_plan, sizeof(per_plan), "submit_complete_ns_plan_%016llx",
                static_cast<unsigned long long>(reg->handle));
  const MetricEntry* pp = find(per_plan);
  ASSERT_NE(pp, nullptr);
  EXPECT_EQ(pp->value, kSubmits);  // this plan is only replayed here

  // Slow-request capture: every completed request was noted, so the ring
  // holds up to K of ours with coherent stage stamps.
  const auto slow = c.slow();
  ASSERT_TRUE(slow) << c.last_error();
  ASSERT_FALSE(slow->entries.empty());
  for (const SlowEntryMsg& e : slow->entries) {
    EXPECT_GT(e.latency_ns, 0u);
    if (e.t_decode_ns != 0) {  // stamps present when metrics are on
      EXPECT_GE(e.t_admit_ns, e.t_decode_ns);
      EXPECT_GE(e.t_submit_ns, e.t_admit_ns);
      EXPECT_GE(e.t_complete_ns, e.t_submit_ns);
      if (e.t_reply_ns != 0) {
        EXPECT_GE(e.t_reply_ns, e.t_complete_ns);
      }
    }
  }
  // Sorted slowest-first.
  for (std::size_t i = 1; i < slow->entries.size(); ++i) {
    EXPECT_LE(slow->entries[i].latency_ns, slow->entries[i - 1].latency_ns);
  }
  server.stop();
}

// The session sleeps until the finishing worker wakes it: a ~50 ms
// execution costs no periodic wakeups (a 1 ms poll would make ~50 empty
// ones), and its RESULT still arrives.
TEST(NetService, ResultArrivesWithoutPolling) {
  const std::string path = unique_sock_path("nopoll");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path)) << c.last_error();
  const WireGraph g = make_chain(50, 0x44, 1'000'000);  // ~50 ms serial
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();
  // Too big to run inline at submit: a worker finishes it.
  ASSERT_FALSE(server.debug_plan(reg->handle)->serial_lowered());

  const obs::Counter& empty =
      obs::registry().counter("net_session_empty_wakeups_total");
  const std::uint64_t empty_before = empty.value();
  const std::uint64_t t0 = now_ns();
  const auto sub = c.submit(reg->handle, 77, api::Priority::kNormal);
  ASSERT_TRUE(sub && sub->accepted) << c.last_error();
  const auto res = c.wait_result(sub->exec_id, /*timeout_ms=*/10'000);
  ASSERT_TRUE(res) << c.last_error();
  const std::uint64_t elapsed_ns = now_ns() - t0;
  EXPECT_EQ(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  EXPECT_EQ(res->result, wire_result(expected_sink_value(g), 77));
  EXPECT_GE(elapsed_ns, 40'000'000ull);  // it really executed ~50 ms
  EXPECT_LE(empty.value() - empty_before, 2u)
      << "the session woke without work during a "
      << elapsed_ns / 1'000'000 << " ms execution";
  server.stop();
}

/// CPU time (user + system) this process has used so far.
std::uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

// At the fd limit accept4 fails with EMFILE while the refused connection
// stays queued, keeping the listen fd readable: the accept thread must back
// off instead of spinning on poll, and serve the connection once fds are
// available again. (Each test runs in its own process under ctest, so the
// lowered limit stays inside this test; it is restored before returning.)
TEST(NetService, AcceptBacksOffAtTheFdLimit) {
  const std::string path = unique_sock_path("emfile");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const obs::Counter& backoffs =
      obs::registry().counter("net_accept_backoff_total");
  const std::uint64_t backoffs_before = backoffs.value();

  // The client socket exists before the limit drops; connect needs no fd.
  Fd client(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // The lowest free fd number becomes the soft limit: no fd below it is
  // free, so the server's next accept4 cannot get one.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int probe = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(probe);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  const int connected = ::connect(
      client.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const std::uint64_t cpu0 = process_cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t cpu_ns = process_cpu_ns() - cpu0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(connected, 0) << std::strerror(errno);

  EXPECT_LT(cpu_ns, 100'000'000ull)
      << "the accept thread spun at the fd limit";
  EXPECT_GT(backoffs.value(), backoffs_before);

  // With fds available again the queued connection is accepted and served.
  WireWriter body;
  const auto req = frame_bytes(FrameType::kMetricsReq, body);
  ASSERT_EQ(::write(client.get(), req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  pollfd pfd{client.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << "no reply after the limit lifted";
  std::uint8_t hdr[kFrameHeaderBytes];
  ASSERT_EQ(::read(client.get(), hdr, sizeof(hdr)),
            static_cast<ssize_t>(sizeof(hdr)));
  FrameHeader fh;
  ASSERT_EQ(parse_frame_header(hdr, fh), HeaderStatus::kOk);
  EXPECT_EQ(fh.type, FrameType::kMetrics);
  server.stop();
}

TEST(NetService, SubmitDeadlineStopsARunningGraph) {
  // A session never waits on its executions, so a SUBMIT's relative
  // deadline must stop the graph by itself once it is running: a 24x24
  // wavefront of 1 ms nodes (~300 ms on two workers) with a 5 ms deadline,
  // neither cancelled nor waited on by anyone but the RESULT push.
  const std::string path = unique_sock_path("deadline");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path)) << c.last_error();
  const WireGraph g = make_wavefront_wire_graph(24, 0x5d, 1'000'000);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();
  const auto sub = c.submit(reg->handle, 3, api::Priority::kNormal,
                            /*deadline_rel_ns=*/5'000'000);
  ASSERT_TRUE(sub && sub->accepted) << c.last_error();
  const auto res = c.wait_result(sub->exec_id, /*timeout_ms=*/10'000);
  ASSERT_TRUE(res) << c.last_error();
  EXPECT_EQ(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kDeadlineExceeded));
  EXPECT_GT(res->skipped, 0u);
  EXPECT_EQ(res->result, 0u);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
  server.stop();
}

TEST(NetService, RegisterSubmitResultOverTcp) {
  ServerOptions o;
  o.runtime.workers = 2;
  o.tcp = true;
  o.tcp_port = 0;  // ephemeral
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_NE(server.tcp_port(), 0);

  Client c;
  ASSERT_TRUE(c.connect_tcp(server.tcp_port())) << c.last_error();
  const WireGraph g = make_random_wire_graph(0xabc, 64);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();
  const auto sub = c.submit(reg->handle, 5, api::Priority::kHigh);
  ASSERT_TRUE(sub && sub->accepted) << c.last_error();
  const auto res = c.wait_result(sub->exec_id);
  ASSERT_TRUE(res) << c.last_error();
  EXPECT_EQ(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  EXPECT_EQ(res->sink_value, expected_sink_value(g));
  server.stop();
}

TEST(NetSocket, AcceptedConnectionsAreCloexecAndTcpIsNoDelay) {
  std::string err;
  std::uint16_t port = 0;
  Fd tcp_listener = listen_tcp_loopback(0, &port, &err);
  ASSERT_TRUE(tcp_listener.valid()) << err;
  Fd tcp_client = connect_tcp_loopback(port, &err);
  ASSERT_TRUE(tcp_client.valid()) << err;
  Fd tcp_server_side = accept_conn(tcp_listener.get());
  ASSERT_TRUE(tcp_server_side.valid());
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(tcp_server_side.get(), IPPROTO_TCP, TCP_NODELAY,
                         &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
  EXPECT_NE(::fcntl(tcp_server_side.get(), F_GETFD) & FD_CLOEXEC, 0);

  // A Unix-domain connection takes the same path minus the TCP option.
  const std::string path = unique_sock_path("accept");
  Fd unix_listener = listen_unix(path, &err);
  ASSERT_TRUE(unix_listener.valid()) << err;
  Fd unix_client = connect_unix(path, &err);
  ASSERT_TRUE(unix_client.valid()) << err;
  Fd unix_server_side = accept_conn(unix_listener.get());
  ASSERT_TRUE(unix_server_side.valid());
  EXPECT_NE(::fcntl(unix_server_side.get(), F_GETFD) & FD_CLOEXEC, 0);
  ::unlink(path.c_str());
}

TEST(NetService, SharedPlanCompiledOnceAcrossSessions) {
  const std::string path = unique_sock_path("shared");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const WireGraph g = make_wavefront_wire_graph(5, 99);
  Client a, b;
  ASSERT_TRUE(a.connect_unix(path));
  ASSERT_TRUE(b.connect_unix(path));
  const auto ra = a.register_graph(g);
  ASSERT_TRUE(ra) << a.last_error();
  EXPECT_EQ(ra->shared, 0u);
  const auto rb = b.register_graph(g);
  ASSERT_TRUE(rb) << b.last_error();
  EXPECT_EQ(rb->handle, ra->handle);  // content-addressed
  EXPECT_EQ(rb->shared, 1u);          // found, not compiled

  // Both sessions replay the one shared compiled plan.
  const plan::GraphPlan* p = server.debug_plan(ra->handle);
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 3; ++i) {
    const auto sa = a.submit(ra->handle, 100 + i, api::Priority::kNormal);
    const auto sb = b.submit(rb->handle, 200 + i, api::Priority::kLow);
    ASSERT_TRUE(sa && sa->accepted);
    ASSERT_TRUE(sb && sb->accepted);
    const auto res_a = a.wait_result(sa->exec_id);
    const auto res_b = b.wait_result(sb->exec_id);
    ASSERT_TRUE(res_a && res_b);
    EXPECT_EQ(res_a->sink_value, expected_sink_value(g));
    EXPECT_EQ(res_b->sink_value, expected_sink_value(g));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.registered_specs, 1u);
  EXPECT_EQ(stats.plans_compiled, 1u);  // compiled exactly once
  EXPECT_EQ(stats.sessions_opened, 2u);
  server.stop();
}

TEST(NetService, UnknownHandleKeepsSessionAlive) {
  const std::string path = unique_sock_path("unk");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  const auto sub = c.submit(0x12345, 1, api::Priority::kNormal);
  EXPECT_FALSE(sub.has_value());
  EXPECT_NE(c.last_error().find("unknown_handle"), std::string::npos)
      << c.last_error();
  // The session survived the logic error; the connection still works.
  const auto m = c.metrics();
  ASSERT_TRUE(m) << c.last_error();
  const MetricEntry* submitted = m->find("net_submitted_total");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->value, 0u);
  server.stop();
}

TEST(NetService, BusyBackpressurePerSessionAndGlobal) {
  const std::string path = unique_sock_path("busy");
  ServerOptions o = test_opts(path);
  o.max_inflight_per_session = 2;
  o.max_inflight_global = 3;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // ~80 ms serial chain: submissions stay in flight while we over-submit.
  // 40 nodes, deliberately ABOVE the tiny-graph lowering bound — an inline
  // serial replay completes before the submit reply, so it could never
  // occupy an in-flight slot.
  const WireGraph slow = make_chain(40, 5, 2'000'000);
  Client a, b;
  ASSERT_TRUE(a.connect_unix(path));
  ASSERT_TRUE(b.connect_unix(path));
  const auto reg_a = a.register_graph(slow);
  const auto reg_b = b.register_graph(slow);
  ASSERT_TRUE(reg_a && reg_b);

  std::vector<std::uint64_t> accepted;
  // Session A fills its per-session cap (2), then gets session-scope BUSY.
  for (int i = 0; i < 3; ++i) {
    const auto s = a.submit(reg_a->handle, i, api::Priority::kNormal);
    ASSERT_TRUE(s) << a.last_error();
    if (s->accepted) {
      accepted.push_back(s->exec_id);
    } else {
      EXPECT_EQ(s->busy.scope,
                static_cast<std::uint8_t>(BusyScope::kSession));
      EXPECT_EQ(s->busy.limit, 2u);
    }
  }
  ASSERT_EQ(accepted.size(), 2u);

  // Session B: one fits under the global cap (3), the next is global BUSY.
  const auto s1 = b.submit(reg_b->handle, 10, api::Priority::kNormal);
  ASSERT_TRUE(s1 && s1->accepted) << b.last_error();
  const auto s2 = b.submit(reg_b->handle, 11, api::Priority::kNormal);
  ASSERT_TRUE(s2) << b.last_error();
  EXPECT_FALSE(s2->accepted);
  EXPECT_EQ(s2->busy.scope, static_cast<std::uint8_t>(BusyScope::kGlobal));

  for (const std::uint64_t id : accepted) {
    const auto r = a.wait_result(id);
    ASSERT_TRUE(r) << a.last_error();
    EXPECT_EQ(r->state,
              static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  }
  ASSERT_TRUE(b.wait_result(s1->exec_id));
  // Slots freed: the same session can submit again.
  const auto s3 = b.submit(reg_b->handle, 12, api::Priority::kNormal);
  ASSERT_TRUE(s3 && s3->accepted) << b.last_error();
  ASSERT_TRUE(b.wait_result(s3->exec_id));
  EXPECT_GE(server.stats().rejected_busy, 2u);
  server.stop();
}

TEST(NetService, BatchSubmitDeliversPerItemResults) {
  const std::string path = unique_sock_path("batch");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  const WireGraph g = make_wavefront_wire_graph(6, 21);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();

  // One frame, five submissions — mixed priorities, a name, and one item
  // whose (relative) deadline is long expired by adoption time.
  std::vector<Client::BatchItem> items(5);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].payload = 0x100 + i;
  }
  items[1].priority = api::Priority::kHigh;
  items[1].name = "batch-item-b";
  items[3].deadline_rel_ns = 1;
  const auto batch = c.submit_batch(reg->handle, items);
  ASSERT_TRUE(batch) << c.last_error();
  EXPECT_EQ(batch->rejected, 0u);
  EXPECT_EQ(batch->busy_scope, 0u);
  ASSERT_EQ(batch->exec_ids.size(), 5u);

  // Results still arrive per item, bitwise-correct per payload.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto r = c.wait_result(batch->exec_ids[i]);
    ASSERT_TRUE(r) << c.last_error();
    if (i == 3) {
      EXPECT_EQ(r->state,
                static_cast<std::uint8_t>(api::ExecStatus::kDeadlineExceeded));
      EXPECT_EQ(r->computed, 0u);
      EXPECT_EQ(r->skipped, 36u);
    } else {
      EXPECT_EQ(r->state,
                static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
      EXPECT_EQ(r->computed, 36u);
      EXPECT_EQ(r->sink_value, expected_sink_value(g));
      EXPECT_EQ(r->result, wire_result(expected_sink_value(g), items[i].payload));
    }
  }
  EXPECT_EQ(server.stats().submitted, 5u);

  // Client-side validation: an empty batch never hits the wire.
  EXPECT_FALSE(c.submit_batch(reg->handle, {}));
  // Unknown handle: error reply, but the session keeps serving.
  EXPECT_FALSE(c.submit_batch(0xbad0, items));
  EXPECT_NE(c.last_error().find("unknown_handle"), std::string::npos)
      << c.last_error();
  ASSERT_TRUE(c.metrics()) << c.last_error();
  server.stop();
}

TEST(NetService, BatchAdmissionAdmitsPrefixAndReportsScope) {
  const std::string path = unique_sock_path("batchbusy");
  ServerOptions o = test_opts(path);
  o.max_inflight_per_session = 2;
  o.max_inflight_global = 3;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // ~60 ms serial chain keeps the admitted prefix in flight while the caps
  // reject the suffix.
  const WireGraph slow = make_chain(30, 5, 2'000'000);
  Client a, b;
  ASSERT_TRUE(a.connect_unix(path));
  ASSERT_TRUE(b.connect_unix(path));
  const auto reg_a = a.register_graph(slow);
  const auto reg_b = b.register_graph(slow);
  ASSERT_TRUE(reg_a && reg_b);

  std::vector<Client::BatchItem> four(4);
  for (std::size_t i = 0; i < four.size(); ++i) four[i].payload = i;

  // Session A: the per-session cap (2) clips the batch first.
  const auto ba = a.submit_batch(reg_a->handle, four);
  ASSERT_TRUE(ba) << a.last_error();
  ASSERT_EQ(ba->exec_ids.size(), 2u);
  EXPECT_EQ(ba->rejected, 2u);
  EXPECT_EQ(ba->busy_scope, static_cast<std::uint8_t>(BusyScope::kSession));

  // Session B: its session cap allows 2, but only 1 global slot is left —
  // the global grab comes up short, so the scope is global.
  const auto bb = b.submit_batch(reg_b->handle, four);
  ASSERT_TRUE(bb) << b.last_error();
  ASSERT_EQ(bb->exec_ids.size(), 1u);
  EXPECT_EQ(bb->rejected, 3u);
  EXPECT_EQ(bb->busy_scope, static_cast<std::uint8_t>(BusyScope::kGlobal));

  for (const std::uint64_t id : ba->exec_ids) {
    const auto r = a.wait_result(id);
    ASSERT_TRUE(r) << a.last_error();
    EXPECT_EQ(r->state,
              static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  }
  ASSERT_TRUE(b.wait_result(bb->exec_ids[0]));

  // Slots freed: a full batch now fits with no rejection.
  std::vector<Client::BatchItem> two(2);
  const auto again = b.submit_batch(reg_b->handle, two);
  ASSERT_TRUE(again) << b.last_error();
  EXPECT_EQ(again->exec_ids.size(), 2u);
  EXPECT_EQ(again->rejected, 0u);
  EXPECT_EQ(again->busy_scope, 0u);
  for (const std::uint64_t id : again->exec_ids) {
    ASSERT_TRUE(b.wait_result(id));
  }
  EXPECT_GE(server.stats().rejected_busy, 5u);
  server.stop();
}

TEST(NetService, StatusAndCancel) {
  const std::string path = unique_sock_path("cancel");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  // ~500 ms serial chain: long enough to observe "running" and cancel it.
  const WireGraph slow = make_chain(100, 9, 5'000'000);
  const auto reg = c.register_graph(slow);
  ASSERT_TRUE(reg);
  const auto sub = c.submit(reg->handle, 1, api::Priority::kNormal);
  ASSERT_TRUE(sub && sub->accepted);

  const auto st = c.query_status(sub->exec_id);
  ASSERT_TRUE(st) << c.last_error();
  EXPECT_EQ(st->known, 1u);

  const auto ack = c.cancel(sub->exec_id);
  ASSERT_TRUE(ack) << c.last_error();
  EXPECT_EQ(ack->found, 1u);

  const auto res = c.wait_result(sub->exec_id);
  ASSERT_TRUE(res) << c.last_error();
  // Cancellation is cooperative: almost always kCancelled here, but a
  // terminal state is the contract (completed if the race was lost).
  EXPECT_NE(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kRunning));
  if (res->state ==
      static_cast<std::uint8_t>(api::ExecStatus::kCancelled)) {
    EXPECT_GT(res->skipped, 0u);
    EXPECT_EQ(res->sink_value, 0u);  // sink untouched
    EXPECT_EQ(res->result, 0u);
  }
  // Unknown ids report found=0 / known=0 (already retired or never seen).
  const auto ack2 = c.cancel(sub->exec_id);
  ASSERT_TRUE(ack2);
  EXPECT_EQ(ack2->found, 0u);
  const auto st2 = c.query_status(sub->exec_id);
  ASSERT_TRUE(st2);
  EXPECT_EQ(st2->known, 0u);
  server.stop();
}

TEST(NetService, MalformedFrameGetsErrorReplyAndClose) {
  const std::string path = unique_sock_path("mal");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  const std::uint8_t junk[] = {'X', 'Y', 'Z', 9, 9, 9, 9, 9, 1, 2, 3};
  ASSERT_TRUE(c.send_raw(junk, sizeof(junk)));
  // The next call observes the pushed ERROR frame — or, if the session
  // already closed, a transport failure. Either way the call fails.
  EXPECT_FALSE(c.metrics().has_value());

  const std::uint64_t deadline = now_ns() + 5'000'000'000ull;
  while (server.stats().protocol_errors == 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  server.stop();
}

// Satellite: dropping a client mid-flight — with submissions in every
// priority lane — cancels exactly that session's work; the surviving
// session's results stay bitwise-correct and the fuzz-harness invariants
// (sink untouched, no live arena block, instance pool stable) hold.
TEST(NetDisconnect, CancelsOnlyThatSessionsExecutions) {
  const std::string path = unique_sock_path("disc");
  ServerOptions o = test_opts(path);
  o.max_inflight_per_session = 16;
  o.max_inflight_global = 64;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // ~80 ms serial chain — slow enough that the disconnect lands mid-flight.
  const WireGraph g = make_chain(40, 0x11, 2'000'000);
  const std::uint64_t expect_sink = expected_sink_value(g);

  // Warm phase: reach the same peak concurrency (12) the disconnect phase
  // will use, so arena and instance-pool watermarks are established.
  Client warm;
  ASSERT_TRUE(warm.connect_unix(path));
  const auto reg = warm.register_graph(g);
  ASSERT_TRUE(reg) << warm.last_error();
  {
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 12; ++i) {
      const auto s = warm.submit(
          reg->handle, 1000 + i,
          static_cast<api::Priority>(i % 3));
      ASSERT_TRUE(s && s->accepted) << warm.last_error();
      ids.push_back(s->exec_id);
    }
    for (const auto id : ids) ASSERT_TRUE(warm.wait_result(id));
  }
  ASSERT_TRUE(wait_for_zero_inflight(server, 10'000));
  server.runtime().wait_idle();
  const plan::GraphPlan* plan = server.debug_plan(reg->handle);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(wait_for_pool_quiescent(plan, 10'000));
  const std::size_t warm_instances = plan->instances_built();

  // Disconnect phase: victim and survivor each submit 6 (2 per lane).
  Client victim, survivor;
  ASSERT_TRUE(victim.connect_unix(path));
  ASSERT_TRUE(survivor.connect_unix(path));
  const auto rv = victim.register_graph(g);
  const auto rs = survivor.register_graph(g);
  ASSERT_TRUE(rv && rs);
  EXPECT_EQ(rv->handle, reg->handle);
  EXPECT_EQ(rv->shared, 1u);

  for (int i = 0; i < 6; ++i) {
    const auto s = victim.submit(rv->handle, 2000 + i,
                                 static_cast<api::Priority>(i % 3));
    ASSERT_TRUE(s && s->accepted) << victim.last_error();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> surv;  // id, payload
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t payload = 3000 + i;
    const auto s = survivor.submit(rs->handle, payload,
                                   static_cast<api::Priority>(i % 3));
    ASSERT_TRUE(s && s->accepted) << survivor.last_error();
    surv.emplace_back(s->exec_id, payload);
  }

  // Drop the victim abruptly, replies unread (simulates a killed client).
  victim.close();

  // The survivor is untouched: every execution completes, bitwise-correct.
  for (const auto& [id, payload] : surv) {
    const auto r = survivor.wait_result(id, /*timeout_ms=*/30'000);
    ASSERT_TRUE(r) << survivor.last_error();
    EXPECT_EQ(r->state,
              static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
    EXPECT_EQ(r->sink_value, expect_sink);
    EXPECT_EQ(r->result, wire_result(expect_sink, payload));
  }

  ASSERT_TRUE(wait_for_zero_inflight(server, 10'000));
  server.runtime().wait_idle();
  ASSERT_TRUE(wait_for_pool_quiescent(plan, 10'000));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 24u);
  // All 24 reached a terminal state; the victim's 6 are the only candidates
  // for cancellation and the survivor's 6 (+12 warm) all completed.
  EXPECT_EQ(stats.completed + stats.cancelled, 24u);
  EXPECT_GE(stats.completed, 18u);

  // PR-5 fuzz-harness invariants, across the disconnect: the cancelled
  // session's executions released everything they held: the second wave of
  // 12 concurrent replays fit in the instances the warm wave established,
  // and no frame-arena block is still live.
  EXPECT_EQ(server.runtime().arena_live_bytes(), 0u);
  EXPECT_LE(plan->instances_built(), warm_instances);

  // Replay-after-cancel on the same shared plan is still bitwise-correct.
  const auto s = survivor.submit(rs->handle, 4242, api::Priority::kHigh);
  ASSERT_TRUE(s && s->accepted) << survivor.last_error();
  const auto r = survivor.wait_result(s->exec_id);
  ASSERT_TRUE(r) << survivor.last_error();
  EXPECT_EQ(r->sink_value, expect_sink);
  EXPECT_EQ(r->result, wire_result(expect_sink, 4242));
  server.stop();
}

TEST(NetShutdown, DrainDeliversInFlightResults) {
  const std::string path = unique_sock_path("drain");
  ServerOptions o = test_opts(path);
  o.drain_on_shutdown = true;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  const WireGraph g = make_chain(30, 0x22, 2'000'000);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> subs;
  for (int i = 0; i < 4; ++i) {
    const auto s = c.submit(reg->handle, 500 + i,
                            static_cast<api::Priority>(i % 3));
    ASSERT_TRUE(s && s->accepted);
    subs.emplace_back(s->exec_id, 500 + i);
  }

  server.stop();  // drains: every in-flight execution completes

  // Results were pushed before the server closed the connection; they are
  // sitting in the socket buffer.
  for (const auto& [id, payload] : subs) {
    const auto r = c.wait_result(id);
    ASSERT_TRUE(r) << c.last_error();
    EXPECT_EQ(r->state,
              static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
    EXPECT_EQ(r->result,
              wire_result(expected_sink_value(g), payload));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.sessions_active, 0u);
}

TEST(NetShutdown, CancelModeStopsPromptlyUnderLoad) {
  const std::string path = unique_sock_path("cancelstop");
  ServerOptions o = test_opts(path);
  o.drain_on_shutdown = false;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(path));
  // 4 x ~600 ms serial chains on 2 workers: well over a second of work.
  const WireGraph g = make_chain(120, 0x33, 5'000'000);
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg);
  for (int i = 0; i < 4; ++i) {
    const auto s = c.submit(reg->handle, i, static_cast<api::Priority>(i % 3));
    ASSERT_TRUE(s && s->accepted);
  }

  const std::uint64_t t0 = now_ns();
  server.stop();  // cancel mode: sheds the queue instead of finishing it
  const std::uint64_t stop_ns = now_ns() - t0;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed + stats.cancelled, 4u);
  EXPECT_GE(stats.cancelled, 1u);  // >1s of queued work, stopped early
  EXPECT_EQ(stats.in_flight, 0u);
  // Generous bound: far below the >2.4 s the full queue would need.
  EXPECT_LT(stop_ns, 2'000'000'000ull) << "stop() took " << stop_ns << " ns";
}

// Idle sessions sleep in an untimed poll; stop() must wake every one of
// them. If it did not, stop() would never return: after 2 s the test closes
// the clients (each session then sees EOF) so it fails instead of hanging.
TEST(NetShutdown, StopWakesIdleSessions) {
  const std::string path = unique_sock_path("idlestop");
  Server server(test_opts(path));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  constexpr int kClients = 4;
  Client clients[kClients];
  const WireGraph g = make_wavefront_wire_graph(4, 9);
  for (Client& c : clients) {
    ASSERT_TRUE(c.connect_unix(path)) << c.last_error();
    // A round trip proves the session thread is up and back in its poll.
    ASSERT_TRUE(c.register_graph(g)) << c.last_error();
  }
  ASSERT_EQ(server.stats().sessions_active, static_cast<std::uint64_t>(kClients));

  std::atomic<bool> stopped{false};
  const std::uint64_t t0 = now_ns();
  std::thread stopper([&] {
    server.stop();
    stopped.store(true, std::memory_order_release);
  });
  while (!stopped.load(std::memory_order_acquire) &&
         now_ns() - t0 < 2'000'000'000ull) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t stop_ns = now_ns() - t0;
  const bool prompt = stopped.load(std::memory_order_acquire);
  if (!prompt) {
    for (Client& c : clients) c.close();
  }
  stopper.join();
  EXPECT_TRUE(prompt) << "stop() still running after " << stop_ns / 1'000'000
                      << " ms with " << kClients << " idle sessions";
  EXPECT_EQ(server.stats().sessions_active, 0u);
}

// ------------------------------------------------------- plan persistence

std::string make_cache_dir() {
  char tmpl[] = "/tmp/nbt-cache-XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d == nullptr ? std::string{} : std::string{d};
}

void nuke_dir(const std::string& dir) {
  for (const std::string& name : persist::list_dir(dir)) {
    persist::remove_file(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  persist::MappedFile f;
  std::string err;
  EXPECT_TRUE(f.open(path, &err)) << err;
  return {f.bytes().begin(), f.bytes().end()};
}

/// Register + submit + verify one graph through a fresh client connection.
void register_and_verify(const std::string& sock, const WireGraph& g,
                         std::uint64_t payload) {
  Client c;
  ASSERT_TRUE(c.connect_unix(sock)) << c.last_error();
  const auto reg = c.register_graph(g);
  ASSERT_TRUE(reg) << c.last_error();
  const auto sub = c.submit(reg->handle, payload, api::Priority::kNormal,
                            /*deadline_rel_ns=*/0, "persist-test");
  ASSERT_TRUE(sub) << c.last_error();
  ASSERT_TRUE(sub->accepted);
  const auto res = c.wait_result(sub->exec_id);
  ASSERT_TRUE(res) << c.last_error();
  EXPECT_EQ(res->state,
            static_cast<std::uint8_t>(api::ExecStatus::kCompleted));
  EXPECT_EQ(res->sink_value, expected_sink_value(g));
  EXPECT_EQ(res->result, wire_result(expected_sink_value(g), payload));
}

TEST(NetPersist, WarmStartServesWithoutRecompile) {
  const std::string dir = make_cache_dir();
  const WireGraph g1 = make_wavefront_wire_graph(6, 11);
  const WireGraph g2 = make_random_wire_graph(0x9a9a, 72);

  // Cold daemon: both REGISTERs compile, both plans get persisted.
  {
    ServerOptions o = test_opts(unique_sock_path("persist-cold"));
    o.plan_cache_dir = dir;
    Server server(std::move(o));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string sock = server.unix_path();
    register_and_verify(sock, g1, 0x111);
    register_and_verify(sock, g2, 0x222);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.registered_specs, 2u);
    EXPECT_EQ(s.plans_compiled, 2u);
    EXPECT_EQ(s.plans_loaded, 0u);
    EXPECT_EQ(s.plans_persisted, 2u);
    server.stop();
  }
  // Two artifacts on disk, content-addressed by the graphs' wire hashes.
  {
    persist::PlanCacheDir probe(dir);
    EXPECT_TRUE(persist::file_exists(probe.path_for(wire_graph_hash(g1))));
    EXPECT_TRUE(persist::file_exists(probe.path_for(wire_graph_hash(g2))));
  }

  // Warm daemon on the same directory: every plan is restored before the
  // listeners open, re-registration shares, and NOTHING is recompiled —
  // the acceptance criterion of the whole subsystem.
  {
    ServerOptions o = test_opts(unique_sock_path("persist-warm"));
    o.plan_cache_dir = dir;
    Server server(std::move(o));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    {
      const ServerStats s = server.stats();
      EXPECT_EQ(s.registered_specs, 2u);
      EXPECT_EQ(s.plans_loaded, 2u);
      EXPECT_EQ(s.plans_compiled, 0u);
    }
    // Restored plans serve real traffic with correct values.
    Client c;
    ASSERT_TRUE(c.connect_unix(server.unix_path())) << c.last_error();
    const auto reg = c.register_graph(g1);
    ASSERT_TRUE(reg) << c.last_error();
    EXPECT_EQ(reg->shared, 1u) << "warm-started plan should be shared";
    register_and_verify(server.unix_path(), g1, 0x333);
    register_and_verify(server.unix_path(), g2, 0x444);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.plans_compiled, 0u) << "warm restart must compile nothing";
    server.stop();
  }

  // Lazy mode (warm_start=false): nothing loads at boot, but the first
  // REGISTER restores from disk instead of compiling.
  {
    ServerOptions o = test_opts(unique_sock_path("persist-lazy"));
    o.plan_cache_dir = dir;
    o.warm_start = false;
    Server server(std::move(o));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    EXPECT_EQ(server.stats().registered_specs, 0u);
    register_and_verify(server.unix_path(), g2, 0x555);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.plans_loaded, 1u);
    EXPECT_EQ(s.plans_compiled, 0u);
    server.stop();
  }

  nuke_dir(dir);
}

TEST(NetPersist, StaleArtifactRecompiledAndOverwritten) {
  const std::string dir = make_cache_dir();
  const WireGraph g = make_chain(40, 7, 0);
  const std::uint64_t h = wire_graph_hash(g);
  persist::PlanCacheDir probe(dir);
  const std::string blob_path = probe.path_for(h);

  // Seed the cache with one real artifact.
  {
    ServerOptions o = test_opts(unique_sock_path("persist-seed"));
    o.plan_cache_dir = dir;
    Server server(std::move(o));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    register_and_verify(server.unix_path(), g, 0x777);
    server.stop();
  }
  const std::vector<std::uint8_t> pristine = read_file_bytes(blob_path);

  // A version / ABI / endianness bump is exactly what a daemon upgrade
  // leaves behind. Each doctored (and resealed, so checksums pass) blob
  // must be refused at warm start, recompiled on REGISTER, and the fresh
  // artifact must overwrite the stale file.
  using Mutator = void (*)(persist::PlanBlobHeader&);
  const Mutator mutations[] = {
      [](persist::PlanBlobHeader& hh) { hh.version += 1; },
      [](persist::PlanBlobHeader& hh) { hh.abi ^= 0xff; },
      [](persist::PlanBlobHeader& hh) {
        hh.endian = __builtin_bswap32(hh.endian);
      },
  };
  for (const Mutator mutate : mutations) {
    std::vector<std::uint8_t> stale = pristine;
    persist::PlanBlobHeader hh;
    std::memcpy(&hh, stale.data(), sizeof(hh));
    mutate(hh);
    std::memcpy(stale.data(), &hh, sizeof(hh));
    persist::reseal_blob({stale.data(), stale.size()});
    ASSERT_TRUE(persist::write_file_atomic(blob_path,
                                           {stale.data(), stale.size()}));

    ServerOptions o = test_opts(unique_sock_path("persist-stale"));
    o.plan_cache_dir = dir;
    Server server(std::move(o));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    EXPECT_EQ(server.stats().plans_loaded, 0u) << "stale blob was restored";

    register_and_verify(server.unix_path(), g, 0x888);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.plans_compiled, 1u);
    EXPECT_EQ(s.plans_persisted, 1u);
    server.stop();

    // The upgrade path republished a loadable artifact.
    const std::vector<std::uint8_t> fresh = read_file_bytes(blob_path);
    persist::PlanBlobView view;
    EXPECT_EQ(view.parse({fresh.data(), fresh.size()}),
              persist::BlobError::kOk);
    ASSERT_EQ(fresh.size(), pristine.size());
    EXPECT_EQ(std::memcmp(fresh.data(), pristine.data(), fresh.size()), 0)
        << "recompile of the same graph should republish identical bytes";
  }

  nuke_dir(dir);
}

TEST(NetPersist, GarbageBlobFallsBackToCompile) {
  const std::string dir = make_cache_dir();
  const WireGraph g = make_wavefront_wire_graph(5, 23);
  const std::uint64_t h = wire_graph_hash(g);
  persist::PlanCacheDir probe(dir);

  // Random bytes under the right name: warm start skips it (no crash, no
  // hang), REGISTER compiles and replaces it.
  std::vector<std::uint8_t> garbage(777);
  Pcg32 rng(0x6a6a, 3);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(persist::write_file_atomic(probe.path_for(h),
                                         {garbage.data(), garbage.size()}));

  ServerOptions o = test_opts(unique_sock_path("persist-garbage"));
  o.plan_cache_dir = dir;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  EXPECT_EQ(server.stats().plans_loaded, 0u);

  register_and_verify(server.unix_path(), g, 0x999);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.plans_compiled, 1u);
  EXPECT_EQ(s.plans_persisted, 1u);
  server.stop();

  const std::vector<std::uint8_t> fresh = read_file_bytes(probe.path_for(h));
  persist::PlanBlobView view;
  EXPECT_EQ(view.parse({fresh.data(), fresh.size()}), persist::BlobError::kOk);
  EXPECT_EQ(view.spec_hash(), h);

  nuke_dir(dir);
}

// A frame the server never accepts from a client gets an ERROR and a close
// and counts one protocol error: a server->client type, and the v3 STATS_REQ
// (5) and STATS (70) numbers, which v4 retired. Around them one session
// drives every other daemon counter (warm-loaded and compiled plans, a
// repeat REGISTER, SUBMIT, SUBMIT_BATCH, CANCEL, a deadline, a BUSY), and
// METRICS must then match Server::stats() field by field.
TEST(NetService, ReplyFrameTypeFromClientIsRejected) {
  const std::string dir = make_cache_dir();
  const WireGraph cached = make_wavefront_wire_graph(4, 5);
  {
    ServerOptions o = test_opts(unique_sock_path("reply-seed"));
    o.plan_cache_dir = dir;
    Server seed(std::move(o));
    std::string err;
    ASSERT_TRUE(seed.start(&err)) << err;
    register_and_verify(seed.unix_path(), cached, 0x5);
    seed.stop();
  }
  ServerOptions o = test_opts(unique_sock_path("reply"));
  o.plan_cache_dir = dir;
  o.max_inflight_per_session = 1;
  Server server(std::move(o));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect_unix(server.unix_path()));
  const auto warm = c.register_graph(cached);  // repeat: warm-loaded plan
  ASSERT_TRUE(warm) << c.last_error();
  EXPECT_EQ(warm->shared, 1u);
  const WireGraph slow = make_chain(40, 7, 2'000'000);  // ~80 ms
  const auto fresh = c.register_graph(slow);  // new: compiled, persisted
  ASSERT_TRUE(fresh) << c.last_error();
  EXPECT_EQ(fresh->shared, 0u);
  // The slow run holds the session's only slot, so the next SUBMIT is BUSY;
  // then cancel it.
  const auto held = c.submit(fresh->handle, 1, api::Priority::kNormal);
  ASSERT_TRUE(held && held->accepted) << c.last_error();
  const auto busy = c.submit(fresh->handle, 2, api::Priority::kNormal);
  ASSERT_TRUE(busy) << c.last_error();
  EXPECT_FALSE(busy->accepted);
  ASSERT_TRUE(c.cancel(held->exec_id)) << c.last_error();
  ASSERT_TRUE(c.wait_result(held->exec_id)) << c.last_error();
  // A one-item batch whose deadline passes before adoption, then a run
  // that completes.
  std::vector<Client::BatchItem> late(1);
  late[0].deadline_rel_ns = 1;
  const auto batch = c.submit_batch(warm->handle, late);
  ASSERT_TRUE(batch && batch->exec_ids.size() == 1u) << c.last_error();
  ASSERT_TRUE(c.wait_result(batch->exec_ids[0])) << c.last_error();
  const auto ok = c.submit(warm->handle, 3, api::Priority::kNormal);
  ASSERT_TRUE(ok && ok->accepted) << c.last_error();
  ASSERT_TRUE(c.wait_result(ok->exec_id)) << c.last_error();

  std::uint64_t want_errors = 0;
  for (const std::uint8_t type :
       {static_cast<std::uint8_t>(FrameType::kMetrics), std::uint8_t{5},
        std::uint8_t{70}}) {
    Client bad;
    ASSERT_TRUE(bad.connect_unix(server.unix_path()));
    std::uint8_t frame[kFrameHeaderBytes];
    write_frame_header(frame, FrameType::kMetrics, 0);
    frame[3] = type;
    ASSERT_TRUE(bad.send_raw(frame, sizeof(frame)));
    EXPECT_FALSE(bad.metrics().has_value()) << int{type};
    ++want_errors;
    const std::uint64_t deadline = now_ns() + 5'000'000'000ull;
    while ((server.stats().protocol_errors < want_errors ||
            server.stats().sessions_active != 1) &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.stats().protocol_errors, want_errors) << int{type};
  }

  const auto m = c.metrics();
  ASSERT_TRUE(m) << c.last_error();
  const ServerStats st = server.stats();
  for (const ServerStatsMetric& f : kServerStatsMetrics) {
    const MetricEntry* e = m->find(f.name);
    ASSERT_NE(e, nullptr) << f.name;
    EXPECT_EQ(e->kind, static_cast<std::uint8_t>(f.kind)) << f.name;
    EXPECT_EQ(e->value, st.*f.field) << f.name;
  }
  // The drive moved every counter the way it should have.
  EXPECT_EQ(st.registered_specs, 2u);
  EXPECT_EQ(st.plans_loaded, 1u);
  EXPECT_EQ(st.plans_compiled, 1u);
  EXPECT_EQ(st.plans_persisted, 1u);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.deadline_exceeded, 1u);
  EXPECT_EQ(st.completed + st.cancelled, 2u);  // cancel is cooperative
  EXPECT_GE(st.completed, 1u);
  EXPECT_EQ(st.rejected_busy, 1u);
  EXPECT_EQ(st.protocol_errors, 3u);
  EXPECT_EQ(st.sessions_opened, 4u);
  EXPECT_EQ(st.sessions_active, 1u);
  EXPECT_EQ(st.in_flight, 0u);
  server.stop();
  nuke_dir(dir);
}

}  // namespace
}  // namespace nabbitc::net
