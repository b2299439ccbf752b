#include "net/protocol.h"

#include <algorithm>
#include <cstdio>

#include "support/hash.h"

namespace nabbitc::net {

namespace {

void set_err(std::string* err, const char* what) {
  if (err != nullptr) *err = what;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire graph

void encode_register(const WireGraph& g, WireWriter& w) {
  w.u64(g.seed);
  w.u32(g.node_spin_ns);
  w.u32(static_cast<std::uint32_t>(g.nodes.size()));
  for (const WireNode& n : g.nodes) {
    w.u8(n.color);
    w.u8(static_cast<std::uint8_t>(n.preds.size()));
    for (const std::uint32_t p : n.preds) w.u32(p);
  }
}

bool decode_register(std::span<const std::uint8_t> body, WireGraph& out,
                     std::string* err) {
  WireReader r(body);
  std::uint32_t n = 0;
  if (!r.u64(out.seed) || !r.u32(out.node_spin_ns) || !r.u32(n)) {
    set_err(err, "register: truncated header");
    return false;
  }
  if (n == 0 || n > kMaxWireNodes) {
    set_err(err, "register: node count out of range");
    return false;
  }
  if (out.node_spin_ns > kMaxNodeSpinNs) {
    set_err(err, "register: node_spin_ns over cap");
    return false;
  }
  out.nodes.clear();
  out.nodes.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireNode& node = out.nodes[i];
    std::uint8_t npreds = 0;
    if (!r.u8(node.color) || !r.u8(npreds)) {
      set_err(err, "register: truncated node");
      return false;
    }
    if (npreds > kMaxWirePreds) {
      set_err(err, "register: predecessor count over cap");
      return false;
    }
    node.preds.resize(npreds);
    for (std::uint8_t e = 0; e < npreds; ++e) {
      if (!r.u32(node.preds[e])) {
        set_err(err, "register: truncated predecessor list");
        return false;
      }
      // Strict topological order keeps the graph acyclic by construction.
      if (node.preds[e] >= i) {
        set_err(err, "register: predecessor not topologically ordered");
        return false;
      }
      for (std::uint8_t q = 0; q < e; ++q) {
        if (node.preds[q] == node.preds[e]) {
          set_err(err, "register: duplicate predecessor");
          return false;
        }
      }
    }
  }
  if (!r.done()) {
    set_err(err, "register: trailing bytes");
    return false;
  }
  return true;
}

std::uint64_t wire_graph_hash(const WireGraph& g) {
  WireWriter w;
  encode_register(g, w);
  // support/hash.h's content hash of the canonical encoding — the same
  // function keys PlanBlobs on disk (persist/), so the daemon's registry
  // and its plan cache agree on handles by construction.
  return content_hash(w.span());
}

std::vector<std::uint64_t> expected_values(const WireGraph& g) {
  std::vector<std::uint64_t> vals(g.nodes.size());
  for (std::uint32_t i = 0; i < g.nodes.size(); ++i) {
    std::uint64_t h = wire_value_init(g.seed, i);
    for (const std::uint32_t p : g.nodes[i].preds) {
      h = wire_value_mix(h, p, vals[p]);
    }
    vals[i] = wire_value_fin(h);
  }
  return vals;
}

std::uint64_t expected_sink_value(const WireGraph& g) {
  return expected_values(g).back();
}

WireGraph make_wavefront_wire_graph(std::uint32_t side, std::uint64_t seed,
                                    std::uint32_t node_spin_ns) {
  if (side == 0) side = 1;
  WireGraph g;
  g.seed = seed;
  g.node_spin_ns = node_spin_ns;
  g.nodes.resize(static_cast<std::size_t>(side) * side);
  for (std::uint32_t i = 0; i < side; ++i) {
    for (std::uint32_t j = 0; j < side; ++j) {
      const std::uint32_t k = i * side + j;
      WireNode& n = g.nodes[k];
      // Anti-diagonal index colors the wavefront front-by-front.
      n.color = static_cast<std::uint8_t>((i + j) & 0xff);
      if (i > 0) n.preds.push_back(k - side);
      if (j > 0) n.preds.push_back(k - 1);
    }
  }
  return g;
}

WireGraph make_random_wire_graph(std::uint64_t seed, std::uint32_t n,
                                 std::uint32_t node_spin_ns) {
  if (n == 0) n = 1;
  if (n > kMaxWireNodes) n = kMaxWireNodes;
  Pcg32 rng(seed, /*stream=*/0x77);
  WireGraph g;
  g.seed = seed;
  g.node_spin_ns = node_spin_ns;
  g.nodes.resize(n);
  std::vector<std::uint8_t> has_succ(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireNode& node = g.nodes[i];
    node.color = static_cast<std::uint8_t>(rng.below(256));
    if (i == 0) continue;
    const std::uint32_t npreds =
        1 + rng.below(std::min<std::uint32_t>(4, i));
    for (std::uint32_t e = 0; e < npreds; ++e) {
      const std::uint32_t p = rng.below(i);
      bool dup = false;
      for (const std::uint32_t q : node.preds) dup = dup || (q == p);
      if (dup) continue;
      node.preds.push_back(p);
      has_succ[p] = 1;
    }
  }
  // The sink collects successor-less nodes (up to the pred cap) so most of
  // the graph lands in its cone.
  WireNode& sink = g.nodes[n - 1];
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    if (has_succ[i]) continue;
    bool dup = false;
    for (const std::uint32_t q : sink.preds) dup = dup || (q == i);
    if (!dup && sink.preds.size() < kMaxWirePreds) sink.preds.push_back(i);
  }
  return g;
}

// ---------------------------------------------------------------------------
// Fixed-shape bodies

const char* err_code_name(ErrCode c) noexcept {
  switch (c) {
    case ErrCode::kMalformedBody: return "malformed_body";
    case ErrCode::kBadMagic: return "bad_magic";
    case ErrCode::kBadVersion: return "bad_version";
    case ErrCode::kUnknownType: return "unknown_type";
    case ErrCode::kOversized: return "oversized_frame";
    case ErrCode::kBadRegister: return "bad_register";
    case ErrCode::kUnknownHandle: return "unknown_handle";
    case ErrCode::kBadSubmit: return "bad_submit";
    case ErrCode::kShuttingDown: return "shutting_down";
  }
  return "?";
}

ErrCode err_code_of(HeaderStatus s) noexcept {
  switch (s) {
    case HeaderStatus::kBadMagic: return ErrCode::kBadMagic;
    case HeaderStatus::kBadVersion: return ErrCode::kBadVersion;
    case HeaderStatus::kUnknownType: return ErrCode::kUnknownType;
    case HeaderStatus::kOversized: return ErrCode::kOversized;
    case HeaderStatus::kOk: break;
  }
  return ErrCode::kMalformedBody;
}

void encode_registered(const RegisteredMsg& m, WireWriter& w) {
  w.u64(m.handle);
  w.u32(m.plan_nodes);
  w.u8(m.shared);
}

bool decode_registered(std::span<const std::uint8_t> body, RegisteredMsg& out) {
  WireReader r(body);
  return r.u64(out.handle) && r.u32(out.plan_nodes) && r.u8(out.shared) &&
         r.done();
}

void encode_submit(const SubmitRequest& m, WireWriter& w) {
  w.u64(m.handle);
  w.u64(m.payload);
  w.u8(m.priority);
  w.u64(m.deadline_rel_ns);
  w.str8(m.name);
}

bool decode_submit(std::span<const std::uint8_t> body, SubmitRequest& out,
                   std::string* err) {
  WireReader r(body);
  if (!r.u64(out.handle) || !r.u64(out.payload) || !r.u8(out.priority) ||
      !r.u64(out.deadline_rel_ns) || !r.str8(out.name) || !r.done()) {
    set_err(err, "submit: truncated or trailing bytes");
    return false;
  }
  if (out.priority > 2) {
    set_err(err, "submit: priority out of range");
    return false;
  }
  if (out.deadline_rel_ns > kMaxDeadlineRelNs) {
    set_err(err, "submit: deadline out of range");
    return false;
  }
  if (out.name.size() > kMaxNameLen) {
    set_err(err, "submit: name too long");
    return false;
  }
  return true;
}

void encode_submit_batch(const SubmitBatchRequest& m, WireWriter& w) {
  w.u64(m.handle);
  w.u32(static_cast<std::uint32_t>(m.items.size()));
  for (const SubmitBatchItem& item : m.items) {
    w.u64(item.payload);
    w.u8(item.priority);
    w.u64(item.deadline_rel_ns);
    w.str8(item.name);
  }
}

bool decode_submit_batch(std::span<const std::uint8_t> body,
                         SubmitBatchRequest& out, std::string* err) {
  WireReader r(body);
  std::uint32_t count = 0;
  if (!r.u64(out.handle) || !r.u32(count)) {
    set_err(err, "submit_batch: truncated header");
    return false;
  }
  if (count == 0 || count > kMaxBatchItems) {
    set_err(err, "submit_batch: item count out of range");
    return false;
  }
  out.items.resize(count);
  for (SubmitBatchItem& item : out.items) {
    if (!r.u64(item.payload) || !r.u8(item.priority) ||
        !r.u64(item.deadline_rel_ns) || !r.str8(item.name)) {
      set_err(err, "submit_batch: truncated item");
      return false;
    }
    if (item.priority > 2) {
      set_err(err, "submit_batch: priority out of range");
      return false;
    }
    if (item.deadline_rel_ns > kMaxDeadlineRelNs) {
      set_err(err, "submit_batch: deadline out of range");
      return false;
    }
    if (item.name.size() > kMaxNameLen) {
      set_err(err, "submit_batch: name too long");
      return false;
    }
  }
  if (!r.done()) {
    set_err(err, "submit_batch: trailing bytes");
    return false;
  }
  return true;
}

void encode_submitted_batch(const SubmittedBatchMsg& m, WireWriter& w) {
  w.u32(static_cast<std::uint32_t>(m.exec_ids.size()));
  w.u32(m.rejected);
  w.u8(m.busy_scope);
  for (const std::uint64_t id : m.exec_ids) w.u64(id);
}

bool decode_submitted_batch(std::span<const std::uint8_t> body,
                            SubmittedBatchMsg& out) {
  WireReader r(body);
  std::uint32_t accepted = 0;
  if (!r.u32(accepted) || !r.u32(out.rejected) || !r.u8(out.busy_scope)) {
    return false;
  }
  if (accepted > kMaxBatchItems) return false;
  out.exec_ids.resize(accepted);
  for (std::uint64_t& id : out.exec_ids) {
    if (!r.u64(id)) return false;
  }
  return r.done();
}

void encode_submitted(const SubmittedMsg& m, WireWriter& w) { w.u64(m.exec_id); }

bool decode_submitted(std::span<const std::uint8_t> body, SubmittedMsg& out) {
  WireReader r(body);
  return r.u64(out.exec_id) && r.done();
}

void encode_busy(const BusyMsg& m, WireWriter& w) {
  w.u8(m.scope);
  w.u32(m.in_flight);
  w.u32(m.limit);
}

bool decode_busy(std::span<const std::uint8_t> body, BusyMsg& out) {
  WireReader r(body);
  return r.u8(out.scope) && r.u32(out.in_flight) && r.u32(out.limit) && r.done();
}

void encode_result(const ResultMsg& m, WireWriter& w) {
  w.u64(m.exec_id);
  w.u8(m.state);
  w.u64(m.computed);
  w.u64(m.skipped);
  w.u64(m.sink_value);
  w.u64(m.result);
  w.u64(m.latency_ns);
}

bool decode_result(std::span<const std::uint8_t> body, ResultMsg& out) {
  WireReader r(body);
  return r.u64(out.exec_id) && r.u8(out.state) && r.u64(out.computed) &&
         r.u64(out.skipped) && r.u64(out.sink_value) && r.u64(out.result) &&
         r.u64(out.latency_ns) && r.done();
}

void encode_status(const StatusMsg& m, WireWriter& w) {
  w.u64(m.exec_id);
  w.u8(m.known);
  w.u8(m.state);
  w.u64(m.computed);
  w.u64(m.skipped);
}

bool decode_status(std::span<const std::uint8_t> body, StatusMsg& out) {
  WireReader r(body);
  return r.u64(out.exec_id) && r.u8(out.known) && r.u8(out.state) &&
         r.u64(out.computed) && r.u64(out.skipped) && r.done();
}

void encode_cancel(const CancelMsg& m, WireWriter& w) { w.u64(m.exec_id); }

bool decode_cancel(std::span<const std::uint8_t> body, CancelMsg& out) {
  WireReader r(body);
  return r.u64(out.exec_id) && r.done();
}

void encode_cancel_ack(const CancelAckMsg& m, WireWriter& w) {
  w.u64(m.exec_id);
  w.u8(m.found);
}

bool decode_cancel_ack(std::span<const std::uint8_t> body, CancelAckMsg& out) {
  WireReader r(body);
  return r.u64(out.exec_id) && r.u8(out.found) && r.done();
}

void encode_metrics(const MetricsMsg& m, WireWriter& w) {
  const std::size_t n = std::min<std::size_t>(m.entries.size(), kMaxMetricEntries);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const MetricEntry& e = m.entries[i];
    w.str8(e.name.size() > 255 ? std::string_view(e.name).substr(0, 255)
                               : std::string_view(e.name));
    w.u8(e.kind);
    w.u64(e.value);
    const std::size_t nb = std::min<std::size_t>(e.buckets.size(), kMaxMetricBuckets);
    w.u8(static_cast<std::uint8_t>(nb));
    for (std::size_t b = 0; b < nb; ++b) w.u64(e.buckets[b]);
  }
}

bool decode_metrics(std::span<const std::uint8_t> body, MetricsMsg& out) {
  WireReader r(body);
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxMetricEntries) return false;
  out.entries.clear();
  out.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    MetricEntry e;
    std::uint8_t nb = 0;
    if (!r.str8(e.name) || !r.u8(e.kind) || !r.u64(e.value) || !r.u8(nb)) {
      return false;
    }
    if (nb > kMaxMetricBuckets) return false;
    e.buckets.resize(nb);
    for (std::uint8_t b = 0; b < nb; ++b) {
      if (!r.u64(e.buckets[b])) return false;
    }
    out.entries.push_back(std::move(e));
  }
  return r.done();
}

void encode_slow(const SlowMsg& m, WireWriter& w) {
  const std::size_t n = std::min<std::size_t>(m.entries.size(), kMaxSlowEntries);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const SlowEntryMsg& e = m.entries[i];
    w.u64(e.exec_id);
    w.u8(e.state);
    w.u64(e.latency_ns);
    w.u64(e.t_decode_ns);
    w.u64(e.t_admit_ns);
    w.u64(e.t_submit_ns);
    w.u64(e.t_dispatch_ns);
    w.u64(e.t_complete_ns);
    w.u64(e.t_reply_ns);
    w.str8(e.name.size() > kMaxNameLen
               ? std::string_view(e.name).substr(0, kMaxNameLen)
               : std::string_view(e.name));
  }
}

bool decode_slow(std::span<const std::uint8_t> body, SlowMsg& out) {
  WireReader r(body);
  std::uint32_t n = 0;
  if (!r.u32(n) || n > kMaxSlowEntries) return false;
  out.entries.clear();
  out.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SlowEntryMsg e;
    if (!r.u64(e.exec_id) || !r.u8(e.state) || !r.u64(e.latency_ns) ||
        !r.u64(e.t_decode_ns) || !r.u64(e.t_admit_ns) || !r.u64(e.t_submit_ns) ||
        !r.u64(e.t_dispatch_ns) || !r.u64(e.t_complete_ns) ||
        !r.u64(e.t_reply_ns) || !r.str8(e.name)) {
      return false;
    }
    if (e.name.size() > kMaxNameLen) return false;
    out.entries.push_back(std::move(e));
  }
  return r.done();
}

void encode_error(const ErrorMsg& m, WireWriter& w) {
  w.u8(m.code);
  // u16 length: error text is diagnostic, keep it roomier than str8.
  const std::size_t len = m.message.size() > 1024 ? 1024 : m.message.size();
  w.u16(static_cast<std::uint16_t>(len));
  w.bytes(m.message.data(), len);
}

bool decode_error(std::span<const std::uint8_t> body, ErrorMsg& out) {
  WireReader r(body);
  std::uint16_t len = 0;
  if (!r.u8(out.code) || !r.u16(len) || r.remaining() != len) return false;
  out.message.clear();
  for (std::uint16_t i = 0; i < len; ++i) {
    std::uint8_t c;
    if (!r.u8(c)) return false;
    out.message.push_back(static_cast<char>(c));
  }
  return r.done();
}

bool decode_status_req(std::span<const std::uint8_t> body, std::uint64_t& out) {
  WireReader r(body);
  return r.u64(out) && r.done();
}

}  // namespace nabbitc::net
