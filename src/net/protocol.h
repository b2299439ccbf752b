// Message layer of the nabbitc-serve protocol: the graph wire form and
// every request/reply body, with strict encode/decode over net/wire.h.
//
// The service cannot ship arbitrary compute() code over a socket, so a
// *wire graph* describes topology plus a fixed, deterministic node function
// both sides know (wire_node_value below): node i's value is a SplitMix64
// mix of the graph seed, the node key, and every predecessor's value, and
// each node optionally busy-spins `node_spin_ns` to model real work. That
// makes every RESULT client-verifiable — the client can recompute the
// expected sink value from the WireGraph it registered (expected_values)
// and check the server's answer bit for bit, which is exactly what the
// tests and bench_net do.
//
// REGISTER is content-addressed: the spec handle is a hash of the graph's
// canonical encoding, so two clients registering the same graph get the
// same handle and share one compiled GraphPlan (compiled exactly once).
//
// Decoders follow one contract: they return false on ANY malformed body
// (truncated, trailing bytes, out-of-range fields) and write a diagnostic
// into *err; they never abort and never read out of bounds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "rt/status.h"
#include "support/rng.h"

namespace nabbitc::net {

// Wire-graph limits, enforced by decode_register.
inline constexpr std::uint32_t kMaxWireNodes = 50000;
inline constexpr std::uint32_t kMaxWirePreds = 16;
inline constexpr std::uint32_t kMaxNodeSpinNs = 10'000'000;  // 10 ms/node
inline constexpr std::size_t kMaxNameLen = 64;
/// Longest relative deadline a SUBMIT or SUBMIT_BATCH item may carry (24 h,
/// enforced by the decoders). Larger values would not fit the signed
/// nanosecond count the server builds its absolute deadline from.
inline constexpr std::uint64_t kMaxDeadlineRelNs = 86'400'000'000'000ull;

// ---------------------------------------------------------------------------
// The graph wire form.

struct WireNode {
  std::uint8_t color = 0;
  /// Predecessor node indices; each strictly less than this node's own
  /// index (the wire form is topologically ordered by construction, so a
  /// registered graph is acyclic by validation, not by trust).
  std::vector<std::uint32_t> preds;
};

struct WireGraph {
  std::uint64_t seed = 1;
  /// Busy-work per node in nanoseconds (modeling compute cost); capped at
  /// kMaxNodeSpinNs so a hostile client cannot wedge a worker.
  std::uint32_t node_spin_ns = 0;
  /// Nodes in topological order; node nodes.size()-1 is the sink.
  std::vector<WireNode> nodes;

  std::uint32_t sink() const noexcept {
    return static_cast<std::uint32_t>(nodes.size()) - 1;
  }
};

void encode_register(const WireGraph& g, WireWriter& w);
bool decode_register(std::span<const std::uint8_t> body, WireGraph& out,
                     std::string* err);

/// Content hash of the graph's canonical encoding — the spec handle.
/// Equal graphs hash equal on every host (the encoding is fully specified);
/// the server additionally compares canonical bytes to reject the
/// astronomically-unlikely collision instead of serving the wrong plan.
std::uint64_t wire_graph_hash(const WireGraph& g);

// --- the node function (shared by server execution and client verification)

inline constexpr std::uint64_t wire_value_init(std::uint64_t seed,
                                               std::uint64_t key) noexcept {
  return seed ^ (key * 0x9e3779b97f4a7c15ULL);
}
inline constexpr std::uint64_t wire_value_mix(std::uint64_t h, std::uint64_t pred_key,
                                              std::uint64_t pred_value) noexcept {
  return splitmix64(h ^ (pred_value + 0x2545f4914f6cdd1dULL * (pred_key + 1)));
}
inline constexpr std::uint64_t wire_value_fin(std::uint64_t h) noexcept {
  return splitmix64(h);
}

/// The per-submission result the server reports: the sink value folded
/// with the SUBMIT payload, so every execution's answer depends on its own
/// request.
inline constexpr std::uint64_t wire_result(std::uint64_t sink_value,
                                           std::uint64_t payload) noexcept {
  return splitmix64(sink_value ^ payload);
}

/// Reference evaluation of the whole graph (client-side ground truth).
std::vector<std::uint64_t> expected_values(const WireGraph& g);
std::uint64_t expected_sink_value(const WireGraph& g);

// --- ready-made wire graphs (clients, benches, tests, serve-smoke)

/// side x side wavefront (Smith-Waterman shape, the paper's pattern): node
/// (i,j) depends on (i-1,j) and (i,j-1); sink = (side-1, side-1).
WireGraph make_wavefront_wire_graph(std::uint32_t side, std::uint64_t seed,
                                    std::uint32_t node_spin_ns = 0);

/// Random layered DAG (FuzzDag shape): n nodes, every node gets 1..4
/// predecessors from earlier nodes, final node collects the frontier so
/// the sink cone covers the whole graph.
WireGraph make_random_wire_graph(std::uint64_t seed, std::uint32_t n,
                                 std::uint32_t node_spin_ns = 0);

// ---------------------------------------------------------------------------
// Request/reply bodies.

struct RegisteredMsg {
  std::uint64_t handle = 0;
  std::uint32_t plan_nodes = 0;  // sink-cone size (what the plan executes)
  /// 1 when this REGISTER found an existing compiled plan (content-
  /// addressed sharing) instead of compiling one.
  std::uint8_t shared = 0;
};

struct SubmitRequest {
  std::uint64_t handle = 0;
  std::uint64_t payload = 0;
  std::uint8_t priority = 1;  // api::Priority value: 0 high, 1 normal, 2 low
  /// Deadline relative to server receipt, in ns; 0 = none, at most
  /// kMaxDeadlineRelNs. Relative so client and server clocks never need to
  /// agree.
  std::uint64_t deadline_rel_ns = 0;
  std::string name;  // <= kMaxNameLen; empty = unnamed
};

struct SubmittedMsg {
  std::uint64_t exec_id = 0;
};

/// Items per kSubmitBatch frame, capped so a hostile count cannot make the
/// server stage unbounded submissions (admission caps bound it further).
inline constexpr std::uint32_t kMaxBatchItems = 256;

/// One kSubmitBatch frame: N submissions against one registered handle in
/// one header — the client-side syscall amortization matching
/// Runtime::submit_batch server-side. Per-item fields mirror SubmitRequest.
struct SubmitBatchItem {
  std::uint64_t payload = 0;
  std::uint8_t priority = 1;  // api::Priority value: 0 high, 1 normal, 2 low
  std::uint64_t deadline_rel_ns = 0;
  std::string name;  // <= kMaxNameLen; empty = unnamed
};

struct SubmitBatchRequest {
  std::uint64_t handle = 0;
  std::vector<SubmitBatchItem> items;  // 1..kMaxBatchItems
};

/// Reply to kSubmitBatch: the admitted PREFIX got exec ids (results are
/// still pushed per item as kResult frames); the rejected suffix hit an
/// admission cap (`busy_scope` says which) and was never submitted — the
/// client resubmits it later, exactly like a singleton kBusy.
struct SubmittedBatchMsg {
  std::uint32_t rejected = 0;
  std::uint8_t busy_scope = 0;  // BusyScope; 0 iff rejected == 0
  std::vector<std::uint64_t> exec_ids;  // admitted prefix, in item order
};

/// Admission-control rejection: which cap said no.
enum class BusyScope : std::uint8_t { kSession = 1, kGlobal = 2 };

struct BusyMsg {
  std::uint8_t scope = 1;  // BusyScope
  std::uint32_t in_flight = 0;
  std::uint32_t limit = 0;
};

struct ResultMsg {
  std::uint64_t exec_id = 0;
  std::uint8_t state = 0;  // rt::ExecStatus (terminal)
  std::uint64_t computed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t sink_value = 0;  // 0 unless state == kCompleted
  std::uint64_t result = 0;      // wire_result(sink_value, payload); 0 unless completed
  std::uint64_t latency_ns = 0;  // server-side submit -> result
};

struct StatusMsg {
  std::uint64_t exec_id = 0;
  /// 0 = the server has no in-flight execution under this id (never
  /// existed, or its RESULT was already pushed).
  std::uint8_t known = 0;
  std::uint8_t state = 0;  // rt::ExecStatus
  std::uint64_t computed = 0;
  std::uint64_t skipped = 0;
};

struct CancelMsg {
  std::uint64_t exec_id = 0;
};

struct CancelAckMsg {
  std::uint64_t exec_id = 0;
  std::uint8_t found = 0;
};

/// One metric in a kMetrics reply. Counters/gauges carry `value`;
/// histograms carry the per-bucket counts (buckets[i] = obs bucket i, the
/// log2 layout of obs/histogram.h) and `value` = total count. Decoded
/// histograms can be wrapped back into an obs::HistSnapshot client-side
/// for quantile extraction — that is what nabbitc-top does.
struct MetricEntry {
  std::string name;       // <= kMaxMetricNameWire bytes, [a-zA-Z0-9_]
  std::uint8_t kind = 0;  // obs::MetricKind value
  std::uint64_t value = 0;
  std::vector<std::uint64_t> buckets;  // empty unless kind == histogram
};

/// Caps for kMetrics, enforced by decode_metrics. The entry cap matches
/// obs::kMaxMetrics (a registry can never exceed it); the name cap is the
/// wire's own (str8 limits it to 255 anyway).
inline constexpr std::uint32_t kMaxMetricEntries = 4096;
inline constexpr std::uint32_t kMaxMetricBuckets = 128;

struct MetricsMsg {
  std::vector<MetricEntry> entries;

  /// The entry named `name`, or nullptr.
  const MetricEntry* find(std::string_view name) const noexcept {
    for (const MetricEntry& e : entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }
};

/// One slow-request record in a kSlow reply (obs/slow_ring.h on the wire).
struct SlowEntryMsg {
  std::uint64_t exec_id = 0;
  std::uint8_t state = 0;  // rt::ExecStatus (terminal)
  std::uint64_t latency_ns = 0;
  std::uint64_t t_decode_ns = 0;
  std::uint64_t t_admit_ns = 0;
  std::uint64_t t_submit_ns = 0;
  std::uint64_t t_dispatch_ns = 0;
  std::uint64_t t_complete_ns = 0;
  std::uint64_t t_reply_ns = 0;
  std::string name;  // <= kMaxNameLen
};

/// kSlow entry cap: the ring is tiny by design; a reply claiming more is
/// malformed.
inline constexpr std::uint32_t kMaxSlowEntries = 64;

struct SlowMsg {
  std::vector<SlowEntryMsg> entries;
};

enum class ErrCode : std::uint8_t {
  kMalformedBody = 1,
  kBadMagic = 2,
  kBadVersion = 3,
  kUnknownType = 4,
  kOversized = 5,
  kBadRegister = 6,
  kUnknownHandle = 7,
  kBadSubmit = 8,
  kShuttingDown = 9,
};

const char* err_code_name(ErrCode c) noexcept;

/// The ERROR a header-level HeaderStatus maps to.
ErrCode err_code_of(HeaderStatus s) noexcept;

struct ErrorMsg {
  std::uint8_t code = 0;  // ErrCode
  std::string message;
};

// Encoders append the body to `w`; decoders consume the whole body or fail.
void encode_registered(const RegisteredMsg& m, WireWriter& w);
bool decode_registered(std::span<const std::uint8_t> body, RegisteredMsg& out);
void encode_submit(const SubmitRequest& m, WireWriter& w);
bool decode_submit(std::span<const std::uint8_t> body, SubmitRequest& out,
                   std::string* err);
void encode_submitted(const SubmittedMsg& m, WireWriter& w);
bool decode_submitted(std::span<const std::uint8_t> body, SubmittedMsg& out);
void encode_submit_batch(const SubmitBatchRequest& m, WireWriter& w);
bool decode_submit_batch(std::span<const std::uint8_t> body,
                         SubmitBatchRequest& out, std::string* err);
void encode_submitted_batch(const SubmittedBatchMsg& m, WireWriter& w);
bool decode_submitted_batch(std::span<const std::uint8_t> body,
                            SubmittedBatchMsg& out);
void encode_busy(const BusyMsg& m, WireWriter& w);
bool decode_busy(std::span<const std::uint8_t> body, BusyMsg& out);
void encode_result(const ResultMsg& m, WireWriter& w);
bool decode_result(std::span<const std::uint8_t> body, ResultMsg& out);
void encode_status(const StatusMsg& m, WireWriter& w);
bool decode_status(std::span<const std::uint8_t> body, StatusMsg& out);
void encode_cancel(const CancelMsg& m, WireWriter& w);
bool decode_cancel(std::span<const std::uint8_t> body, CancelMsg& out);
void encode_cancel_ack(const CancelAckMsg& m, WireWriter& w);
bool decode_cancel_ack(std::span<const std::uint8_t> body, CancelAckMsg& out);
void encode_metrics(const MetricsMsg& m, WireWriter& w);
bool decode_metrics(std::span<const std::uint8_t> body, MetricsMsg& out);
void encode_slow(const SlowMsg& m, WireWriter& w);
bool decode_slow(std::span<const std::uint8_t> body, SlowMsg& out);
void encode_error(const ErrorMsg& m, WireWriter& w);
bool decode_error(std::span<const std::uint8_t> body, ErrorMsg& out);

/// exec-id-only request bodies (kStatusReq shares CancelMsg's shape).
inline void encode_status_req(std::uint64_t exec_id, WireWriter& w) {
  w.u64(exec_id);
}
bool decode_status_req(std::span<const std::uint8_t> body, std::uint64_t& out);

}  // namespace nabbitc::net
