// Wire primitives of the nabbitc-serve protocol: versioned length-prefixed
// frames and bounds-checked little-endian encode/decode.
//
// Every message on a connection is one frame:
//
//   offset  size  field
//   0       2     magic "NB"
//   2       1     protocol version (kWireVersion)
//   3       1     frame type (FrameType)
//   4       4     body length, little-endian (<= kMaxFrameBody)
//   8       n     body (message-specific, see net/protocol.h)
//
// Parsing is strict and total: WireReader never reads past its buffer (a
// short read latches the reader into a failed state and every later read
// reports failure), header validation rejects bad magic/version/oversized
// lengths before any body byte is trusted, and decoders require the body to
// be consumed exactly (trailing bytes are an error). Malformed input from
// the network must produce a clean protocol error — never UB, a crash, or
// an over-read; tests/net_test.cpp fuzzes this layer with random bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nabbitc::net {

inline constexpr std::uint8_t kWireMagic0 = 'N';
inline constexpr std::uint8_t kWireMagic1 = 'B';
// v2: STATS gained plans_loaded/plans_persisted (plan-cache counters).
// v3: added METRICS_REQ/METRICS (full registry dump) and SLOW_REQ/SLOW
//     (slow-request ring with per-stage timestamps). STATS is unchanged.
// v4: retired STATS_REQ/STATS (types 5 and 70, now unknown): METRICS
//     carries every server counter STATS had, under net_* names.
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Upper bound on one frame body. Large enough for a maximal REGISTER
/// (kMaxWireNodes nodes, protocol.h), small enough that a hostile length
/// field cannot make a session buffer unbounded memory.
inline constexpr std::uint32_t kMaxFrameBody = 4u << 20;  // 4 MiB

/// Frame types. Client->server requests are < 64; server->client replies
/// and pushes are >= 64. kResult is the one *push* frame — the server sends
/// it unprompted when an execution reaches a terminal state, so clients
/// must be prepared to see it while awaiting any reply.
enum class FrameType : std::uint8_t {
  // client -> server
  kRegister = 1,   // WireGraph          -> kRegistered | kError
  kSubmit = 2,     // SubmitRequest      -> kSubmitted | kBusy | kError
  kStatusReq = 3,  // exec id            -> kStatus
  kCancel = 4,     // exec id            -> kCancelAck
  kSubmitBatch = 6,  // SubmitBatchRequest -> kSubmittedBatch | kError
  kMetricsReq = 7,   // (empty)            -> kMetrics
  kSlowReq = 8,      // (empty)            -> kSlow
  // server -> client
  kRegistered = 64,
  kSubmitted = 65,
  kBusy = 66,
  kResult = 67,  // pushed on completion/cancellation/deadline
  kStatus = 68,
  kCancelAck = 69,
  kError = 71,
  kSubmittedBatch = 72,  // exec ids for the admitted prefix of a kSubmitBatch
  kMetrics = 73,
  kSlow = 74,
};

/// 5 and 70 (the v3 STATS pair) stay unassigned: a peer still sending
/// them gets unknown_type, not a misparse.
inline constexpr bool frame_type_known(std::uint8_t t) noexcept {
  return ((t >= 1 && t <= 8) || (t >= 64 && t <= 74)) && t != 5 && t != 70;
}

inline constexpr const char* frame_type_name(FrameType t) noexcept {
  switch (t) {
    case FrameType::kRegister: return "REGISTER";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kStatusReq: return "STATUS_REQ";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kSubmitBatch: return "SUBMIT_BATCH";
    case FrameType::kMetricsReq: return "METRICS_REQ";
    case FrameType::kSlowReq: return "SLOW_REQ";
    case FrameType::kRegistered: return "REGISTERED";
    case FrameType::kSubmitted: return "SUBMITTED";
    case FrameType::kBusy: return "BUSY";
    case FrameType::kResult: return "RESULT";
    case FrameType::kStatus: return "STATUS";
    case FrameType::kCancelAck: return "CANCEL_ACK";
    case FrameType::kSubmittedBatch: return "SUBMITTED_BATCH";
    case FrameType::kMetrics: return "METRICS";
    case FrameType::kSlow: return "SLOW";
    case FrameType::kError: return "ERROR";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Frame header

/// Header validation outcome. Everything except kOk is a protocol error the
/// session answers with one ERROR frame before closing the connection.
enum class HeaderStatus : std::uint8_t {
  kOk = 0,
  kBadMagic,
  kBadVersion,
  kUnknownType,
  kOversized,
};

inline constexpr const char* header_status_name(HeaderStatus s) noexcept {
  switch (s) {
    case HeaderStatus::kOk: return "ok";
    case HeaderStatus::kBadMagic: return "bad_magic";
    case HeaderStatus::kBadVersion: return "bad_version";
    case HeaderStatus::kUnknownType: return "unknown_type";
    case HeaderStatus::kOversized: return "oversized_frame";
  }
  return "?";
}

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint32_t body_len = 0;
};

inline void write_frame_header(std::uint8_t out[kFrameHeaderBytes],
                               FrameType type, std::uint32_t body_len) {
  out[0] = kWireMagic0;
  out[1] = kWireMagic1;
  out[2] = kWireVersion;
  out[3] = static_cast<std::uint8_t>(type);
  out[4] = static_cast<std::uint8_t>(body_len);
  out[5] = static_cast<std::uint8_t>(body_len >> 8);
  out[6] = static_cast<std::uint8_t>(body_len >> 16);
  out[7] = static_cast<std::uint8_t>(body_len >> 24);
}

inline HeaderStatus parse_frame_header(const std::uint8_t in[kFrameHeaderBytes],
                                       FrameHeader& out) {
  if (in[0] != kWireMagic0 || in[1] != kWireMagic1) {
    return HeaderStatus::kBadMagic;
  }
  if (in[2] != kWireVersion) return HeaderStatus::kBadVersion;
  if (!frame_type_known(in[3])) return HeaderStatus::kUnknownType;
  const std::uint32_t len = static_cast<std::uint32_t>(in[4]) |
                            static_cast<std::uint32_t>(in[5]) << 8 |
                            static_cast<std::uint32_t>(in[6]) << 16 |
                            static_cast<std::uint32_t>(in[7]) << 24;
  if (len > kMaxFrameBody) return HeaderStatus::kOversized;
  out.type = static_cast<FrameType>(in[3]);
  out.body_len = len;
  return HeaderStatus::kOk;
}

// ---------------------------------------------------------------------------
// WireWriter — append-only little-endian encoder.

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  /// Length-prefixed short string (u8 length; caller caps at 255).
  void str8(std::string_view s) {
    u8(static_cast<std::uint8_t>(s.size()));
    bytes(s.data(), s.size());
  }

  const std::uint8_t* data() const noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::uint8_t> span() const noexcept {
    return {buf_.data(), buf_.size()};
  }
  void clear() noexcept { buf_.clear(); }

  /// The finished frame for this body: header + payload, ready to send.
  std::vector<std::uint8_t> frame(FrameType type) const {
    std::vector<std::uint8_t> out(kFrameHeaderBytes + buf_.size());
    write_frame_header(out.data(), type, static_cast<std::uint32_t>(buf_.size()));
    // An empty body's data() may be null, and memcpy from null is UB even
    // for zero bytes (METRICS_REQ and SLOW_REQ have empty bodies).
    if (!buf_.empty()) {
      std::memcpy(out.data() + kFrameHeaderBytes, buf_.data(), buf_.size());
    }
    return out;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

// ---------------------------------------------------------------------------
// WireReader — bounds-checked cursor over one frame body.

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> body) noexcept
      : p_(body.data()), n_(body.size()) {}

  bool u8(std::uint8_t& v) noexcept {
    if (!take(1)) return false;
    v = p_[off_ - 1];
    return true;
  }
  bool u16(std::uint16_t& v) noexcept {
    if (!take(2)) return false;
    v = static_cast<std::uint16_t>(p_[off_ - 2] |
                                   static_cast<std::uint16_t>(p_[off_ - 1]) << 8);
    return true;
  }
  bool u32(std::uint32_t& v) noexcept {
    std::uint16_t lo, hi;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) | static_cast<std::uint32_t>(hi) << 16;
    return true;
  }
  bool u64(std::uint64_t& v) noexcept {
    std::uint32_t lo, hi;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) | static_cast<std::uint64_t>(hi) << 32;
    return true;
  }
  /// u8-length-prefixed string (the str8 counterpart).
  bool str8(std::string& out) {
    std::uint8_t len;
    if (!u8(len) || !take(len)) return false;
    out.assign(reinterpret_cast<const char*>(p_ + off_ - len), len);
    return true;
  }

  /// True once any read ran past the end (latched).
  bool failed() const noexcept { return failed_; }
  std::size_t remaining() const noexcept { return n_ - off_; }
  /// Strict decode success: no over-read AND the body was consumed exactly.
  bool done() const noexcept { return !failed_ && off_ == n_; }

 private:
  bool take(std::size_t k) noexcept {
    if (failed_ || n_ - off_ < k) {
      failed_ = true;
      return false;
    }
    off_ += k;
    return true;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// FrameAssembler — incremental stream-to-frame reassembly.
//
// Sessions and clients feed whatever bytes the socket produced; next()
// yields complete frames (or a header-level protocol error) without ever
// blocking or over-reading. Buffered bytes are bounded by
// kFrameHeaderBytes + kMaxFrameBody plus one socket read.

class FrameAssembler {
 public:
  struct Frame {
    FrameType type = FrameType::kError;
    std::vector<std::uint8_t> body;
  };

  enum class Result : std::uint8_t { kNeedMore, kFrame, kError };

  void feed(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Extracts the next complete frame. kError is sticky: a stream that
  /// desynchronized once cannot be trusted again (the length prefix is
  /// gone), so the connection must be closed.
  Result next(Frame& out, HeaderStatus* err = nullptr) {
    if (broken_) {
      if (err != nullptr) *err = broken_status_;
      return Result::kError;
    }
    if (buf_.size() - pos_ < kFrameHeaderBytes) {
      compact();
      return Result::kNeedMore;
    }
    FrameHeader hdr;
    const HeaderStatus hs = parse_frame_header(buf_.data() + pos_, hdr);
    if (hs != HeaderStatus::kOk) {
      broken_ = true;
      broken_status_ = hs;
      if (err != nullptr) *err = hs;
      return Result::kError;
    }
    if (buf_.size() - pos_ < kFrameHeaderBytes + hdr.body_len) {
      compact();
      return Result::kNeedMore;
    }
    out.type = hdr.type;
    out.body.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes),
                    buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes +
                                                               hdr.body_len));
    pos_ += kFrameHeaderBytes + hdr.body_len;
    return Result::kFrame;
  }

  bool broken() const noexcept { return broken_; }
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  void compact() {
    if (pos_ == 0) return;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool broken_ = false;
  HeaderStatus broken_status_ = HeaderStatus::kOk;
};

}  // namespace nabbitc::net
