// In-memory span recorder for the traced run. Each thread records into
// its own buffer (no locking on the record path); the buffers are merged
// and written out once, when the run ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_math.h"
#include "support/timing.h"

namespace e2ebench {

class SpanLog {
 public:
  /// One thread's buffer. Obtain with new_buffer(); valid for the
  /// SpanLog's lifetime.
  struct Buffer {
    std::vector<Span> spans;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  Buffer* new_buffer() {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(1 << 14);
    return buffers_.back().get();
  }

  /// Interned span-name id.
  std::uint32_t name_id(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  /// All spans of every buffer (parents re-indexed into the merged vector).
  std::vector<Span> merged() const {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) {
      const auto base = static_cast<std::int64_t>(out.size());
      for (Span s : b->spans) {
        if (s.parent >= 0) s.parent += base;
        out.push_back(s);
      }
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON (one complete event per
  /// span, ts/dur in microseconds, args carry the request id and the span's
  /// self time). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    const std::vector<Span> spans = merged();
    const std::vector<std::uint64_t> self = self_times(spans);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = ~0ull;
    for (const Span& s : spans) t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":%lld,\"self_us\":%.3f}}\n",
                   i == 0 ? "" : ",", names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.request % 64),
                   static_cast<double>(s.start - t0) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent),
                   static_cast<double>(self[i]) / 1e3);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// Appends a finished (or, with end == 0, still open) span; returns its
/// index in `buf`, or -1 when tracing is off.
inline std::int64_t add_span(SpanLog::Buffer* buf, const Span& s) {
  if (buf == nullptr) return -1;
  buf->spans.push_back(s);
  return static_cast<std::int64_t>(buf->spans.size()) - 1;
}

/// Closes a span opened with add_span(..., end = 0).
inline void end_span(SpanLog::Buffer* buf, std::int64_t idx, std::uint64_t t) {
  if (buf != nullptr && idx >= 0) buf->spans[static_cast<std::size_t>(idx)].end = t;
}

/// Records [construction, destruction) into `buf` when non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog::Buffer* buf, std::uint32_t name, std::uint64_t request,
             std::int64_t parent = -1)
      : buf_(buf) {
    if (buf_ == nullptr) return;
    idx_ = static_cast<std::int64_t>(buf_->spans.size());
    buf_->spans.push_back({name, request, parent, nabbitc::now_ns(), 0});
  }
  ~ScopedSpan() { end_span(buf_, idx_, nabbitc::now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return idx_; }

 private:
  SpanLog::Buffer* buf_;
  std::int64_t idx_ = -1;
};

}  // namespace e2ebench
