// Per-submission control knobs and terminal execution status.
//
// A server embedding the runtime cannot treat every submission as equal and
// immortal: SubmitOptions attaches a priority lane, an optional absolute
// deadline, and a debug name to one submit() call, and Status is what the
// Execution handle reports once the submission reaches a terminal state.
//
// Semantics (see rt/scheduler.h for the mechanism):
//
//   * priority selects one of the scheduler's injection lanes. Workers
//     adopting queued roots prefer higher lanes, with starvation-bounded
//     draining — low-priority work still progresses under saturating
//     high-priority traffic, just slower.
//   * deadline_ns is an absolute now_ns() instant. Once it passes, the
//     execution is cancelled cooperatively with reason kDeadlineExceeded:
//     in-flight node computes finish, everything not yet started is
//     skipped. The execution checks its own deadline at adoption and at
//     each node dispatch (one clock read per node, only when a deadline is
//     set), so it expires with or without a waiter and never costs the
//     steal loop anything.
//   * name is an optional label for diagnostics; the string is NOT copied
//     (keeping the default submit path allocation-free) and must outlive
//     the execution. nullptr = unnamed.
//   * sink is an optional completion listener (rt/completion_sink.h): the
//     worker that finishes the execution notifies it, so a caller tracking
//     many executions can sleep until one is done instead of polling them.
//     Not owned; must stay alive until its quiesce() returns. Executions
//     of tiny-lowered plans finish inside submit() and never notify it.
#pragma once

#include <chrono>
#include <cstdint>

#include "rt/completion_sink.h"
#include "rt/status.h"
#include "support/timing.h"

namespace nabbitc::api {

/// Submission priority, highest first. Maps one-to-one onto the
/// scheduler's injection lanes (rt::Scheduler::kNumLanes).
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Absolute deadline on the now_ns() clock; 0 = none. Build one with
  /// deadline_in() below.
  std::uint64_t deadline_ns = 0;
  /// Optional diagnostic label (not owned, not copied; must outlive the
  /// execution). nullptr = unnamed.
  const char* name = nullptr;
  /// Optional completion listener (not owned). nullptr = none.
  rt::CompletionSink* sink = nullptr;
};

/// Absolute now_ns() deadline `d` from now — the convenient way to fill
/// SubmitOptions::deadline_ns: `so.deadline_ns = deadline_in(5ms);`.
inline std::uint64_t deadline_in(std::chrono::nanoseconds d) noexcept {
  return now_ns() + static_cast<std::uint64_t>(d.count() > 0 ? d.count() : 0);
}

/// Lifecycle state / terminal report of one execution, and their canonical
/// name strings. Defined once in rt/status.h (the trace exporter and the
/// wire protocol render the same vocabulary); re-exported here as the
/// public api:: spelling. CompletionSink is re-exported the same way.
using rt::CompletionSink;
using rt::exec_status_name;
using rt::ExecStatus;
using rt::Status;
using rt::status_name;

}  // namespace nabbitc::api
