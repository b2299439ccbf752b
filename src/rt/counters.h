// Per-worker scheduler statistics.
//
// These counters back the paper's Figures 8 (successful steals) and 9
// (first-steal wait time) and the remote-access percentages of Figure 7.
#pragma once

#include <cstdint>

#include "numa/penalty.h"

namespace nabbitc::rt {

struct WorkerCounters {
  // Work.
  std::uint64_t tasks_executed = 0;
  std::uint64_t spawns = 0;

  // Stealing.
  std::uint64_t steal_attempts_colored = 0;
  std::uint64_t steal_attempts_random = 0;
  std::uint64_t steals_colored = 0;  // successful colored steals
  std::uint64_t steals_random = 0;   // successful random steals

  // Startup (forced first colored steal).
  std::uint64_t first_steal_attempts = 0;
  std::uint64_t first_steal_wait_ns = 0;
  std::uint64_t first_steal_forced_abandoned = 0;  // bounded forcing gave up

  // Idleness (time spent looking for work). Only populated when tracing is
  // enabled: timing every steal attempt costs two clock reads per miss,
  // which the untraced steady-state loop must not pay (see
  // Worker::find_task).
  std::uint64_t idle_ns = 0;

  // Submission control: root jobs this worker retired with a cancellation
  // request recorded (client cancel / deadline expiry). Counts the REQUEST
  // having landed before retirement — a cancel that raced completion and
  // lost still counts here even though the execution produced its full
  // result (api::Execution::status() reports produced-ness exactly; these
  // counters are cheap scheduler-level telemetry).
  std::uint64_t roots_cancelled = 0;
  std::uint64_t roots_deadline_expired = 0;

  // Paper SectionV-B locality metric, filled in by the nabbit layer.
  numa::LocalityCounters locality;

  std::uint64_t steals_total() const noexcept { return steals_colored + steals_random; }
  std::uint64_t steal_attempts_total() const noexcept {
    return steal_attempts_colored + steal_attempts_random;
  }

  void merge(const WorkerCounters& o) noexcept {
    tasks_executed += o.tasks_executed;
    spawns += o.spawns;
    steal_attempts_colored += o.steal_attempts_colored;
    steal_attempts_random += o.steal_attempts_random;
    steals_colored += o.steals_colored;
    steals_random += o.steals_random;
    first_steal_attempts += o.first_steal_attempts;
    first_steal_wait_ns += o.first_steal_wait_ns;
    first_steal_forced_abandoned += o.first_steal_forced_abandoned;
    idle_ns += o.idle_ns;
    roots_cancelled += o.roots_cancelled;
    roots_deadline_expired += o.roots_deadline_expired;
    locality.merge(o.locality);
  }

  void reset() noexcept { *this = WorkerCounters{}; }
};

}  // namespace nabbitc::rt
