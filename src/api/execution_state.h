// Internal per-execution state behind the api::Execution handle.
//
// One ExecutionState is one submitted graph execution: the RootJob handed to
// the scheduler, the executor that runs it (spec path), and timing stamps.
// It lives in one of two places:
//
//   * spec submissions (Runtime::submit(GraphSpec&, Key)) heap-allocate one
//     per submission and the Execution handle owns it;
//   * plan submissions (Runtime::submit(const plan::GraphPlan&)) embed it in
//     a pooled plan::PlanInstance (`pooled` points back at the instance) so
//     the steady-state replay path performs no heap allocation — the handle
//     returns the instance to its plan's pool instead of deleting.
//
// Everything here is below the api layer (rt/nabbit types only), so
// src/plan/ can embed it without a dependency cycle.
#pragma once

#include <cstdint>
#include <memory>

#include "nabbit/executor.h"
#include "nabbit/types.h"
#include "rt/scheduler.h"

namespace nabbitc::plan {
class PlanInstance;
}  // namespace nabbitc::plan

namespace nabbitc::api::detail {

struct ExecutionState {
  rt::Scheduler* sched = nullptr;
  /// The per-execution executor (spec path); null for plan replays, which
  /// read results through their PlanInstance instead.
  std::unique_ptr<nabbit::DynamicExecutor> exec;
  rt::Scheduler::RootJob job;
  nabbit::Key sink = 0;
  /// Owning pooled instance for plan replays; null for spec submissions.
  plan::PlanInstance* pooled = nullptr;
  /// SubmitOptions::name passthrough (not owned; may be null).
  const char* name = nullptr;

  std::uint64_t t_submit_ns = 0;
  std::uint64_t t_done_ns = 0;  // stamped by the adopting worker
};

}  // namespace nabbitc::api::detail
