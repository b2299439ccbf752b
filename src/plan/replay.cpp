// Plan replay: the dependence protocol over frozen CSR arrays.
//
// This is the executor the replay path runs instead of DynamicExecutor: no
// concurrent node map (slots are plan indices), no successor-list CAS
// traffic (successor sets are frozen CSR rows), no graph construction at
// all. The spawn *shape* matches the dynamic executors — list-order
// recursive halving for Nabbit, the morphing-continuation colored spawn of
// spawn_colors.h for NabbitC — so steal behaviour and locality stay
// faithful to the paper; only the discovery machinery is gone. Every
// allocation on this path comes from the executing worker's frame arena.
//
// The dispatch granularity is the node: a node's last-arriving predecessor
// spawns it, and execute_node() computes it. Tiny plans (serial_lower) skip
// the scheduler entirely and replay through run_serial()'s
// micro-interpreter on the submitting thread.
#include "api/metrics.h"
#include "nabbit/spawn_halved.h"
#include "nabbitc/spawn_colors.h"
#include "plan/plan.h"
#include "support/check.h"
#include "support/timing.h"

namespace nabbitc::plan {

/// Leaf action for both spawn shapes (colored and halved): one node.
struct PlanComputeLeaf {
  PlanInstance* inst;
  void operator()(rt::Worker& w, std::uint32_t index) const {
    inst->compute_and_notify(w, index);
  }
};

namespace {

/// Item -> color projection for spawn_colored, over the plan's frozen
/// scheduling colors.
struct PlanColorOf {
  const numa::Color* colors;
  numa::Color operator()(std::uint32_t index) const { return colors[index]; }
};

}  // namespace

void PlanInstance::spawn_indices(rt::Worker& w, rt::TaskGroup& g,
                                 std::uint32_t* indices, std::size_t n) {
  if (n == 0) return;
  const GraphPlan& p = *plan_;
  if (p.colored()) {
    nabbit::spawn_colored(w, g, indices, n,
                          PlanColorOf{p.frozen().colors.data()},
                          PlanComputeLeaf{this});
    return;
  }
  nabbit::spawn_halved(w, g, indices, n, PlanComputeLeaf{this});
}

void PlanInstance::run_root(rt::Worker& w) {
  const GraphPlan& p = *plan_;
  const FrozenPlan& f = p.frozen();
  if (f.serial_lower) {
    // Tiny plan adopted by a worker (batch path, or lowering forced): same
    // serial interpreter as the inline path, on the adopting worker so
    // compute() still sees a real ExecContext worker.
    run_serial(&w);
  } else {
    const auto roots = f.roots;
    rt::TaskGroup group;
    if (p.colored()) {
      // The colored spawn sorts its item array in place; the plan's own
      // arrays are frozen, so it gets an arena copy.
      auto* indices = w.arena().create_array<std::uint32_t>(roots.size());
      for (std::size_t i = 0; i < roots.size(); ++i) indices[i] = roots[i];
      spawn_indices(w, group, indices, roots.size());
    } else {
      // spawn_halved never mutates its item array — consume the frozen
      // roots directly, no per-replay copy.
      nabbit::spawn_halved(w, group, roots.data(), roots.size(),
                           PlanComputeLeaf{this});
    }
    group.wait(w);
  }
  // Every node is retired exactly once per replay: computed, or skipped by
  // cooperative cancellation (the skip cascade still walks the CSR rows so
  // join counters drain and this sync returns).
  NABBITC_CHECK_MSG(
      computed_.load(std::memory_order_acquire) +
              skipped_.load(std::memory_order_acquire) ==
          p.num_nodes(),
      "plan replay did not retire every node — instance resubmitted while "
      "in flight, or graph mutated since compile");
}

void PlanInstance::execute_node(rt::Worker* w, std::uint32_t index,
                                bool skip) {
  const GraphPlan& p = *plan_;
  // The caller made this node's cancellation check (see compute_and_notify
  // and run_serial). A skipped node never runs compute() and keeps status
  // kVisited, but its caller still notifies successors so the replay
  // drains.
  if (skip) {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
#ifndef NDEBUG
  // Protocol invariant: a node computes only after all predecessors have.
  // A skipped predecessor implies cancellation was visible before our own
  // check above, so a non-skipped node cannot observe one.
  for (const std::uint32_t pi : p.predecessors(index)) {
    NABBITC_CHECK_MSG(nodes_[pi]->computed(),
                      "dependence violation: plan node computed before "
                      "predecessor");
  }
#endif
  if (w != nullptr) {
    // Counted against true data placement, exactly like the dynamic path
    // (see DynamicExecutor::compute_and_notify) — but the colors come from
    // the plan's frozen arrays, not spec virtual calls.
    const auto preds = p.predecessors(index);
    std::uint64_t remote_preds = 0;
    for (const std::uint32_t pi : preds) {
      if (!w->color_is_local(p.data_color_of(pi))) ++remote_preds;
    }
    w->record_node_execution(p.data_color_of(index), preds.size(),
                             remote_preds);
  }
  TaskGraphNode* u = nodes_[index];
  nabbit::ExecContext ctx(w, *this);
  u->compute(ctx);
  u->status_.store(nabbit::NodeStatus::kComputed, std::memory_order_release);
  computed_.fetch_add(1, std::memory_order_relaxed);
}

void PlanInstance::compute_and_notify(rt::Worker& w, std::uint32_t index) {
  // One full check per dispatched node: the cancel word, plus a clock read
  // when a deadline is armed (a passed one cancels the job here).
  execute_node(&w, index, state_.job.should_skip());
  // Notify successors: the CSR row replaces the successor list — every
  // dependent is known up front, so the last-arriving predecessor (the
  // fetch_sub observing 1) spawns the successor.
  const FrozenPlan& f = plan_->frozen();
  const std::uint32_t sb = f.succ_off[index];
  const std::uint32_t se = f.succ_off[index + 1];
  if (sb == se) return;
  auto* ready = w.arena().create_array<std::uint32_t>(se - sb);
  std::size_t nready = 0;
  for (std::uint32_t e = sb; e < se; ++e) {
    const std::uint32_t s = f.succ_idx[e];
    if (join_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready[nready++] = s;
    }
  }
  if (nready == 0) return;
  rt::TaskGroup group;
  spawn_indices(w, group, ready, nready);
  group.wait(w);
}

void PlanInstance::run_serial(rt::Worker* w) {
  // Micro-interpreter for tiny plans: a fixed ready stack, relaxed join
  // decrements (single thread — the counters only keep the bookkeeping
  // identical to the concurrent path), no TaskGroup, no arena traffic.
  const FrozenPlan& f = plan_->frozen();
  NABBITC_DCHECK(f.n <= kTinyGraphMaxNodes);
  std::uint32_t ready[kTinyGraphMaxNodes];
  std::uint32_t top = 0;
  for (const std::uint32_t r : f.roots) ready[top++] = r;
  // The cancel word is read at every node, an armed deadline's clock only
  // at every kClockStride-th: a clock read per node doubled a 16-node run.
  constexpr std::uint32_t kClockStride = 8;
  rt::Scheduler::RootJob& job = state_.job;
  std::uint32_t ordinal = 0;
  while (top != 0) {
    const std::uint32_t i = ready[--top];
    execute_node(w, i,
                 ordinal++ % kClockStride == 0 ? job.should_skip()
                                               : job.cancel_requested());
    for (std::uint32_t e = f.succ_off[i]; e < f.succ_off[i + 1]; ++e) {
      const std::uint32_t s = f.succ_idx[e];
      if (join_[s].fetch_sub(1, std::memory_order_relaxed) == 1) {
        ready[top++] = s;
      }
    }
  }
}

void PlanInstance::run_inline() {
  // Serial-lowered submission on the submitting thread: mirror the fields
  // submit_batch() would have reset, run the micro-interpreter, then
  // complete the job. Nobody can observe the handle before the caller's
  // submit() returns, so plain stores suffice, the last one arming the
  // completion word to 0 (no waiter can be asleep on it yet).
  rt::Scheduler::RootJob& job = state_.job;
  job.t_enqueue_ns = 0;
  job.t_adopt_ns = 0;
  job.completion.arm(1);
  job.cancel.store(0, std::memory_order_relaxed);
  job.batch = nullptr;
  run_serial(nullptr);
  NABBITC_CHECK_MSG(
      computed_.load(std::memory_order_relaxed) +
              skipped_.load(std::memory_order_relaxed) ==
          plan_->num_nodes(),
      "serial plan replay did not retire every node");
  state_.t_done_ns = now_ns();
  api::record_completion(state_, plan_->bound_metrics());
  job.completion.arm(0);
}

}  // namespace nabbitc::plan
