// BatchHandle — the waitable handle over one Runtime::submit_batch().
//
// N replays of one compiled GraphPlan enter the scheduler as a single
// submission batch (one instance-pool checkout, one submit-ring push per
// lane, one worker wake) and complete against a single rendezvous, the
// batch's completion word: wait_all() sleeps on it AT MOST ONCE for the
// whole batch — only the LAST item's finisher can wake it, and only if
// wait_all() is asleep — then serves all N statuses from memory. Per-item
// semantics are intact: each item has its own priority lane, absolute
// deadline, cancel() and terminal Status, exactly as if submitted alone.
//
// Lifetime: the handle owns all N pooled PlanInstances; the destructor
// waits for stragglers and recycles them, so a dropped handle cannot leave
// the plan's pool short. The handle is NOT movable — submitted jobs hold a
// pointer to the rendezvous embedded in it — but construction is a prvalue
// (guaranteed copy elision), so `auto batch = rt.submit_batch(...)` works.
//
// Allocation: batches of up to kInlineItems live entirely inside the
// handle; with the plan's pool reserved >= batch-deep, a steady-state
// submit_batch + wait_all round trip performs zero heap allocations
// (locked in by tests/alloc_test.cpp). Larger batches spill the two
// pointer arrays to the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "api/graph.h"
#include "api/submit_options.h"
#include "rt/scheduler.h"

namespace nabbitc::plan {
class GraphPlan;
class PlanInstance;
}  // namespace nabbitc::plan

namespace nabbitc::api {

class Runtime;

class BatchHandle {
 public:
  /// Batches at most this large need no heap for the handle itself.
  static constexpr std::size_t kInlineItems = 32;

  /// An empty handle (size() == 0); wait_all() returns immediately.
  BatchHandle() noexcept = default;

  /// Submits `count` replays of `plan`, all with the same options. Prefer
  /// the Runtime::submit_batch wrappers, which read more naturally.
  BatchHandle(Runtime& rt, const plan::GraphPlan& plan, std::size_t count,
              const SubmitOptions& so);
  /// Per-item options: items[i] controls replay i (size() == items.size()).
  BatchHandle(Runtime& rt, const plan::GraphPlan& plan,
              std::span<const SubmitOptions> items);

  /// Waits for stragglers (wait_all) and recycles every instance.
  ~BatchHandle();

  BatchHandle(const BatchHandle&) = delete;
  BatchHandle& operator=(const BatchHandle&) = delete;
  // Not movable: the scheduler holds a pointer to the embedded rendezvous
  // for as long as any item is in flight (see the class comment).
  BatchHandle(BatchHandle&&) = delete;
  BatchHandle& operator=(BatchHandle&&) = delete;

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Returns once every item reached a terminal state. External threads
  /// sleep at most once (completion coalescing); worker threads help run
  /// pool work instead of blocking, like Execution::wait(). Idempotent.
  void wait_all();
  /// True once every item is terminal (racy peek; wait_all to synchronize).
  bool all_done() const noexcept;

  /// Every per-item accessor below requires i < size(); out-of-range
  /// indices (including any index on an empty handle) die on a
  /// NABBITC_CHECK rather than dereferencing garbage.

  /// Item i's terminal report ({kRunning, 0} before it completes) —
  /// identical semantics to Execution::status().
  Status status(std::size_t i) const noexcept;
  /// Requests cooperative cancellation of item i (asynchronous, idempotent,
  /// first-writer-wins against a deadline) — Execution::cancel() per item.
  void cancel(std::size_t i) noexcept;
  void cancel_all() noexcept;

  /// Item i's executed-node count / result lookup / diagnostic name.
  /// Stable after wait_all() (or once status(i) is terminal).
  std::uint64_t nodes_computed(std::size_t i) const noexcept;
  TaskGraphNode* find(std::size_t i, Key key) const noexcept;
  const char* name(std::size_t i) const noexcept;

 private:
  /// Shared constructor body: uniform != nullptr XOR per_item != nullptr.
  void init(Runtime& rt, const plan::GraphPlan& plan, std::size_t n,
            const SubmitOptions* uniform, const SubmitOptions* per_item);

  rt::Scheduler::BatchSync sync_;
  plan::PlanInstance* insts_inline_[kInlineItems];
  rt::Scheduler::RootJob* jobs_inline_[kInlineItems];
  plan::PlanInstance** insts_ = nullptr;
  rt::Scheduler::RootJob** jobs_ = nullptr;
  std::unique_ptr<plan::PlanInstance*[]> spill_insts_;
  std::unique_ptr<rt::Scheduler::RootJob*[]> spill_jobs_;
  std::size_t n_ = 0;
  rt::Scheduler* sched_ = nullptr;
};

}  // namespace nabbitc::api
