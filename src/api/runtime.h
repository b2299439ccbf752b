// nabbitc::Runtime — the embeddable façade over the whole runtime stack.
//
// One Runtime is one long-lived virtual machine: it owns the work-stealing
// scheduler (worker threads, steal policy, optional tracing) for its whole
// lifetime and serves any number of graph executions. Construction takes a
// single declarative RuntimeOptions; the scheduler's steal policy AND the
// executor's spawn shape are both derived from options.variant, so the
// historical "colored executor on a random-steal scheduler" mismatch bug
// cannot be written through this API.
//
//   api::RuntimeOptions opts;
//   opts.workers = 8;
//   opts.variant = api::Variant::kNabbitC;
//   api::Runtime rt(opts);
//   MySpec spec(...);                      // your GraphSpec subclass
//   api::Execution e = rt.run(spec, sink); // or submit() for async
//
// Concurrency: submit() may be called from any thread, including while
// other executions are in flight — all executions share the worker pool,
// each with its own executor, node map and task scope, so independent
// graphs interleave on the same threads. wait()/run() return once that
// execution's sink has been computed; an external thread blocks, while a
// worker thread (e.g. a node submitting a sub-graph) helps run pool work
// until the execution completes instead of blocking.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "api/batch.h"
#include "api/graph.h"
#include "api/submit_options.h"
#include "api/variant.h"
#include "nabbit/executor.h"
#include "rt/scheduler.h"
#include "trace/collector.h"

namespace nabbitc::plan {
class GraphPlan;
class PlanInstance;
struct FrozenPlan;
}  // namespace nabbitc::plan

namespace nabbitc::api {

struct RuntimeOptions {
  /// Worker-thread count (== number of colors). 0 = host concurrency.
  std::uint32_t workers = 0;
  /// Which task-graph scheduler this runtime embodies (kNabbit or
  /// kNabbitC); selects both the steal policy and the spawn shape.
  Variant variant = Variant::kNabbitC;
  /// Topology for pinning and the NUMA-domain locality metric.
  numa::Topology topology = numa::Topology::host();
  /// Pin worker w to core topology.core_of_worker(w) (best effort). When
  /// false, worker w still starts on that core but may migrate.
  bool pin_threads = false;
  std::uint64_t seed = 0x9e3779b9u;
  /// Event tracing (src/trace/). Off by default — when off the hot paths
  /// pay a single null-pointer branch.
  trace::TraceConfig trace{};
};

namespace detail {
struct ExecutionState;
}  // namespace detail

/// Waitable handle for one submitted graph execution. Move-only; the
/// destructor waits for completion (so a dropped handle cannot leave its
/// GraphSpec in use). Handles must not outlive their Runtime if any
/// accessor other than done()/wait() is still needed.
class Execution {
 public:
  Execution() noexcept = default;
  ~Execution();
  Execution(Execution&&) noexcept;
  Execution& operator=(Execution&&) noexcept;
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// True for a handle returned by submit()/run() (vs default-constructed).
  bool valid() const noexcept { return st_ != nullptr; }

  /// Returns once the execution reached a terminal state (sink computed,
  /// cancelled, or deadline-exceeded — see status()). External threads
  /// block; a worker thread helps run pool work instead (see the class
  /// comment). Idempotent; run() returns already-waited handles.
  void wait();
  bool done() const noexcept;

  /// wait() bounded by a timeout / an absolute now_ns() instant. Returns
  /// done() — false means time ran out first; the execution keeps running
  /// (combine with cancel() to abandon it).
  bool wait_for(std::chrono::nanoseconds timeout);
  bool wait_until(std::uint64_t deadline_ns);

  /// Requests cooperative cancellation: in-flight node computes finish,
  /// nodes not yet started are skipped (their successors short-circuit),
  /// and the execution reaches a terminal state promptly. Asynchronous —
  /// follow with wait() to observe the terminal status. Idempotent; a
  /// no-op once the execution completed (or a deadline fired first).
  void cancel() noexcept;

  /// Terminal report: kCompleted / kCancelled / kDeadlineExceeded plus the
  /// number of skipped nodes; {kRunning, 0} before completion. A cancel
  /// that raced completion and lost reports kCompleted — cancellation is
  /// cooperative, and every node computed means the result is whole.
  Status status() const noexcept;

  /// SubmitOptions::name passthrough (nullptr when unnamed).
  const char* name() const noexcept;

  /// Node statistics of this execution's own executor (exact, per
  /// execution). Call after wait().
  std::uint64_t nodes_created() const;
  std::uint64_t nodes_computed() const;

  /// Looks up a node in this execution's map — how embedders read results
  /// off computed nodes. nullptr for keys the execution never reached.
  /// Stable (and most useful) after wait().
  TaskGraphNode* find(Key key) const;

  /// Submission / completion timestamps (now_ns clock, the trace clock).
  std::uint64_t submit_time_ns() const;
  std::uint64_t complete_time_ns() const;

  /// When a worker adopted this execution's root (the queue-wait boundary
  /// in the slow-request stage breakdown). 0 when metrics are disabled or
  /// the root was never adopted (a tiny-lowered plan that ran inline).
  std::uint64_t first_dispatch_time_ns() const;

  /// The slice of a collected trace that overlaps this execution's
  /// [submit, complete] window — per-execution attribution of a
  /// Runtime::collect_trace() result. Exact attribution requires
  /// serialized submissions (concurrent executions share the window).
  trace::Trace trace_slice(const trace::Trace& full) const;

 private:
  friend class Runtime;
  explicit Execution(detail::ExecutionState* st) noexcept : st_(st) {}

  /// Joins the execution, then either frees the state (spec submissions
  /// own it) or returns the pooled plan instance it is embedded in.
  void release_state() noexcept;

  /// Owned for spec submissions; embedded in a pooled plan::PlanInstance
  /// for plan replays (st_->pooled distinguishes the two).
  detail::ExecutionState* st_ = nullptr;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts = {});
  ~Runtime();  // waits for every in-flight execution, then stops the pool

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Asynchronously executes the graph described by `spec`, sunk at `sink`.
  /// `spec` must stay alive until the returned Execution completes (wait()
  /// or handle destruction). Thread-safe; concurrent submissions share the
  /// worker pool. Task-frame memory is epoch-segmented (see the memory
  /// contract in rt/scheduler.h): it recycles as submissions complete, so
  /// even continuous overlapping traffic runs at the busy period's
  /// high-watermark (observable via arena_bytes()). `so` gives
  /// per-submission control: priority lane, absolute deadline, diagnostic
  /// name (api/submit_options.h); the default is kNormal, no deadline,
  /// unnamed.
  Execution submit(GraphSpec& spec, Key sink, const SubmitOptions& so = {});

  /// submit() + wait(): runs the graph to completion.
  Execution run(GraphSpec& spec, Key sink, const SubmitOptions& so = {});

  /// Freezes (spec, sink) into a compiled GraphPlan bound to this runtime's
  /// variant (plan/plan.h): topology lowered to CSR arrays, colors
  /// precomputed, `reserve_instances` reusable instances pre-built. `spec`
  /// must outlive the plan; the plan must outlive this Runtime's executions
  /// of it. Prefer plans over raw specs whenever the same graph is
  /// submitted repeatedly — replay submission does no graph construction
  /// and, once the instance pool is warm, no heap allocation.
  /// `tiny_lower` is plan::CompileOptions::tiny_lower: plans under
  /// plan::kTinyGraphMaxNodes nodes replay inline on the submitting thread.
  /// Turning it off is for A/B benchmarking and the fuzz matrix — results
  /// are bitwise identical either way.
  std::unique_ptr<plan::GraphPlan> compile(GraphSpec& spec, Key sink,
                                           std::size_t reserve_instances = 1,
                                           bool tiny_lower = true);

  /// Rebuilds a plan from persisted frozen arrays (src/persist/) instead of
  /// compiling: skips discovery/CSR/coloring/key-table work and goes
  /// straight to re-binding the spec's node factories. `artifact_colored` is
  /// the variant recorded in the artifact; restore_plan returns nullptr when
  /// it disagrees with what compile() would derive for THIS runtime (the
  /// artifact is stale for this variant), when the frozen arrays fail
  /// validation, or when the spec does not describe the frozen topology —
  /// never aborts, so callers can always fall back to compile(). Lifetime
  /// rules match compile(); `frozen.backing` additionally keeps the mapped
  /// artifact alive.
  std::unique_ptr<plan::GraphPlan> restore_plan(
      GraphSpec& spec, Key sink, plan::FrozenPlan frozen,
      bool artifact_colored, std::size_t reserve_instances = 1);

  /// Asynchronously replays a compiled plan: resets a pooled instance
  /// instead of re-creating nodes. Results are bitwise-identical to
  /// submit(plan.spec(), plan.sink()). Thread-safe; concurrent replays of
  /// one plan run on distinct instances. The plan must have been compiled
  /// for this runtime's variant (Runtime::compile guarantees that).
  /// Steady-state replay stays allocation-free for any SubmitOptions value
  /// (lanes are fixed arrays; the name is not copied).
  Execution submit(const plan::GraphPlan& plan, const SubmitOptions& so = {});

  /// submit(plan) + wait().
  Execution run(const plan::GraphPlan& plan, const SubmitOptions& so = {});

  /// Batched replay: submits `count` instances of `plan` as ONE scheduler
  /// batch — one pool checkout under one freelist lock, one lock-free
  /// submit-ring push per lane, one worker wake — and returns a handle
  /// whose wait_all() parks at most once for all of them (api/batch.h).
  /// Per-item cancel/deadline/status semantics are identical to submit().
  /// This is the high-throughput serving shape: at batch 32 the amortized
  /// per-replay submission cost drops by the batch factor. Thread-safe.
  BatchHandle submit_batch(const plan::GraphPlan& plan, std::size_t count,
                           const SubmitOptions& so = {});
  /// Per-item options (returned handle's item i follows items[i]).
  BatchHandle submit_batch(const plan::GraphPlan& plan,
                           std::span<const SubmitOptions> items);

  /// Batched replay yielding individually owned handles: fills
  /// out[0..items.size()) with one Execution per item, sharing the batch's
  /// amortized submission (one checkout, one push per lane, one wake) but
  /// NOT its completion coalescing — each handle waits/recycles on its
  /// own, which is what per-request result delivery (the net sessions)
  /// needs. `out` must have room for items.size() handles.
  void submit_batch(const plan::GraphPlan& plan,
                    std::span<const SubmitOptions> items, Execution* out);

  /// Escape hatch for plain fork-join work on the pool (parallel_for,
  /// TaskGroup trees): runs `fn` as a root job and waits. Must not be
  /// called from a worker thread.
  void run_parallel(std::function<void(rt::Worker&)> fn);

  std::uint32_t workers() const noexcept;
  Variant variant() const noexcept { return opts_.variant; }
  const numa::Topology& topology() const noexcept;
  const RuntimeOptions& options() const noexcept { return opts_; }

  /// Quiesces the pool, then sums per-worker counters (cumulative since the
  /// last reset_counters). One execution's counters, serialized:
  /// reset_counters(); run(...); counters().
  rt::WorkerCounters counters() const;
  void reset_counters();

  bool tracing() const noexcept;
  /// Quiesces the pool, then snapshots and merges every worker's event
  /// ring. Cumulative until reset_trace().
  trace::Trace collect_trace() const;
  void reset_trace();

  /// Blocks until every submitted execution has finished and all workers
  /// have parked.
  void wait_idle() const;

  /// Bytes of task-frame arena storage currently held by the worker pool
  /// (mapped high-watermark). The epoch-segmented arenas (rt/arena.h) keep
  /// this bounded even under continuous overlapping submissions — the
  /// regression guard for long-lived servers. Safe from any thread.
  std::size_t arena_bytes() const noexcept;

  /// Quiesces the pool, then sums the arena blocks still stamped with a
  /// frame epoch above the reclamation watermark: storage an unfinished job
  /// could still reference. On a quiescent pool any nonzero value is a
  /// leak (a finished job whose epoch never retired). This is the leak
  /// oracle; arena_bytes() is retained capacity, which a new interleaving
  /// may legally raise.
  std::size_t arena_live_bytes() const;

  /// The underlying scheduler — for white-box tests and micro-benchmarks
  /// that need Worker-level access. Embedders should not need this.
  rt::Scheduler& scheduler() noexcept { return *sched_; }
  const rt::Scheduler& scheduler() const noexcept { return *sched_; }

 private:
  friend class Execution;
  friend class BatchHandle;  // submits through sched_

  RuntimeOptions opts_;
  std::unique_ptr<rt::Scheduler> sched_;
};

}  // namespace nabbitc::api
