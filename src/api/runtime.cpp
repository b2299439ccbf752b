#include "api/runtime.h"

#include <algorithm>

#include "api/execution_state.h"
#include "api/metrics.h"
#include "plan/plan.h"
#include "support/check.h"
#include "support/timing.h"

namespace nabbitc::api {

// ---------------------------------------------------------------------------
// Variant

const char* variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::kSerial:
      return "serial";
    case Variant::kOmpStatic:
      return "omp-static";
    case Variant::kOmpGuided:
      return "omp-guided";
    case Variant::kNabbit:
      return "nabbit";
    case Variant::kNabbitC:
      return "nabbitc";
  }
  return "?";
}

rt::StealPolicy steal_policy_for(Variant v) {
  NABBITC_CHECK_MSG(is_task_graph(v),
                    "steal_policy_for: not a task-graph variant");
  return v == Variant::kNabbitC ? rt::StealPolicy::nabbitc()
                                : rt::StealPolicy::nabbit();
}

std::optional<Variant> try_parse_variant(std::string_view name) noexcept {
  for (Variant v : kAllVariants) {
    if (name == variant_name(v)) return v;
  }
  return std::nullopt;
}

Variant parse_variant(const std::string& name) {
  if (auto v = try_parse_variant(name)) return *v;
  std::string valid;
  for (Variant v : kAllVariants) {
    if (!valid.empty()) valid += "|";
    valid += variant_name(v);
  }
  NABBITC_CHECK_MSG(false, ("unknown variant '" + name + "' (want " + valid +
                            ")").c_str());
  return Variant::kSerial;  // unreachable
}

std::vector<Variant> parse_variant_list(const std::string& names) {
  std::vector<Variant> out;
  std::string item;
  for (char c : names + ",") {
    if (c == ',') {
      if (!item.empty()) out.push_back(parse_variant(item));
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Execution
//
// detail::ExecutionState lives in api/execution_state.h: spec submissions
// heap-allocate one per submission (the handle owns it), plan replays embed
// one in a pooled plan::PlanInstance (the handle returns the instance).

void Execution::release_state() noexcept {
  if (st_ == nullptr) return;
  // A dropped handle still owns the RootJob the scheduler may be about to
  // run; joining here keeps that storage (and the client's GraphSpec or
  // plan instance) alive for as long as the pool needs it.
  if (!st_->job.is_done()) st_->sched->wait(st_->job);
  if (st_->pooled != nullptr) {
    st_->pooled->recycle();  // embedded state goes back to the plan's pool
  } else {
    delete st_;
  }
  st_ = nullptr;
}

Execution::Execution(Execution&& o) noexcept : st_(o.st_) { o.st_ = nullptr; }

Execution& Execution::operator=(Execution&& o) noexcept {
  if (this != &o) {
    // Assigning over a live handle must not free its state under the pool:
    // join the old execution first (same contract as the destructor).
    release_state();
    st_ = o.st_;
    o.st_ = nullptr;
  }
  return *this;
}

Execution::~Execution() { release_state(); }

void Execution::wait() {
  NABBITC_CHECK_MSG(st_ != nullptr, "wait() on an empty Execution");
  if (!st_->job.is_done()) st_->sched->wait(st_->job);
}

bool Execution::done() const noexcept {
  return st_ != nullptr && st_->job.is_done();
}

bool Execution::wait_until(std::uint64_t deadline_ns) {
  NABBITC_CHECK_MSG(st_ != nullptr, "wait_until() on an empty Execution");
  return st_->sched->wait_until(st_->job, deadline_ns);
}

bool Execution::wait_for(std::chrono::nanoseconds timeout) {
  if (timeout.count() <= 0) return done();
  return wait_until(now_ns() + static_cast<std::uint64_t>(timeout.count()));
}

void Execution::cancel() noexcept {
  if (st_ == nullptr) return;
  st_->job.try_cancel(rt::CancelReason::kRequested);
}

namespace {

/// Shared terminal-report derivation for Execution::status() and
/// BatchHandle::status(i) — one spelling of what "completed" means.
Status status_of(const detail::ExecutionState& st) noexcept {
  Status s;
  if (!st.job.is_done()) {
    return s;  // kRunning
  }
  s.skipped_nodes = st.pooled != nullptr ? st.pooled->nodes_skipped()
                                         : st.exec->nodes_skipped();
  // "Completed" means the execution produced its whole result. For a plan
  // replay that is skipped == 0 (every node is retired exactly once); for a
  // spec submission, the sink computing implies every ancestor did — a
  // cancel that landed after the last compute changes nothing the client
  // can observe, so it reports kCompleted.
  bool produced;
  if (st.pooled != nullptr) {
    produced = s.skipped_nodes == 0;
  } else {
    TaskGraphNode* sink = st.exec->find(st.sink);
    produced = sink != nullptr && sink->computed();
  }
  if (produced) {
    s.state = ExecStatus::kCompleted;
  } else {
    s.state = st.job.cancel_reason() == rt::CancelReason::kDeadline
                  ? ExecStatus::kDeadlineExceeded
                  : ExecStatus::kCancelled;
  }
  return s;
}

}  // namespace

Status Execution::status() const noexcept {
  return st_ != nullptr ? status_of(*st_) : Status{};
}

const char* Execution::name() const noexcept {
  return st_ != nullptr ? st_->name : nullptr;
}

std::uint64_t Execution::nodes_created() const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  if (st_->pooled != nullptr) {
    // Replays create no nodes — that is the point. An execution that had to
    // grow the plan's instance pool reports the nodes it built.
    return st_->pooled->fresh() ? st_->pooled->plan().num_nodes() : 0;
  }
  return st_->exec->nodes_created();
}

std::uint64_t Execution::nodes_computed() const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  if (st_->pooled != nullptr) return st_->pooled->nodes_computed();
  return st_->exec->nodes_computed();
}

TaskGraphNode* Execution::find(Key key) const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  if (st_->pooled != nullptr) return st_->pooled->find(key);
  return st_->exec->find(key);
}

std::uint64_t Execution::submit_time_ns() const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  return st_->t_submit_ns;
}

std::uint64_t Execution::complete_time_ns() const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  return st_->t_done_ns;
}

std::uint64_t Execution::first_dispatch_time_ns() const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  return st_->job.t_adopt_ns;
}

trace::Trace Execution::trace_slice(const trace::Trace& full) const {
  NABBITC_CHECK_MSG(st_ != nullptr, "empty Execution");
  trace::Trace out;
  out.num_workers = full.num_workers;
  out.dropped = full.dropped;
  const std::uint64_t t0 = st_->t_submit_ns;
  const std::uint64_t t1 = st_->t_done_ns;
  for (const trace::Event& e : full.events) {
    if (e.ts_ns >= t0 && e.ts_ns <= t1) out.events.push_back(e);
  }
  if (!out.events.empty()) {
    out.origin_ns = out.events.front().ts_ns;
    for (const trace::Event& e : out.events) {
      out.end_ns = std::max(out.end_ns, trace::event_end_ns(e));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Runtime

Runtime::Runtime(RuntimeOptions opts) : opts_(opts) {
  NABBITC_CHECK_MSG(is_task_graph(opts_.variant),
                    "RuntimeOptions.variant must be a task-graph variant "
                    "(nabbit|nabbitc); serial/omp variants have no runtime");
  rt::SchedulerConfig sc;
  sc.num_workers = opts_.workers;
  sc.topology = opts_.topology;
  sc.pin_threads = opts_.pin_threads;
  sc.seed = opts_.seed;
  sc.trace = opts_.trace;
  sc.steal = steal_policy_for(opts_.variant);
  sched_ = std::make_unique<rt::Scheduler>(sc);
  opts_.workers = sched_->num_workers();  // resolve workers=0
}

Runtime::~Runtime() = default;  // ~Scheduler drains in-flight jobs

Execution Runtime::submit(GraphSpec& spec, Key sink, const SubmitOptions& so) {
  auto st = std::make_unique<detail::ExecutionState>();
  st->sched = sched_.get();
  st->sink = sink;
  st->name = so.name;
  nabbit::DynamicExecutor::Options eo;
  // The variant picks the spawn shape here and picked the steal policy at
  // construction — one switch, so they cannot disagree.
  eo.colored = opts_.variant == Variant::kNabbitC;
  // The executor checks this execution's own job on node dispatch (cancel
  // word and deadline); the job lives in the same ExecutionState, so the
  // address is stable.
  eo.job = &st->job;
  st->exec = std::make_unique<nabbit::DynamicExecutor>(spec, eo);
  st->t_submit_ns = now_ns();
  detail::ExecutionState* raw = st.get();
  st->job.fn = [raw](rt::Worker& w) {
    raw->exec->run_root(w, raw->sink);
    raw->t_done_ns = now_ns();
    record_completion(*raw);
  };
  st->job.lane = static_cast<std::uint8_t>(so.priority);
  st->job.deadline_ns = so.deadline_ns;
  st->job.sink = so.sink;
  sched_->submit(st->job);
  return Execution(st.release());
}

Execution Runtime::run(GraphSpec& spec, Key sink, const SubmitOptions& so) {
  Execution e = submit(spec, sink, so);
  e.wait();
  return e;
}

std::unique_ptr<plan::GraphPlan> Runtime::compile(GraphSpec& spec, Key sink,
                                                  std::size_t reserve_instances,
                                                  bool tiny_lower) {
  plan::CompileOptions po;
  // Like submit(): the runtime's variant decides the replay spawn
  // semantics, so a plan cannot disagree with the steal policy.
  po.colored = opts_.variant == Variant::kNabbitC;
  po.reserve_instances = reserve_instances;
  po.tiny_lower = tiny_lower;
  return plan::compile(spec, sink, po);
}

std::unique_ptr<plan::GraphPlan> Runtime::restore_plan(
    GraphSpec& spec, Key sink, plan::FrozenPlan frozen, bool artifact_colored,
    std::size_t reserve_instances) {
  plan::CompileOptions po;
  po.colored = opts_.variant == Variant::kNabbitC;
  po.reserve_instances = reserve_instances;
  // The artifact must have been produced for this runtime's variant: a
  // colored plan on a random-steal pool (or vice versa) is the mismatch
  // submit() CHECKs against. Stale != corrupt — refuse and let the caller
  // recompile.
  if (artifact_colored != po.colored) return nullptr;
  return plan::restore(spec, sink, po, std::move(frozen));
}

namespace {

/// The one place a plan replay's ExecutionState is filled, for singleton
/// and batched submission alike.
void fill_plan_state(detail::ExecutionState& st, rt::Scheduler& sched,
                     const plan::GraphPlan& plan, const SubmitOptions& so,
                     std::uint64_t t_submit_ns) {
  st.sched = &sched;
  st.sink = plan.sink();
  st.name = so.name;
  st.job.lane = static_cast<std::uint8_t>(so.priority);
  st.job.deadline_ns = so.deadline_ns;
  st.job.sink = so.sink;
  st.t_submit_ns = t_submit_ns;
}

/// A plan compiled for the other variant would replay colored spawns on a
/// random-steal pool (or vice versa) — the exact mismatch this façade
/// exists to make unrepresentable. Runtime::compile derives the flag, so
/// this only fires for plans smuggled across differently-configured
/// runtimes.
void check_plan_variant(const plan::GraphPlan& plan, Variant variant) {
  NABBITC_CHECK_MSG(plan.colored() == (variant == Variant::kNabbitC),
                    "GraphPlan was compiled for a different variant than "
                    "this Runtime");
}

}  // namespace

Execution Runtime::submit(const plan::GraphPlan& plan, const SubmitOptions& so) {
  check_plan_variant(plan, opts_.variant);
  // The whole replay submit path is allocation-free once the plan's
  // instance pool is warm — for ANY SubmitOptions value: acquire + reset
  // reuse a pooled instance, the RootJob and its bound closure are embedded
  // in it, lane/deadline/name are plain stores, and this handle is just a
  // pointer at the embedded state.
  plan::PlanInstance* inst = nullptr;
  plan.acquire_batch(&inst, 1);
  detail::ExecutionState& st = inst->exec_state();
  fill_plan_state(st, *sched_, plan, so, now_ns());
  if (plan.serial_lowered()) {
    // Tiny-graph lowering: the whole replay runs right here on the
    // submitting thread — no scheduler round-trip, no worker wake, no
    // futex. The handle comes back already done; wait() then returns at its
    // first look at the completion word.
    inst->run_inline();
    return Execution(&st);
  }
  sched_->submit(st.job);
  return Execution(&st);
}

Execution Runtime::run(const plan::GraphPlan& plan, const SubmitOptions& so) {
  Execution e = submit(plan, so);
  e.wait();
  return e;
}

// ---------------------------------------------------------------------------
// Batched submission
//
// One checkout under one freelist lock, one submit-ring push per lane, one
// worker wake — the per-replay overhead singleton submit() pays N times is
// paid once per batch.

void BatchHandle::init(Runtime& rt, const plan::GraphPlan& plan,
                       std::size_t n, const SubmitOptions* uniform,
                       const SubmitOptions* per_item) {
  check_plan_variant(plan, rt.variant());
  n_ = n;
  sched_ = rt.sched_.get();
  if (n == 0) return;
  if (n <= kInlineItems) {
    insts_ = insts_inline_;
    jobs_ = jobs_inline_;
  } else {
    spill_insts_ = std::make_unique<plan::PlanInstance*[]>(n);
    spill_jobs_ = std::make_unique<rt::Scheduler::RootJob*[]>(n);
    insts_ = spill_insts_.get();
    jobs_ = spill_jobs_.get();
  }
  plan.acquire_batch(insts_, n);
  const std::uint64_t t_submit = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    detail::ExecutionState& st = insts_[i]->exec_state();
    fill_plan_state(st, *sched_, plan,
                    per_item != nullptr ? per_item[i] : *uniform, t_submit);
    jobs_[i] = &st.job;
  }
  sched_->submit_batch(jobs_, n, &sync_);
  api_metrics().batch_size->record(n);
}

BatchHandle::BatchHandle(Runtime& rt, const plan::GraphPlan& plan,
                         std::size_t count, const SubmitOptions& so) {
  init(rt, plan, count, &so, nullptr);
}

BatchHandle::BatchHandle(Runtime& rt, const plan::GraphPlan& plan,
                         std::span<const SubmitOptions> items) {
  init(rt, plan, items.size(), nullptr, items.data());
}

BatchHandle::~BatchHandle() {
  wait_all();
  for (std::size_t i = 0; i < n_; ++i) insts_[i]->recycle();
}

void BatchHandle::wait_all() {
  if (n_ != 0) sched_->wait_batch(sync_);  // empty handles have no sched_
}

bool BatchHandle::all_done() const noexcept {
  return sync_.drained();  // an empty handle's word was never armed
}

// The per-item accessors check the index against n_ (which is 0 for a
// default-constructed handle, where insts_/jobs_ are null): a wrong index
// dies on the NABBITC_CHECK instead of dereferencing garbage.

Status BatchHandle::status(std::size_t i) const noexcept {
  NABBITC_CHECK_MSG(i < n_, "BatchHandle::status(i): index out of range");
  return status_of(insts_[i]->exec_state());
}

void BatchHandle::cancel(std::size_t i) noexcept {
  NABBITC_CHECK_MSG(i < n_, "BatchHandle::cancel(i): index out of range");
  jobs_[i]->try_cancel(rt::CancelReason::kRequested);
}

void BatchHandle::cancel_all() noexcept {
  for (std::size_t i = 0; i < n_; ++i) cancel(i);
}

std::uint64_t BatchHandle::nodes_computed(std::size_t i) const noexcept {
  NABBITC_CHECK_MSG(i < n_,
                    "BatchHandle::nodes_computed(i): index out of range");
  return insts_[i]->nodes_computed();
}

TaskGraphNode* BatchHandle::find(std::size_t i, Key key) const noexcept {
  NABBITC_CHECK_MSG(i < n_, "BatchHandle::find(i): index out of range");
  return insts_[i]->find(key);
}

const char* BatchHandle::name(std::size_t i) const noexcept {
  NABBITC_CHECK_MSG(i < n_, "BatchHandle::name(i): index out of range");
  return insts_[i]->exec_state().name;
}

BatchHandle Runtime::submit_batch(const plan::GraphPlan& plan,
                                  std::size_t count, const SubmitOptions& so) {
  // Prvalue return: guaranteed copy elision constructs the (non-movable)
  // handle directly in the caller's storage.
  return BatchHandle(*this, plan, count, so);
}

BatchHandle Runtime::submit_batch(const plan::GraphPlan& plan,
                                  std::span<const SubmitOptions> items) {
  return BatchHandle(*this, plan, items);
}

void Runtime::submit_batch(const plan::GraphPlan& plan,
                           std::span<const SubmitOptions> items,
                           Execution* out) {
  check_plan_variant(plan, opts_.variant);
  const std::size_t n = items.size();
  if (n == 0) return;
  // Chunked checkout keeps the stack arrays bounded while still amortizing
  // the freelist lock and the scheduler round trip over each chunk.
  constexpr std::size_t kChunk = BatchHandle::kInlineItems;
  plan::PlanInstance* insts[kChunk];
  rt::Scheduler::RootJob* jobs[kChunk];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t k = std::min(kChunk, n - done);
    plan.acquire_batch(insts, k);
    const std::uint64_t t_submit = now_ns();
    for (std::size_t i = 0; i < k; ++i) {
      detail::ExecutionState& st = insts[i]->exec_state();
      fill_plan_state(st, *sched_, plan, items[done + i], t_submit);
      jobs[i] = &st.job;
    }
    // No BatchSync: each Execution waits on its own job's completion word,
    // so a handle can be waited/dropped independently of its batch siblings.
    sched_->submit_batch(jobs, k, nullptr);
    api_metrics().batch_size->record(k);
    for (std::size_t i = 0; i < k; ++i) {
      out[done + i] = Execution(&insts[i]->exec_state());
    }
    done += k;
  }
}

void Runtime::run_parallel(std::function<void(rt::Worker&)> fn) {
  sched_->execute(std::move(fn));
}

std::uint32_t Runtime::workers() const noexcept { return sched_->num_workers(); }

const numa::Topology& Runtime::topology() const noexcept {
  return sched_->topology();
}

rt::WorkerCounters Runtime::counters() const {
  return sched_->aggregate_counters_idle();
}

void Runtime::reset_counters() { sched_->reset_counters(); }

bool Runtime::tracing() const noexcept { return sched_->tracing(); }

trace::Trace Runtime::collect_trace() const {
  sched_->wait_idle();
  return trace::collect(*sched_);
}

void Runtime::reset_trace() {
  sched_->wait_idle();
  sched_->reset_trace();
}

void Runtime::wait_idle() const { sched_->wait_idle(); }

std::size_t Runtime::arena_bytes() const noexcept {
  return sched_->frame_arena_bytes();
}

std::size_t Runtime::arena_live_bytes() const {
  return sched_->frame_arena_live_bytes_idle();
}

}  // namespace nabbitc::api
