#include "rt/scheduler.h"

#include "numa/pinning.h"
#include "support/check.h"
#include "support/spin.h"
#include "support/timing.h"

namespace nabbitc::rt {

namespace {
thread_local Worker* tl_worker = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Worker

const numa::Topology& Worker::topology() const noexcept { return sched_->topology(); }

Task* Worker::find_task() {
  if (Task* t = deque_.pop()) return t;
  if (trace_ring_ == nullptr) {
    // Untraced steady state: the steal attempt itself is the whole cost —
    // no clock reads. idle_ns is a tracing-only metric (see counters.h);
    // timing every attempt cost two now_ns() calls per miss, which
    // dominated the attempt and skewed the very overhead the paper's
    // Fig 6-9 experiments measure.
    return try_steal_once();
  }
  std::uint64_t t0 = now_ns();
  Task* t = try_steal_once();
  const std::uint64_t idle = now_ns() - t0;
  counters_.idle_ns += idle;
  trace_emit(trace::EventKind::kIdle, t0, idle, 0, 0, color_);
  return t;
}

Task* Worker::try_steal_once() {
  Scheduler& s = *sched_;
  const std::uint32_t nw = s.num_workers();
  if (nw <= 1) return nullptr;
  const StealPolicy& pol = s.config().steal;

  // Decide whether this attempt is colored or random.
  bool forcing = pol.colored_enabled && pol.force_first_colored && !first_steal_done_;
  bool colored;
  if (forcing && forced_attempts_ >= pol.first_steal_max_attempts) {
    // Bounded enforcement (see steal_policy.h): give up on forcing; fall
    // through to the steady-state policy from now on.
    ++counters_.first_steal_forced_abandoned;
    const std::uint64_t wait = now_ns() - job_start_ns_;
    counters_.first_steal_wait_ns += wait;
    first_steal_done_ = true;
    forcing = false;
    if (trace_ring_ != nullptr) {
      trace_emit(trace::EventKind::kFirstSteal, job_start_ns_ + wait, wait, 0,
                 trace::kFlagAbandoned, color_);
    }
  }
  if (forcing) {
    colored = true;
  } else {
    const std::uint32_t k = pol.colored_attempts;
    colored = pol.colored_enabled && k > 0 && (steal_round_ % (k + 1)) < k;
  }
  ++steal_round_;

  // Pick a victim uniformly among the other workers.
  std::uint32_t victim = rng_.below(nw - 1);
  if (victim >= id_) ++victim;

  Task* task = nullptr;
  StealResult r =
      s.worker(victim).deque().steal(&task, colored ? &my_mask_ : nullptr);

  if (colored) {
    ++counters_.steal_attempts_colored;
    if (forcing) {
      ++forced_attempts_;
      ++counters_.first_steal_attempts;
    }
  } else {
    ++counters_.steal_attempts_random;
  }

  if (trace_ring_ != nullptr) {
    std::uint8_t flags = 0;
    if (colored) flags |= trace::kFlagColored;
    if (forcing) flags |= trace::kFlagForced;
    if (r == StealResult::kSuccess) flags |= trace::kFlagSuccess;
    trace_emit(trace::EventKind::kStealAttempt, now_ns(), victim,
               static_cast<std::uint64_t>(r), flags, color_);
  }

  if (r != StealResult::kSuccess) return nullptr;

  if (colored) {
    ++counters_.steals_colored;
  } else {
    ++counters_.steals_random;
  }
  if (!first_steal_done_) {
    first_steal_done_ = true;
    const std::uint64_t wait = now_ns() - job_start_ns_;
    counters_.first_steal_wait_ns += wait;
    if (trace_ring_ != nullptr) {
      trace_emit(trace::EventKind::kFirstSteal, job_start_ns_ + wait, wait, 0,
                 colored ? trace::kFlagColored : 0, color_);
    }
  }
  steal_round_ = 0;
  return task;
}

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg) {
  // Resolve metric handles before any worker thread exists: records then
  // never touch the registry mutex. The registry is process-global, so
  // multiple Scheduler instances (tests, embedders) aggregate into the
  // same names — exactly what an operator scraping the process wants.
  {
    obs::Registry& reg = obs::registry();
    obs_.dispatch_ns = &reg.histogram("sched_dispatch_ns");
    obs_.park_ns = &reg.histogram("sched_park_ns");
    obs_.tasks = &reg.counter("sched_tasks_total");
    obs_.spawns = &reg.counter("sched_spawns_total");
    obs_.steals_colored = &reg.counter("sched_steals_colored_total");
    obs_.steals_random = &reg.counter("sched_steals_random_total");
    obs_.steal_attempts = &reg.counter("sched_steal_attempts_total");
  }
  std::uint32_t n = cfg_.num_workers;
  if (n == 0) n = numa::visible_cpus();
  NABBITC_CHECK_MSG(n >= 1 && n <= ColorMask::kMaxColors,
                    "worker count must be in [1, ColorMask::kMaxColors]");
  cfg_.num_workers = n;

  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->id_ = i;
    w->color_ = static_cast<numa::Color>(i);
    w->domain_ = cfg_.topology.domain_of_worker(i);
    w->my_mask_ = ColorMask::single(w->color_);
    w->sched_ = this;
    w->rng_ = Pcg32(splitmix64(cfg_.seed + i), /*stream=*/i + 1);
    w->arena_.bind_reclaim(&frames_completed_upto_);
    workers_.push_back(std::move(w));
  }
  if (cfg_.trace.enabled) {
    trace_rings_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      trace_rings_.push_back(
          std::make_unique<trace::EventRing>(cfg_.trace.ring_capacity));
      workers_[i]->trace_ring_ = trace_rings_.back().get();
    }
  }
  threads_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Scheduler::~Scheduler() {
  {
    // Drain in-flight jobs first: tearing the pool down under live work
    // would strand submitted roots.
    const auto lk = lock_idle();
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

Worker* Scheduler::current() noexcept { return tl_worker; }

void Scheduler::submit(RootJob& job) {
  RootJob* one = &job;
  submit_batch(&one, 1, nullptr);
}

void Scheduler::submit_batch(RootJob* const* jobs, std::size_t n,
                             BatchSync* sync) {
  // Arm the rendezvous before any job can finish: the first completion may
  // land while we are still pushing later lanes.
  if (sync != nullptr) sync->arm(static_cast<std::uint32_t>(n));
  if (n == 0) return;
  // Build one chain per lane, linked NEWEST-first: the consumer's single
  // reversal at splice (see rt/submit_ring.h) then restores array order.
  RootJob* chain_head[kNumLanes] = {};  // newest element of each chain
  RootJob* chain_tail[kNumLanes] = {};  // oldest element of each chain
  // One clock read covers the whole batch's dispatch-latency stamps (and
  // none at all with metrics disabled) — the producer path stays as
  // clock-free as the steal loop demands.
  const std::uint64_t t_enqueue = obs::enabled() ? now_ns() : 0;
  for (std::size_t i = 0; i < n; ++i) {
    RootJob& job = *jobs[i];
    NABBITC_CHECK_MSG(job.fn != nullptr, "RootJob has no function");
    NABBITC_CHECK_MSG(job.lane < kNumLanes, "RootJob lane out of range");
    job.t_enqueue_ns = t_enqueue;
    job.t_adopt_ns = 0;
    job.completion.arm(1);
    // A fresh submission is never born cancelled; pooled jobs (plan
    // instances) reuse this storage across submissions, and no cancel can
    // arrive before submit() returns (the waitable handle does not exist
    // yet).
    job.cancel.store(0, std::memory_order_relaxed);
    job.batch = sync;
    if (job.sink != nullptr) job.sink->job_submitted();
    job.next = chain_head[job.lane];
    chain_head[job.lane] = &job;
    if (chain_tail[job.lane] == nullptr) chain_tail[job.lane] = &job;
  }
  // Order matters: a worker that adopts a job must already see the pool as
  // active, so its service loop cannot exit under it. seq_cst also anchors
  // the wake-elision handshake in wake_workers().
  active_jobs_.fetch_add(static_cast<std::uint32_t>(n),
                         std::memory_order_seq_cst);
  submit_epoch_.fetch_add(static_cast<std::uint32_t>(n),
                          std::memory_order_relaxed);
  // Count BEFORE publishing: pop_root's decrement fires only for jobs it
  // actually popped, and a pop of OUR jobs happens-after the push (ring
  // release/acquire) which happens-after this add — so the gate can read
  // transiently high (costing at most one null pop_root) but can never
  // wrap below zero, which would defeat the inject_count_ fast path until
  // the producer's add landed.
  inject_count_.fetch_add(static_cast<std::uint32_t>(n),
                          std::memory_order_release);
  // Publish: one CAS per distinct lane. From the first push on, `jobs` may
  // be adopted, finished, and freed by waiters.
  for (std::uint32_t l = 0; l < kNumLanes; ++l) {
    if (chain_head[l] != nullptr) {
      lanes_[l].inbox.push_chain(chain_head[l], chain_tail[l]);
    }
  }
  wake_workers();
}

void Scheduler::wake_workers() noexcept {
  // Dekker-style wake elision. Producer order: active_jobs_ RMW (seq_cst),
  // then this seq_cst load. Parker order (worker_main): parked_workers_
  // RMW (seq_cst), then a seq_cst predicate load of active_jobs_. In the
  // single total order on seq_cst operations one side always observes the
  // other: if we read parked == 0 here, every worker that later commits to
  // sleeping re-checks active_jobs_ AFTER our increment and stays awake —
  // so skipping the notify (and its futex syscall) is safe. That skip is
  // what makes saturated steady-state submission syscall-free.
  if (parked_workers_.load(std::memory_order_seq_cst) == 0) return;
  // Somebody is (or was just) parked: close the check-then-sleep window by
  // passing through the mutex, then wake everyone.
  { std::lock_guard<std::mutex> lk(mu_); }
  cv_start_.notify_all();
}

void Scheduler::splice_inboxes_locked() {
  for (std::uint32_t l = 0; l < kNumLanes; ++l) {
    Lane& lane = lanes_[l];
    RootJob* chain = lane.inbox.drain_fifo();
    if (chain == nullptr) continue;
    // Frame epochs are assigned here, under mu_, in splice order — later
    // than the producer's push, which is safe for arena reclamation: the
    // watermark only ever covers epochs that have been handed out, and a
    // job cannot be adopted before it is spliced.
    RootJob* last = chain;
    for (RootJob* j = chain; j != nullptr; j = j->next) {
      j->frame_epoch = ++next_frame_epoch_;
      j->active_prev = active_tail_;
      j->active_next = nullptr;
      if (active_tail_ != nullptr) {
        active_tail_->active_next = j;
      } else {
        active_head_ = j;
      }
      active_tail_ = j;
      last = j;
    }
    if (lane.tail != nullptr) {
      lane.tail->next = chain;
    } else {
      lane.head = chain;
    }
    lane.tail = last;
  }
}

Scheduler::RootJob* Scheduler::pop_root() {
  std::lock_guard<std::mutex> lk(mu_);
  // This worker is the consumer: splice everything producers pushed since
  // the last pop into the lane FIFOs (one drain per lane, whole chains).
  splice_inboxes_locked();
  // Prefer the highest non-empty lane...
  std::uint32_t pick = kNumLanes;
  for (std::uint32_t i = 0; i < kNumLanes; ++i) {
    if (lanes_[i].head != nullptr) {
      pick = i;
      break;
    }
  }
  if (pick == kNumLanes) return nullptr;
  // ...but starvation-bounded: EVERY lower lane with a waiter accrues one
  // bypass per pop that passes it over (counting must not stop at the
  // winner, or the lanes below it would stall their counters on exactly
  // the pops the winner takes), and the highest-priority lane at the bound
  // takes this pop — so under saturating higher-lane traffic each lane
  // still drains at >= 1/kLaneStarvationBound of the pop rate.
  std::uint32_t promoted = kNumLanes;
  for (std::uint32_t i = pick + 1; i < kNumLanes; ++i) {
    if (lanes_[i].head == nullptr) continue;
    if (++lanes_[i].bypassed >= kLaneStarvationBound && promoted == kNumLanes) {
      promoted = i;
    }
  }
  if (promoted != kNumLanes) pick = promoted;
  Lane& lane = lanes_[pick];
  lane.bypassed = 0;
  RootJob* j = lane.head;
  lane.head = j->next;
  if (lane.head == nullptr) lane.tail = nullptr;
  inject_count_.fetch_sub(1, std::memory_order_relaxed);
  return j;
}

bool Scheduler::finish_root(RootJob& job) {
  // Read the links before completing the job: its waiter may free it the
  // moment its word drains.
  BatchSync* const batch = job.batch;
  CompletionSink* const sink = job.sink;
  const bool last = active_jobs_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (last) quiescent_gen_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Unlink from the active list and advance the reclamation watermark:
    // all frames of epochs <= min(active) - 1 are now dead.
    if (job.active_prev != nullptr) {
      job.active_prev->active_next = job.active_next;
    } else {
      active_head_ = job.active_next;
    }
    if (job.active_next != nullptr) {
      job.active_next->active_prev = job.active_prev;
    } else {
      active_tail_ = job.active_prev;
    }
    const std::uint64_t upto =
        active_head_ != nullptr ? active_head_->frame_epoch - 1 : next_frame_epoch_;
    frames_completed_upto_.store(upto, std::memory_order_release);
  }
  // Each count_down is this finisher's last access to that word and wakes
  // only a waiter asleep on it (see CompletionWord). The batch's count_down
  // chain is one release sequence: whoever sees it drain sees every root.
  job.completion.count_down();
  if (batch != nullptr) batch->count_down();
  // A sink's wake() may be a syscall. The sink's pending count keeps its
  // owner from destroying it under us.
  if (sink != nullptr) sink->job_finished();
  return last;  // `job` may be freed by its waiter from here on
}

bool Scheduler::wait_word(const CompletionWord& word,
                          std::uint64_t deadline_ns) {
  if (Worker* w = current()) {
    // A worker must not sleep mid-job: it helps (steals, adopts queued
    // roots) until the word drains, so submit()+wait() works inside a task
    // even on a one-worker pool. A timed wait reads the clock after every
    // helped unit too: on a saturated pool try_progress never fails.
    Backoff backoff;
    while (!word.drained()) {
      const bool progressed = try_progress(*w);
      if (deadline_ns != 0 && now_ns() >= deadline_ns) return word.drained();
      if (progressed) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    return true;
  }
  // External thread: a bounded spin (see wait_spin_limit), then sleep.
  Backoff backoff;
  for (int spin = wait_spin_limit(); spin > 0; --spin) {
    if (word.drained()) return true;
    backoff.pause();
  }
  return word.sleep_until_drained(deadline_ns);
}

std::unique_lock<std::mutex> Scheduler::lock_idle() {
  NABBITC_CHECK_MSG(current() == nullptr,
                    "Scheduler: idle waits must not be called from a worker "
                    "thread");
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] {
    return active_jobs_.load(std::memory_order_acquire) == 0 &&
           parked_workers_.load(std::memory_order_acquire) == num_workers();
  });
  return lk;
}

void Scheduler::wait_idle() { lock_idle(); }

void Scheduler::execute(std::function<void(Worker&)> root) {
  NABBITC_CHECK_MSG(current() == nullptr,
                    "Scheduler::execute must not be called from a worker thread");
  RootJob job;
  job.fn = std::move(root);
  submit(job);
  wait(job);
}

void Scheduler::worker_main(std::uint32_t index) {
  Worker& w = *workers_[index];
  tl_worker = &w;
  if (cfg_.pin_threads) {
    numa::pin_current_thread(cfg_.topology.core_of_worker(index));
  } else {
    // Start on the worker's own core, unpinned. A new thread can start on
    // its creator's CPU, and the kernel can take seconds to spread workers
    // that spin between steals: until it does, one CPU runs the whole pool.
    numa::place_current_thread(cfg_.topology.core_of_worker(index));
  }
  for (;;) {
    // About to park: publish this service period's counters (cold, and the
    // last chance before the thread goes quiet for arbitrarily long).
    flush_worker_obs(w);
    const std::uint64_t park_t0 = now_ns();
    {
      std::unique_lock<std::mutex> lk(mu_);
      // seq_cst RMW before the seq_cst predicate load: the parker half of
      // the wake-elision handshake (see wake_workers) — a submitter that
      // misses this increment is guaranteed we see its active_jobs_ bump.
      const std::uint32_t parked =
          parked_workers_.fetch_add(1, std::memory_order_seq_cst) + 1;
      if (parked == num_workers() &&
          active_jobs_.load(std::memory_order_acquire) == 0) {
        cv_idle_.notify_all();  // lock_idle watches for full quiescence
      }
      cv_start_.wait(lk, [&] {
        return shutdown_ || active_jobs_.load(std::memory_order_seq_cst) > 0;
      });
      parked_workers_.fetch_sub(1, std::memory_order_seq_cst);
      if (shutdown_) return;
    }
    obs_.park_ns->record(now_ns() - park_t0);
    service_loop(w);
  }
}

void Scheduler::rearm_epoch(Worker& w) {
  // New submission since this worker last looked: rearm the per-job
  // steal-policy state (the paper's forced first colored steal restarts
  // per job). Each worker resets only its own state.
  const std::uint32_t e = submit_epoch_.load(std::memory_order_relaxed);
  if (e != w.seen_epoch_) {
    w.seen_epoch_ = e;
    w.first_steal_done_ = false;
    w.forced_attempts_ = 0;
    w.steal_round_ = 0;
    w.job_start_ns_ = now_ns();
  }
}

bool Scheduler::try_progress(Worker& w) {
  if (Task* t = w.find_task()) {
    // Rearm before running: the task may belong to a submission that
    // landed after this worker's last epoch check.
    rearm_epoch(w);
    w.run_task(t);
    // Frames this task spawned into our arena are now accounted: any
    // quiescence observed after this load also postdates them.
    w.clean_gen_ = quiescent_gen_.load(std::memory_order_acquire);
    return true;
  }
  if (inject_count_.load(std::memory_order_acquire) > 0) {
    if (RootJob* job = pop_root()) {
      rearm_epoch(w);
      // Adoption is a cold boundary (one root per whole graph execution):
      // stamp it and record queue->adoption dispatch latency. The stamp
      // also feeds the api layer's queue-wait metric and the slow-request
      // ring's first-dispatch stage, so it is written even though the
      // scheduler itself never reads it.
      if (job->t_enqueue_ns != 0) {
        job->t_adopt_ns = now_ns();
        obs_.dispatch_ns->record(job->t_adopt_ns - job->t_enqueue_ns);
      }
      // The one scheduler-side deadline check (one clock read, armed roots
      // only): a root whose deadline passed while queued starts cancelled
      // and drains as a skip cascade. Running roots expire their own
      // deadline at node dispatch (RootJob::should_skip).
      if (job->deadline_ns != 0) job->should_skip();
      // Frames the root allocates (and every task it spawns) carry its
      // epoch; restore afterwards — a worker can adopt a root while helping
      // mid-task inside wait().
      const std::uint64_t saved_epoch = w.arena_.epoch();
      w.arena_.set_epoch(job->frame_epoch);
      job->fn(w);
      w.arena_.set_epoch(saved_epoch);
      // Terminal accounting must read the job BEFORE finish_root — the
      // submitter may free it the instant it is marked done.
      const auto reason = job->cancel_reason();
      if (reason != CancelReason::kNone) {
        if (reason == CancelReason::kDeadline) {
          ++w.counters_.roots_deadline_expired;
        } else {
          ++w.counters_.roots_cancelled;
        }
        if (w.trace_ring_ != nullptr) {
          w.trace_emit(trace::EventKind::kCancel, now_ns(),
                       static_cast<std::uint64_t>(reason), 0, 0, w.color_);
        }
      }
      const bool last = finish_root(*job);
      // If that was the last active job, every frame everywhere is
      // garbage — rewind our arena right away (the common serialized-
      // submission case then reuses its blocks every run, keeping the
      // steady state allocation-free).
      if (last) w.arena_.reset();
      // Root completion is also where this worker's steal/task counters
      // become scrape-visible (the steal loop itself never touches obs).
      flush_worker_obs(w);
      w.clean_gen_ = quiescent_gen_.load(std::memory_order_acquire);
      return true;
    }
  }
  return false;
}

void Scheduler::service_loop(Worker& w) {
  Backoff backoff;
  while (active_jobs_.load(std::memory_order_acquire) > 0) {
    // Idle workers rearm eagerly too: a thief's forced-first-colored-steal
    // *attempts* (not just successes) must be attributed to the new job.
    rearm_epoch(w);

    if (try_progress(w)) {
      backoff.reset();
      continue;
    }

    // Idle miss. If the pool has been fully quiescent since our last task,
    // all frames in our arena predate that quiescent moment and no live
    // reference to them can exist; rewind (blocks stay mapped, so stale
    // thief peeks remain benign — see rt/arena.h).
    const std::uint64_t g = quiescent_gen_.load(std::memory_order_acquire);
    if (g != w.clean_gen_) {
      w.arena_.reset();
      w.clean_gen_ = g;
    }
    backoff.pause();
  }
  // Leaving the service loop: active_jobs_ hit zero, so the same recycling
  // argument applies before parking.
  const std::uint64_t g = quiescent_gen_.load(std::memory_order_acquire);
  if (g != w.clean_gen_) {
    w.arena_.reset();
    w.clean_gen_ = g;
  }
}

void Scheduler::flush_worker_obs(Worker& w) noexcept {
  const WorkerCounters& c = w.counters_;
  WorkerCounters& f = w.obs_flushed_;
  // Publish monotone deltas. reset_counters() zeroes c together with this
  // watermark, so every event after a reset is published.
  const auto pub = [](obs::Counter* m, std::uint64_t cur, std::uint64_t& last) {
    if (cur > last) m->add(cur - last);
    last = cur;
  };
  pub(obs_.tasks, c.tasks_executed, f.tasks_executed);
  pub(obs_.spawns, c.spawns, f.spawns);
  pub(obs_.steals_colored, c.steals_colored, f.steals_colored);
  pub(obs_.steals_random, c.steals_random, f.steals_random);
  pub(obs_.steal_attempts, c.steal_attempts_colored, f.steal_attempts_colored);
  pub(obs_.steal_attempts, c.steal_attempts_random, f.steal_attempts_random);
}

void Scheduler::lane_depths(std::uint32_t out[kNumLanes]) {
  std::lock_guard<std::mutex> lk(mu_);
  // Splice so roots still in the submit rings are counted; any thread
  // holding mu_ may do this, not only the popping worker.
  splice_inboxes_locked();
  for (std::uint32_t l = 0; l < kNumLanes; ++l) {
    std::uint32_t depth = 0;
    for (const RootJob* j = lanes_[l].head; j != nullptr; j = j->next) ++depth;
    out[l] = depth;
  }
}

WorkerCounters Scheduler::aggregate_counters_idle() {
  // Every worker is parked and we hold mu_: none can resume (let alone
  // touch its counters) before this merge finishes.
  const auto lk = lock_idle();
  WorkerCounters total;
  for (const auto& w : workers_) total.merge(w->counters());
  return total;
}

std::size_t Scheduler::frame_arena_live_bytes_idle() {
  const auto lk = lock_idle();
  const std::uint64_t upto = frames_completed_upto();
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->arena_.live_bytes(upto);
  return total;
}

void Scheduler::reset_counters() {
  const auto lk = lock_idle();
  for (auto& w : workers_) {
    w->counters().reset();
    w->obs_flushed_.reset();
  }
}

void Scheduler::reset_trace() {
  for (auto& r : trace_rings_) r->clear();
}

}  // namespace nabbitc::rt
