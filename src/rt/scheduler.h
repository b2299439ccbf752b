// The work-stealing scheduler: workers, job lifecycle, steal loop.
//
// This is the from-scratch replacement for the modified GCC Cilk Plus
// runtime of the paper (see "Paper mapping" in README.md). One OS thread
// per worker; each worker owns a Chase-Lev deque whose entries advertise
// color masks; thieves run the colored-steal policy of SectionIII.
//
// Job model: the scheduler is a persistent service. Clients enqueue root
// jobs with submit() — from any thread, concurrently — and each root is
// adopted by whichever worker finds it first. While any job is active every
// worker runs the service loop (own deque, then steal, then the injection
// queue), so tasks from concurrently submitted jobs interleave freely on
// the shared pool. execute() is the synchronous submit+wait convenience the
// single-job callers (and the api::Runtime façade's run()) build on.
//
// Submission control: the injection queue is a small fixed set of priority
// lanes, each fronted by a lock-free MPSC submit ring (rt/submit_ring.h):
// producers push per-batch chains with one CAS and never take mu_; whichever
// worker pops next splices the rings into the lane FIFOs under mu_, so
// lane ordering and starvation bounding are unchanged from the
// mutex-guarded design while submitters stay wait-free.
// submit_batch() amortizes the remaining per-root costs (epoch bump, wake)
// across N roots. Completion takes no lock: each root job and each batch
// has one CompletionWord that finishers count down and waiters sleep on, so
// a batch waiter sleeps at most ONCE for the whole batch.
// Workers adopting a root prefer the highest non-empty lane, but
// draining is starvation-bounded — a lower lane bypassed kLaneStarvationBound
// times in a row gets the next pop regardless, so background work always
// progresses under sustained high-priority traffic. Roots also carry a
// cooperative cancellation word and an optional absolute deadline, both
// checked by RootJob::should_skip() at each node dispatch: executors skip
// work once the word is set, and a deadline-armed root sets it itself
// (kDeadline) the first time a dispatch finds its deadline passed (a
// tiny plan's serial interpreter reads the clock only every 8th node).
// Adoption checks the deadline once more, so a root that expired while
// queued starts cancelled. No waiter, sweep or steal-loop clock is involved.
//
// Memory contract: per-worker frame arenas are epoch-segmented (rt/arena.h).
// Every RootJob gets a frame epoch at submission; arena blocks are stamped
// with the newest epoch that allocated into them and recycled as soon as
// every job at or below that stamp has finished — so even a client that
// NEVER lets the pool drain (continuous overlapping submissions) runs at the
// busy period's high-watermark instead of growing without bound. Full pool
// quiescence additionally rewinds everything at once (the cheap path for
// serialized submissions).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "numa/penalty.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "rt/arena.h"
#include "rt/completion_sink.h"
#include "rt/counters.h"
#include "rt/deque.h"
#include "rt/status.h"
#include "rt/steal_policy.h"
#include "rt/submit_ring.h"
#include "rt/task.h"
#include "support/align.h"
#include "support/futex.h"
#include "support/rng.h"
#include "support/spin.h"
#include "support/timing.h"
#include "trace/ring.h"

namespace nabbitc::rt {

class Scheduler;

/// The completion word of one root job or one batch: unfinished roots in
/// the low 31 bits, plus a bit a waiter sets before it futex-sleeps on the
/// word. Only the count_down taking the count to zero with that bit set
/// makes a syscall; one landing between a waiter's bit-set and its sleep
/// changes the word, so the kernel refuses the sleep and no wake is lost.
/// Lifetime: a finisher's last access to the word is its RMW, and the wake
/// passes only the address to the kernel. If the memory was freed and
/// reused meanwhile, that is a spurious wake of another futex word, which
/// every futex waiter (ours and glibc's) tolerates by re-checking its word.
/// So the word may be freed as soon as drained() reads true.
class CompletionWord {
 public:
  /// Arms the word for `n` finishers and clears the parked bit: a plain
  /// store, made before any finisher or waiter can see the word. arm(0)
  /// completes it (an inline replay, finished before its submit returns).
  void arm(std::uint32_t n) noexcept {
    word_.store(n, std::memory_order_release);
  }
  /// True once every finisher has counted down; acquire, so their writes
  /// are visible to the caller.
  bool drained() const noexcept {
    return (word_.load(std::memory_order_acquire) & kCountMask) == 0;
  }
  /// One finisher is done. The RMW is its last access to *this.
  void count_down() noexcept {
    if (word_.fetch_sub(1, std::memory_order_acq_rel) == (kParked | 1)) {
      futex_wake_all(&word_);
    }
  }
  /// Sleeps until drained() or the absolute now_ns() deadline (0 = none)
  /// and returns drained(). The caller spins first if it wants to.
  bool sleep_until_drained(std::uint64_t deadline_ns) const noexcept {
    for (;;) {
      const std::uint32_t seen =
          word_.fetch_or(kParked, std::memory_order_acquire);
      if ((seen & kCountMask) == 0) return true;
      futex_wait(word_, seen | kParked, deadline_ns);
      if (deadline_ns != 0 && now_ns() >= deadline_ns) return drained();
    }
  }

 private:
  static constexpr std::uint32_t kParked = 1u << 31;
  static constexpr std::uint32_t kCountMask = kParked - 1;
  /// Mutable: the parked bit is waiter bookkeeping, set by const waits.
  mutable std::atomic<std::uint32_t> word_{0};
};

struct SchedulerConfig {
  /// Number of workers (== number of colors). Defaults to host concurrency.
  std::uint32_t num_workers = 0;  // 0 = hardware_concurrency
  /// Topology used for pinning and domain-granularity locality accounting.
  numa::Topology topology = numa::Topology::host();
  StealPolicy steal{};
  /// Pin worker w to core topology.core_of_worker(w) (best effort). When
  /// false, worker w still starts on that core but may migrate.
  bool pin_threads = false;
  std::uint64_t seed = 0x9e3779b9u;
  /// Event tracing (trace/). Off by default; when off, no rings are
  /// allocated and every instrumentation site is one null-pointer branch.
  trace::TraceConfig trace{};
};

/// Per-thread scheduler agent. Everything here except the deque is touched
/// only by the owning thread (or by aggregation after a job completes).
class Worker {
 public:
  std::uint32_t id() const noexcept { return id_; }
  numa::Color color() const noexcept { return color_; }
  std::uint32_t domain() const noexcept { return domain_; }
  const ColorMask& color_mask() const noexcept { return my_mask_; }

  WorkDeque& deque() noexcept { return deque_; }
  JobArena& arena() noexcept { return arena_; }
  WorkerCounters& counters() noexcept { return counters_; }
  const WorkerCounters& counters() const noexcept { return counters_; }
  Pcg32& rng() noexcept { return rng_; }
  Scheduler& scheduler() noexcept { return *sched_; }
  const numa::Topology& topology() const noexcept;

  /// Records the paper's node-level locality metric for one executed
  /// task-graph node: the node's own color plus its predecessors' colors,
  /// each counted remote iff outside this worker's NUMA domain.
  void record_node_execution(numa::Color node_color, std::uint64_t preds_total,
                             std::uint64_t preds_remote) noexcept {
    const bool remote = !topology().is_local(node_color, id_);
    auto& loc = counters_.locality;
    loc.nodes += 1;
    loc.remote_nodes += remote ? 1 : 0;
    loc.pred_accesses += preds_total;
    loc.remote_pred_accesses += preds_remote;
    if (trace_ring_ != nullptr) {
      trace_emit(trace::EventKind::kNodeExec, now_ns(), preds_total, preds_remote,
                 remote ? trace::kFlagRemote : 0, node_color);
    }
  }

  /// True iff this worker records trace events (scheduler-wide setting).
  bool tracing() const noexcept { return trace_ring_ != nullptr; }
  trace::EventRing* trace_ring() noexcept { return trace_ring_; }
  const trace::EventRing* trace_ring() const noexcept { return trace_ring_; }

  /// Appends one event stamped with this worker's identity. Callers must
  /// have checked tracing() (or hold a non-null ring) first; the helpers
  /// below fold that check into one predictable branch.
  void trace_emit(trace::EventKind kind, std::uint64_t ts_ns, std::uint64_t arg_a,
                  std::uint64_t arg_b, std::uint8_t flags,
                  numa::Color color) noexcept {
    trace::Event e;
    e.ts_ns = ts_ns;
    e.arg_a = arg_a;
    e.arg_b = arg_b;
    e.color = color;
    e.worker = static_cast<std::uint16_t>(id_);
    e.domain = static_cast<std::uint16_t>(domain_);
    e.kind = kind;
    e.flags = flags;
    trace_ring_->emit(e);
  }

  /// Spawn instrumentation (called from TaskGroup::spawn).
  void trace_spawn(const ColorMask& colors) noexcept {
    if (trace_ring_ == nullptr) return;
    trace_emit(trace::EventKind::kSpawn, now_ns(), colors.count(), 0, 0, color_);
  }

  /// True iff `c` is local to this worker's NUMA domain.
  bool color_is_local(numa::Color c) const noexcept {
    return topology().is_local(c, id_);
  }

  /// One attempt to obtain a task: own deque first, then one steal round.
  /// Returns nullptr when no work was found this round.
  Task* find_task();

  /// Executes a task, updating counters (and the trace when enabled). The
  /// arena's frame epoch follows the task's owning job for the duration and
  /// is restored afterwards — a worker helping inside TaskGroup::wait may
  /// run foreign-job tasks mid-frame, and the frames it allocates once it
  /// resumes its own task must keep their own job's stamp.
  void run_task(Task* task) {
    ++counters_.tasks_executed;
    const std::uint64_t saved_epoch = arena_.epoch();
    arena_.set_epoch(task->epoch);
    if (trace_ring_ == nullptr) {
      task->run(*this);
    } else {
      const std::uint64_t t0 = now_ns();
      task->run(*this);
      trace_emit(trace::EventKind::kTask, t0, now_ns() - t0, 0, 0, color_);
    }
    arena_.set_epoch(saved_epoch);
  }

 private:
  friend class Scheduler;
  Task* try_steal_once();

  std::uint32_t id_ = 0;
  numa::Color color_ = 0;
  std::uint32_t domain_ = 0;
  ColorMask my_mask_;
  Scheduler* sched_ = nullptr;

  WorkDeque deque_;
  JobArena arena_;
  WorkerCounters counters_;
  Pcg32 rng_;
  trace::EventRing* trace_ring_ = nullptr;  // null <=> tracing disabled

  // Per-submission steal-policy state (reset whenever the worker observes a
  // new submission epoch; see Scheduler::service_loop).
  bool first_steal_done_ = false;
  std::uint64_t forced_attempts_ = 0;
  std::uint32_t steal_round_ = 0;
  std::uint64_t job_start_ns_ = 0;
  std::uint32_t seen_epoch_ = 0;
  /// Quiescence generation observed right after this worker last ran a task
  /// (or last rewound its arena). When the scheduler-wide generation moves
  /// past this value, every frame in arena_ predates a moment with zero
  /// active jobs and is garbage — the arena can be rewound.
  std::uint64_t clean_gen_ = 0;
  /// High-watermark of counters_ already published into the obs registry
  /// (see Scheduler::flush_worker_obs). Owner-thread only, like counters_.
  WorkerCounters obs_flushed_;
};

/// Owns the worker threads. One Scheduler instance == one virtual machine
/// serving any number of concurrently submitted jobs.
class Scheduler {
 public:
  /// Injection lanes, highest priority first (lane 0 pops before lane 1
  /// before lane 2). Mirrors api::Priority one-to-one.
  static constexpr std::uint32_t kNumLanes = 3;
  /// A lower lane bypassed this many consecutive pops gets the next root
  /// regardless of higher-lane backlog — the starvation bound.
  static constexpr std::uint32_t kLaneStarvationBound = 8;

  /// Completion rendezvous for one submit_batch(), armed to the batch size.
  /// Lifetime: it must outlive the batch's jobs until wait_batch() returns
  /// (or drained() reads true), and may be freed at once after that: the
  /// last finisher's final access is its count_down RMW (CompletionWord).
  using BatchSync = CompletionWord;

  /// One unit of submittable root work. The submitter owns the storage; it
  /// must stay alive until is_done() (e.g. until wait() returns). `fn` runs
  /// on whichever worker adopts the job and must not return before all work
  /// it spawned has completed (wait on your TaskGroups), which every
  /// executor in this codebase guarantees. `lane` is read at submit() and
  /// `deadline_ns` until the job is done; set both before submitting,
  /// never after.
  struct RootJob {
    std::function<void(Worker&)> fn;
    /// Armed to 1 at submit; finish_root counts it down.
    CompletionWord completion;
    /// Intrusive link: submit-ring chain while queued in a lane inbox, then
    /// lane-FIFO link after the consumer splices (see rt/submit_ring.h).
    RootJob* next = nullptr;
    /// Batch completion rendezvous, or null for singleton submissions. Set
    /// by submit_batch(); finish_root reads it before completing the job
    /// and counts it down after.
    BatchSync* batch = nullptr;
    /// Completion listener (rt/completion_sink.h), or null. Set before
    /// submit(); submit counts the job as pending on the sink, and
    /// finish_root reads it before completing the job — like `batch` — and
    /// notifies it after. The sink must outlive the job's notify: see
    /// CompletionSink::quiesce().
    CompletionSink* sink = nullptr;
    /// Frame epoch assigned at submit() (monotone); tags every arena block
    /// this job's frames land in (see rt/arena.h).
    std::uint64_t frame_epoch = 0;
    /// Intrusive links for the epoch-ordered active-job list (under mu_),
    /// from which the reclamation watermark is derived.
    RootJob* active_prev = nullptr;
    RootJob* active_next = nullptr;

    /// Observability stamps (obs/). t_enqueue_ns is set by submit_batch
    /// (ONE clock read per batch, shared by its jobs; 0 when metrics are
    /// disabled); t_adopt_ns is set by the adopting worker and feeds the
    /// sched_dispatch_ns histogram plus the api layer's queue-wait metric.
    /// Neither is read by the scheduler's own control flow.
    std::uint64_t t_enqueue_ns = 0;
    std::uint64_t t_adopt_ns = 0;

    /// Injection lane (0 = highest priority). Must be < kNumLanes.
    std::uint8_t lane = 1;
    /// Absolute deadline on the now_ns() clock; 0 = none. Once it passes,
    /// the job cancels itself with CancelReason::kDeadline at its adoption
    /// or at its next node dispatch (see should_skip).
    std::uint64_t deadline_ns = 0;
    /// Cooperative cancellation word (a CancelReason). Set at most once per
    /// submission (first writer wins); cleared by submit(). Executors check
    /// it through should_skip() on node dispatch and skip not-yet-started
    /// work once it is set — in-flight node computes always finish.
    std::atomic<std::uint8_t> cancel{0};

    /// Requests cancellation; returns false when some reason already won
    /// (including this one). Safe from any thread, any time between
    /// submit() and wait() returning.
    bool try_cancel(CancelReason reason) noexcept {
      std::uint8_t expected = 0;
      return cancel.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(reason),
          std::memory_order_acq_rel, std::memory_order_acquire);
    }
    bool cancel_requested() const noexcept {
      return cancel.load(std::memory_order_acquire) != 0;
    }
    /// The node-dispatch check: true once work of this job must be skipped.
    /// A passed deadline cancels the job (kDeadline, first writer wins)
    /// before this returns true, so the word is always set before anything
    /// is skipped and every later check agrees. Unarmed jobs pay one load
    /// and branch beyond cancel_requested(); armed ones one clock read.
    bool should_skip() noexcept {
      if (cancel_requested()) return true;
      if (deadline_ns == 0 || now_ns() < deadline_ns) return false;
      try_cancel(CancelReason::kDeadline);
      return true;
    }
    CancelReason cancel_reason() const noexcept {
      return static_cast<CancelReason>(cancel.load(std::memory_order_acquire));
    }
    /// True once `fn` has returned and the job was retired (acquire).
    bool is_done() const noexcept { return completion.drained(); }
  };

  explicit Scheduler(SchedulerConfig cfg);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues `job` for execution on the pool. Thread-safe; may be called
  /// from external threads and from workers. Non-blocking and lock-free on
  /// the producer side (one CAS into the lane's submit ring; the worker
  /// wake takes mu_ only when someone is actually parked).
  void submit(RootJob& job);

  /// Enqueues `n` jobs as ONE submission batch: one epoch/active-count
  /// bump, one ring CAS per distinct lane, and one worker wake for the
  /// whole batch. Jobs may target different lanes and carry individual
  /// deadlines; per-lane FIFO order follows the array order. When `sync`
  /// is non-null it is armed to `n` and every job's completion decrements
  /// it — pair with wait_batch() for a one-park wait over the whole batch.
  /// Thread-safe, lock-free.
  void submit_batch(RootJob* const* jobs, std::size_t n,
                    BatchSync* sync = nullptr);

  /// Returns when every job of the batch armed on `sync` has completed
  /// (sync.drained()). Same protocol as wait(), on the batch's own word:
  /// per-root completions never wake an external waiter, only the last
  /// finisher does. Deadlines need no waiter: each job expires its own
  /// (see RootJob::should_skip).
  void wait_batch(BatchSync& sync) { wait_word(sync, 0); }

  /// Returns when `job.fn` has returned. An external thread spins briefly
  /// (wait_spin_limit), then sleeps on the job's completion word; a worker
  /// thread HELPS instead of blocking — it keeps stealing and adopting
  /// queued roots (possibly `job` itself) until the job completes, so
  /// submit+wait works from inside tasks even on a single-worker pool.
  void wait(const RootJob& job) { wait_word(job.completion, 0); }

  /// wait() bounded by an absolute now_ns() deadline (0 = unbounded).
  /// Returns job.is_done() — false means the timeout fired first; the job
  /// keeps running (pair with RootJob::try_cancel to abandon it).
  bool wait_until(const RootJob& job, std::uint64_t deadline_ns) {
    return wait_word(job.completion, deadline_ns);
  }

  /// External-waiter spin budget before sleeping on the completion word.
  /// Bounded spinning wins for small-graph round trips (a few µs — less
  /// than a futex sleep/wake), but on a single-worker pool the spinning
  /// waiter competes with the only thread that can make progress, so wait()
  /// sleeps immediately there (exposed for the regression test).
  int wait_spin_limit() const noexcept { return num_workers() > 1 ? 128 : 0; }

  /// Blocks until no job is active AND every worker has parked. After this
  /// returns (and until the next submit), counters, trace rings, and worker
  /// state can be read or reset without racing the pool.
  void wait_idle();

  /// Submit + wait: runs `root` to completion on the pool. Kept as the
  /// synchronous single-job entry point; concurrent callers simply become
  /// concurrent submissions.
  void execute(std::function<void(Worker&)> root);

  std::uint32_t num_workers() const noexcept { return static_cast<std::uint32_t>(workers_.size()); }
  const SchedulerConfig& config() const noexcept { return cfg_; }
  const numa::Topology& topology() const noexcept { return cfg_.topology; }

  Worker& worker(std::uint32_t i) noexcept { return *workers_[i]; }
  const Worker& worker(std::uint32_t i) const noexcept { return *workers_[i]; }

  /// Bytes of frame-arena block storage held across all workers (mapped
  /// high-watermark; see the memory contract above). Safe from any thread.
  std::size_t frame_arena_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& w : workers_) total += w->arena_.bytes_held();
    return total;
  }

  /// The epoch-reclamation watermark: every job with frame epoch at or
  /// below this value has finished (exposed for white-box tests).
  std::uint64_t frames_completed_upto() const noexcept {
    return frames_completed_upto_.load(std::memory_order_acquire);
  }

  /// Sum of all per-worker counters (cumulative since last reset) as an
  /// atomic quiescent snapshot: waits for full quiescence (active_jobs_ ==
  /// 0 and every worker parked) and merges the counters while still holding
  /// the scheduler mutex. A parked worker sits inside cv_start_.wait(mu_)
  /// and cannot resume — or bump a counter — until it reacquires mu_, so
  /// the merge cannot race a counter write even when another thread submits
  /// mid-snapshot (the snapshot simply waits out the new job). Must not be
  /// called from a worker thread.
  WorkerCounters aggregate_counters_idle();
  /// Zeroes every worker's counters together with its obs watermark (so
  /// flush_worker_obs keeps publishing every later event), under the same
  /// quiescence protocol as aggregate_counters_idle.
  void reset_counters();

  /// Quiescent snapshot (same protocol as aggregate_counters_idle) of the
  /// arena bytes stamped above frames_completed_upto(): 0 unless some
  /// finished job's frame epoch never retired.
  std::size_t frame_arena_live_bytes_idle();

  /// True iff this scheduler records trace events.
  bool tracing() const noexcept { return !trace_rings_.empty(); }
  /// Worker i's event ring, or nullptr when tracing is disabled. Reading
  /// ring contents is only valid while the pool is idle (see trace/ring.h).
  const trace::EventRing* trace_ring(std::uint32_t i) const noexcept {
    return tracing() ? trace_rings_[i].get() : nullptr;
  }
  /// Clears every worker's ring (counters are untouched).
  void reset_trace();

  /// The worker owned by the calling thread, or nullptr off the pool.
  static Worker* current() noexcept;

  /// Scrape-time lane depths: spliced-FIFO length per lane (takes mu_ and
  /// splices the submit rings first, so queued-but-unspliced roots are
  /// counted too). For monitoring only — O(queued roots), ~1/s callers.
  void lane_depths(std::uint32_t out[kNumLanes]);

 private:
  friend class Worker;
  void worker_main(std::uint32_t index);
  void service_loop(Worker& w);
  /// One attempt to advance the pool on `w`: run a task, or adopt and run
  /// a queued root. Returns false when there was nothing to do. Shared by
  /// the service loop and by workers helping inside wait().
  bool try_progress(Worker& w);
  /// Rearms w's per-submission steal-policy state when a new submission
  /// epoch is visible. Called before w runs any newly acquired work.
  void rearm_epoch(Worker& w);
  RootJob* pop_root();
  /// Drains every lane's submit ring into its FIFO: assigns frame epochs,
  /// appends to the epoch-ordered active list, and links the chain onto the
  /// lane tail. Requires mu_. Called at the consumer boundaries (pop_root,
  /// lane_depths) so everything ordering-sensitive still happens under the
  /// one lock while producers stay lock-free.
  void splice_inboxes_locked();
  /// Wakes parked workers after publishing new work, eliding the mutex+
  /// notify entirely when nobody is parked (the common saturated case).
  void wake_workers() noexcept;
  /// The one wait loop behind wait(), wait_until() and wait_batch(): until
  /// `word` drains or the absolute `deadline_ns` passes (0 = never), a
  /// worker helps through try_progress; an external thread spins, then
  /// sleeps on the word. Returns word.drained().
  bool wait_word(const CompletionWord& word, std::uint64_t deadline_ns);
  /// Retires `job` and counts down its completion words (job, batch) and
  /// sink; returns true when this was the last active job (the caller may
  /// then rewind its arena). `job` must not be touched after this returns —
  /// the submitter may already have freed it.
  bool finish_root(RootJob& job);
  /// Publishes the delta of `w`'s plain counters into the obs registry.
  /// Called only from w's own thread, at cold boundaries (root completion,
  /// park entry) — the steal loop itself never touches obs state, and the
  /// registry's atomics make the published totals safe to scrape live
  /// (unlike the plain fields, which need aggregate_counters_idle).
  void flush_worker_obs(Worker& w) noexcept;
  /// Waits for full quiescence (no active job, every worker parked) and
  /// returns the lock that keeps it: parked workers sit in
  /// cv_start_.wait(mu_) and cannot resume while the caller holds it.
  std::unique_lock<std::mutex> lock_idle();

  /// Registry metric handles, resolved once at construction (the registry
  /// lookup takes a mutex; these records must not).
  struct ObsMetrics {
    obs::Histogram* dispatch_ns;       // root enqueue -> adoption
    obs::Histogram* park_ns;           // worker park duration
    obs::Counter* tasks;
    obs::Counter* spawns;
    obs::Counter* steals_colored;
    obs::Counter* steals_random;
    obs::Counter* steal_attempts;
  };
  ObsMetrics obs_;

  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<trace::EventRing>> trace_rings_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;  // workers park here while idle
  /// Signalled by the last worker to park with no active job; lock_idle
  /// (wait_idle, the idle snapshots, ~Scheduler) waits here.
  std::condition_variable cv_idle_;
  /// One injection lane per priority. Producers touch only `inbox` (lock-
  /// free); the spliced FIFO (`head`/`tail`) and `bypassed` live under mu_.
  /// `bypassed` counts consecutive pops that preferred a higher lane while
  /// this one had a waiter; at kLaneStarvationBound the lane gets the pop
  /// (see pop_root). Cache-line aligned so producer CAS traffic on one
  /// lane's inbox never false-shares with another lane or with mu_.
  struct alignas(kCacheLine) Lane {
    SubmitRing<RootJob> inbox;
    RootJob* head = nullptr;
    RootJob* tail = nullptr;
    std::uint32_t bypassed = 0;
  };
  Lane lanes_[kNumLanes];
  /// Count of workers parked on cv_start_. Modified only under mu_ (in
  /// worker_main), but read LOCK-FREE by submitters deciding whether a
  /// wake is needed at all — see the seq_cst handshake in wake_workers().
  std::atomic<std::uint32_t> parked_workers_{0};
  bool shutdown_ = false;  // under mu_

  /// Jobs submitted but not finished. Workers serve while this is nonzero.
  std::atomic<std::uint32_t> active_jobs_{0};
  /// Queued-but-unadopted roots; lets the service loop skip the queue lock.
  std::atomic<std::uint32_t> inject_count_{0};
  /// Bumped per submission; workers reset per-job steal state on change.
  std::atomic<std::uint32_t> submit_epoch_{0};
  /// Bumped each time active_jobs_ drops to zero; drives arena recycling.
  std::atomic<std::uint64_t> quiescent_gen_{0};

  // Epoch-segmented frame reclamation (under mu_ except the watermark):
  // active jobs form an intrusive list in frame-epoch order; the watermark
  // is min(active epochs) - 1, or the last assigned epoch when none are
  // active. Worker arenas recycle any block stamped <= watermark.
  std::uint64_t next_frame_epoch_ = 0;  // last assigned; under mu_
  RootJob* active_head_ = nullptr;      // oldest active job, under mu_
  RootJob* active_tail_ = nullptr;      // newest active job, under mu_
  std::atomic<std::uint64_t> frames_completed_upto_{0};
};

// ---------------------------------------------------------------------------
// TaskGroup inline implementation (needs Worker).

template <typename F>
void TaskGroup::spawn(Worker& worker, const ColorMask& colors, F&& fn) {
  using Fn = std::decay_t<F>;
  add(1);
  auto* task = worker.arena().create<GroupTask<Fn>>(this, std::forward<F>(fn));
  task->colors = colors;  // the paper's cilkrts_set_next_colors()
  task->epoch = worker.arena().epoch();  // spawns inherit the job's epoch
  ++worker.counters().spawns;
  worker.trace_spawn(colors);
  worker.deque().push(task);
}

inline void TaskGroup::wait(Worker& worker) {
  // Work-first helping: drain own deque, then steal, until the group is
  // done. Misses back off exactly like the idle loop in service_loop — a
  // bare yield() here made helping workers spin hotter than idle ones and
  // syscall on every miss.
  Backoff backoff;
  while (!done()) {
    if (Task* t = worker.find_task()) {
      worker.run_task(t);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace nabbitc::rt
