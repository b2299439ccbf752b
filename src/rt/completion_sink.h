// Completion events for a stream of independently waited roots.
//
// A job's or a batch's completion word (rt/scheduler.h) wakes a thread that
// sleeps on that one word. A server session needs the other shape: it owns
// an open-ended stream of roots, sleeps in poll(2) on its socket, and must
// learn about EACH completion without polling a clock. A CompletionSink is
// that listener. Every root submitted with it (RootJob::sink) counts as
// pending from submit until its finisher lets go of the sink:
// Scheduler::finish_root calls job_finished() after counting down the
// job's completion word, outside every scheduler lock. If the owner armed
// the sink before it last checked its roots, the first finisher calls
// wake() and disarms it, so a burst of completions costs one wake per
// owner sleep, not one per root.
//
// The owner's loop is arm() -> check every root's is_done() -> sleep until
// wake(). arm() and job_finished() each issue a seq_cst fence between
// their store and their load, so either the check sees the job done or the
// finisher sees the armed flag: no completion is missed.
//
// Lifetime: the finisher's last touch of the sink is the release decrement
// of the pending count, after any wake(). The owner calls quiesce(), which
// waits until that count reads zero (acquire), before it destroys the sink
// or whatever wake() reaches.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace nabbitc::rt {

class Scheduler;

class CompletionSink {
 public:
  CompletionSink() = default;
  CompletionSink(const CompletionSink&) = delete;
  CompletionSink& operator=(const CompletionSink&) = delete;

  /// The owner is about to check its roots and then sleep: the next
  /// finisher wakes it.
  void arm() noexcept {
    armed_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Returns once no finisher can touch the sink again. Call it after every
  /// root submitted with the sink is done, before destroying the sink.
  void quiesce() noexcept {
    while (pending_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }

 protected:
  ~CompletionSink() = default;

  /// Called by at most one finisher per arm(), outside every scheduler
  /// lock. Must be cheap and must not block.
  virtual void wake() noexcept = 0;

 private:
  friend class Scheduler;

  void job_submitted() noexcept {
    pending_.fetch_add(1, std::memory_order_relaxed);
  }

  void job_finished() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (armed_.exchange(false, std::memory_order_relaxed)) wake();
    pending_.fetch_sub(1, std::memory_order_release);  // last touch
  }

  std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> armed_{false};
};

}  // namespace nabbitc::rt
