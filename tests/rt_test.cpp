// Tests for the work-stealing runtime: color masks, deque, arena,
// pool lifecycle, task groups, parallel_for, steal policies. Pool-level
// tests drive the scheduler through the public nabbitc::Runtime façade
// (run_parallel), reaching into rt::Worker state via Runtime::scheduler().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "rt/arena.h"
#include "rt/color_mask.h"
#include "rt/deque.h"
#include "rt/parallel_for.h"
#include "rt/scheduler.h"

namespace nabbitc::rt {
namespace {

// -------------------------------------------------------------- color mask

TEST(ColorMask, SetAndTest) {
  ColorMask m;
  EXPECT_TRUE(m.none());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(127);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(127));
  EXPECT_FALSE(m.test(1));
  EXPECT_EQ(m.count(), 4u);
}

TEST(ColorMask, InvalidColorNeverSets) {
  ColorMask m;
  m.set(numa::kInvalidColor);
  EXPECT_TRUE(m.none());
  EXPECT_FALSE(m.test(numa::kInvalidColor));
}

TEST(ColorMask, OutOfRangeTestIsFalse) {
  ColorMask m = ColorMask::single(3);
  EXPECT_FALSE(m.test(500));
  EXPECT_FALSE(m.test(-5));
}

TEST(ColorMask, UnionAndIntersect) {
  ColorMask a = ColorMask::single(1);
  ColorMask b = ColorMask::single(2);
  EXPECT_FALSE(a.intersects(b));
  ColorMask u = a | b;
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(2));
  EXPECT_TRUE(u.intersects(a));
  a |= b;
  EXPECT_EQ(a, u);
}

TEST(ColorMask, EmptyIntersectsNothing) {
  ColorMask e;
  EXPECT_FALSE(e.intersects(ColorMask::single(0)));
  EXPECT_FALSE(ColorMask::single(0).intersects(e));
}

// ------------------------------------------------------------------- arena

TEST(Arena, AllocatesAndAligns) {
  JobArena a(4096);
  auto* p1 = a.create<std::uint64_t>(42u);
  EXPECT_EQ(*p1, 42u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % alignof(std::uint64_t), 0u);
  auto* arr = a.create_array<int>(100);
  for (int i = 0; i < 100; ++i) arr[i] = i;
  EXPECT_EQ(arr[99], 99);
}

TEST(Arena, GrowsAcrossBlocks) {
  JobArena a(256);
  std::vector<std::uint64_t*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(a.create<std::uint64_t>(i));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*ptrs[i], static_cast<std::uint64_t>(i));
  EXPECT_GT(a.blocks_allocated(), 1u);
}

TEST(Arena, ResetReusesBlocks) {
  JobArena a(256);
  for (int i = 0; i < 100; ++i) a.create<std::uint64_t>(i);
  const std::size_t blocks = a.blocks_allocated();
  a.reset();
  for (int i = 0; i < 100; ++i) a.create<std::uint64_t>(i);
  EXPECT_EQ(a.blocks_allocated(), blocks);  // no new blocks needed
}

TEST(ArenaDeath, OversizedAllocationAborts) {
  JobArena a(128);
  EXPECT_DEATH(a.allocate(4096), "larger than arena block");
}

TEST(Arena, EpochSegmentsRecycleWhenTheirJobsFinish) {
  // Blocks stamped by a finished epoch are reused instead of growing the
  // arena — no full reset() required (the overlapping-submission fix).
  std::atomic<std::uint64_t> completed{0};
  JobArena a(256);
  a.bind_reclaim(&completed);

  a.set_epoch(1);
  for (int i = 0; i < 100; ++i) a.create<std::uint64_t>(i);
  const std::size_t blocks_epoch1 = a.blocks_allocated();
  EXPECT_GT(blocks_epoch1, 1u);

  // Epoch 1 finished; epoch 2's frames must fit in the recycled blocks.
  completed.store(1, std::memory_order_release);
  a.set_epoch(2);
  for (int i = 0; i < 100; ++i) a.create<std::uint64_t>(i);
  EXPECT_LE(a.blocks_allocated(), blocks_epoch1 + 1);
}

TEST(Arena, LiveEpochBlocksAreNeverRecycled) {
  // While no epoch has finished, every block may hold live frames: the
  // arena must grow instead of recycling.
  std::atomic<std::uint64_t> completed{0};
  JobArena a(256);
  a.bind_reclaim(&completed);

  a.set_epoch(1);
  std::vector<std::uint64_t*> ptrs;
  for (int i = 0; i < 50; ++i) ptrs.push_back(a.create<std::uint64_t>(i));
  a.set_epoch(2);
  for (int i = 50; i < 100; ++i) ptrs.push_back(a.create<std::uint64_t>(i));
  // Nothing was recycled, so every frame from both epochs is intact.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*ptrs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST(Arena, MixedEpochBlockWaitsForNewestStamp) {
  // A block shared by epochs 1 and 2 carries stamp 2: finishing epoch 1
  // alone must not recycle it.
  std::atomic<std::uint64_t> completed{0};
  JobArena a(256);
  a.bind_reclaim(&completed);

  a.set_epoch(1);
  auto* p1 = a.create<std::uint64_t>(11u);
  a.set_epoch(2);
  auto* p2 = a.create<std::uint64_t>(22u);  // same (first) block: stamp -> 2
  completed.store(1, std::memory_order_release);
  a.set_epoch(3);
  for (int i = 0; i < 100; ++i) a.create<std::uint64_t>(i);  // forces block turnover
  EXPECT_EQ(*p1, 11u);
  EXPECT_EQ(*p2, 22u);
}

TEST(Scheduler, FrameWatermarkAdvancesAsJobsComplete) {
  SchedulerConfig cfg;
  cfg.num_workers = 2;
  Scheduler sched(cfg);
  EXPECT_EQ(sched.frames_completed_upto(), 0u);
  for (int i = 0; i < 3; ++i) {
    sched.execute([](Worker& w) {
      TaskGroup g;
      for (int s = 0; s < 8; ++s) g.spawn(w, ColorMask{}, [](Worker&) {});
      g.wait(w);
    });
  }
  sched.wait_idle();
  // All three submissions finished: every frame epoch is reclaimable.
  EXPECT_EQ(sched.frames_completed_upto(), 3u);
  // The spawned frames came from worker arenas, so block storage is held.
  EXPECT_GT(sched.frame_arena_bytes(), 0u);
}

// ------------------------------------------------------------------- deque

struct CountingTask final : Task {
  std::atomic<int>* counter;
  explicit CountingTask(std::atomic<int>* c) : counter(c) {}
  void run(Worker&) override { counter->fetch_add(1); }
};

TEST(Deque, LifoPopForOwner) {
  WorkDeque d;
  std::atomic<int> c{0};
  CountingTask t1(&c), t2(&c), t3(&c);
  d.push(&t1);
  d.push(&t2);
  d.push(&t3);
  EXPECT_EQ(d.pop(), &t3);
  EXPECT_EQ(d.pop(), &t2);
  EXPECT_EQ(d.pop(), &t1);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, FifoStealForThief) {
  WorkDeque d;
  std::atomic<int> c{0};
  CountingTask t1(&c), t2(&c);
  d.push(&t1);
  d.push(&t2);
  Task* out = nullptr;
  EXPECT_EQ(d.steal(&out), StealResult::kSuccess);
  EXPECT_EQ(out, &t1);  // oldest
  EXPECT_EQ(d.steal(&out), StealResult::kSuccess);
  EXPECT_EQ(out, &t2);
  EXPECT_EQ(d.steal(&out), StealResult::kEmpty);
}

TEST(Deque, ColoredStealChecksTopMask) {
  WorkDeque d;
  std::atomic<int> c{0};
  CountingTask t1(&c), t2(&c);
  t1.colors = ColorMask::single(3);
  t2.colors = ColorMask::single(5);
  d.push(&t1);
  d.push(&t2);
  Task* out = nullptr;
  ColorMask want5 = ColorMask::single(5);
  // Top entry is t1 (color 3): a thief wanting color 5 must miss.
  EXPECT_EQ(d.steal(&out, &want5), StealResult::kColorMiss);
  ColorMask want3 = ColorMask::single(3);
  EXPECT_EQ(d.steal(&out, &want3), StealResult::kSuccess);
  EXPECT_EQ(out, &t1);
  // Now the top is t2 (color 5).
  EXPECT_EQ(d.steal(&out, &want5), StealResult::kSuccess);
  EXPECT_EQ(out, &t2);
}

TEST(Deque, EmptyMaskNeverMatchesColoredSteal) {
  WorkDeque d;
  std::atomic<int> c{0};
  CountingTask t(&c);  // empty mask — an "invalid coloring" frame
  d.push(&t);
  Task* out = nullptr;
  ColorMask want = ColorMask::single(0);
  EXPECT_EQ(d.steal(&out, &want), StealResult::kColorMiss);
  EXPECT_EQ(d.steal(&out, nullptr), StealResult::kSuccess);  // random steal works
}

TEST(Deque, GrowsPastInitialCapacity) {
  WorkDeque d(4);
  std::atomic<int> c{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(&c));
    d.push(tasks.back().get());
  }
  EXPECT_EQ(d.size_hint(), 100);
  for (int i = 99; i >= 0; --i) EXPECT_EQ(d.pop(), tasks[static_cast<std::size_t>(i)].get());
}

TEST(Deque, ConcurrentStealersEachTaskOnce) {
  // One owner pushes and pops; several thieves steal. Every task must be
  // obtained exactly once across all parties.
  constexpr int kTasks = 20000;
  constexpr int kThieves = 3;
  WorkDeque d;
  std::atomic<int> c{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) tasks.push_back(std::make_unique<CountingTask>(&c));

  std::atomic<int> obtained{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        Task* out = nullptr;
        if (d.steal(&out) == StealResult::kSuccess) {
          obtained.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  // Owner: push all, interleaving pops.
  int popped = 0;
  for (int i = 0; i < kTasks; ++i) {
    d.push(tasks[static_cast<std::size_t>(i)].get());
    if (i % 3 == 0) {
      if (d.pop() != nullptr) ++popped;
    }
  }
  for (;;) {
    Task* t = d.pop();
    if (t == nullptr) break;
    ++popped;
  }
  // Drain stragglers the thieves may still be stealing.
  while (!d.empty()) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  EXPECT_EQ(popped + obtained.load(), kTasks);
}

// --------------------------------------------------------------- scheduler

api::RuntimeOptions test_options(std::uint32_t workers) {
  api::RuntimeOptions opts;
  opts.workers = workers;
  opts.topology = numa::Topology(2, (workers + 1) / 2);
  return opts;
}

TEST(Scheduler, RootRunsOnAPoolWorker) {
  // Any worker may adopt an injected root (there is no dedicated worker 0
  // anymore); it must be one of the pool's workers.
  api::Runtime rt(test_options(2));
  std::uint32_t seen = 99;
  rt.run_parallel([&](Worker& w) { seen = w.id(); });
  EXPECT_LT(seen, 2u);
}

TEST(Scheduler, CurrentIsNullOffPool) { EXPECT_EQ(Scheduler::current(), nullptr); }

TEST(Scheduler, CurrentIsSetOnPool) {
  api::Runtime rt(test_options(2));
  Worker* cur = nullptr;
  rt.run_parallel([&](Worker& w) { cur = Scheduler::current(); EXPECT_EQ(cur, &w); });
  EXPECT_NE(cur, nullptr);
}

TEST(Scheduler, WorkerColorsAreIds) {
  api::Runtime rt(test_options(4));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rt.scheduler().worker(i).color(), static_cast<numa::Color>(i));
    EXPECT_TRUE(
        rt.scheduler().worker(i).color_mask().test(static_cast<numa::Color>(i)));
  }
}

TEST(Scheduler, MultipleJobsSequentially) {
  api::Runtime rt(test_options(3));
  for (int job = 0; job < 10; ++job) {
    std::atomic<long> total{0};
    rt.run_parallel([&](Worker& w) {
      parallel_for(w, 0, 1000, 16,
                   [&](std::int64_t i) { total.fetch_add(i, std::memory_order_relaxed); });
    });
    EXPECT_EQ(total.load(), 999L * 1000 / 2);
  }
}

TEST(Scheduler, SingleWorkerStillCompletes) {
  api::Runtime rt(test_options(1));
  std::atomic<long> total{0};
  rt.run_parallel([&](Worker& w) {
    parallel_for(w, 0, 5000, 8,
                 [&](std::int64_t i) { total.fetch_add(i, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 4999L * 5000 / 2);
}

TEST(Scheduler, TaskGroupNesting) {
  api::Runtime rt(test_options(4));
  std::atomic<int> count{0};
  rt.run_parallel([&](Worker& w) {
    TaskGroup outer;
    for (int i = 0; i < 8; ++i) {
      outer.spawn(w, ColorMask{}, [&count](Worker& ww) {
        TaskGroup inner;
        for (int j = 0; j < 8; ++j) {
          inner.spawn(ww, ColorMask{}, [&count](Worker&) { count.fetch_add(1); });
        }
        inner.wait(ww);
        count.fetch_add(1);
      });
    }
    outer.wait(w);
  });
  EXPECT_EQ(count.load(), 8 * 8 + 8);
}

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  api::Runtime rt(test_options(4));
  std::vector<std::atomic<int>> hits(10000);
  rt.run_parallel([&](Worker& w) {
    parallel_for(w, 0, 10000, 7, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ParallelForEmptyAndTinyRanges) {
  api::Runtime rt(test_options(2));
  std::atomic<int> n{0};
  rt.run_parallel([&](Worker& w) {
    parallel_for(w, 5, 5, 4, [&](std::int64_t) { n.fetch_add(1); });
    parallel_for(w, 0, 1, 4, [&](std::int64_t) { n.fetch_add(1); });
    parallel_for(w, 10, 3, 4, [&](std::int64_t) { n.fetch_add(1); });  // inverted
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(Scheduler, FibRecursion) {
  api::Runtime rt(test_options(4));
  // Naive parallel fib exercises deep nesting + stealing.
  struct Fib {
    static long run(Worker& w, int n) {
      if (n < 2) return n;
      long a = 0;
      TaskGroup g;
      g.spawn(w, ColorMask{}, [&a, n](Worker& ww) { a = run(ww, n - 1); });
      long b = run(w, n - 2);
      g.wait(w);
      return a + b;
    }
  };
  long result = 0;
  rt.run_parallel([&](Worker& w) { result = Fib::run(w, 18); });
  EXPECT_EQ(result, 2584);
}

TEST(Scheduler, CountersAccumulateAndReset) {
  api::Runtime rt(test_options(4));
  std::atomic<long> sink{0};
  rt.run_parallel([&](Worker& w) {
    parallel_for(w, 0, 4096, 4,
                 [&](std::int64_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
  });
  WorkerCounters total = rt.counters();
  EXPECT_GT(total.tasks_executed, 0u);
  EXPECT_GT(total.spawns, 0u);
  rt.reset_counters();
  EXPECT_EQ(rt.counters().tasks_executed, 0u);
}

TEST(Scheduler, LocalityRecording) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);  // workers 0,1 domain 0; 2,3 domain 1
  api::Runtime rt(opts);
  rt.run_parallel([&](Worker& w) {
    // Relative to the adopting worker: its own color is always local and
    // the color two over is always in the other domain on a (2,2) topology.
    const auto local = static_cast<numa::Color>(w.id());
    const auto remote = static_cast<numa::Color>((w.id() + 2) % 4);
    w.record_node_execution(local, 4, 2);
    w.record_node_execution(remote, 0, 0);
  });
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 2u);
  EXPECT_EQ(agg.locality.remote_nodes, 1u);
  EXPECT_EQ(agg.locality.pred_accesses, 4u);
  EXPECT_EQ(agg.locality.remote_pred_accesses, 2u);
}

TEST(Scheduler, StealPolicyDefaults) {
  StealPolicy nb = StealPolicy::nabbit();
  EXPECT_FALSE(nb.colored_enabled);
  EXPECT_FALSE(nb.force_first_colored);
  StealPolicy nc = StealPolicy::nabbitc();
  EXPECT_TRUE(nc.colored_enabled);
  EXPECT_TRUE(nc.force_first_colored);
  EXPECT_GE(nc.colored_attempts, 1u);
}

TEST(Scheduler, InvalidColoringJobStillCompletes) {
  // All frames carry empty masks (kInvalidColor) => every colored steal
  // fails; bounded first-steal forcing must let workers fall back (the
  // paper's Table III configuration).
  api::Runtime rt(test_options(4));
  std::atomic<int> n{0};
  rt.run_parallel([&](Worker& w) {
    TaskGroup g;
    for (int i = 0; i < 64; ++i) {
      g.spawn(w, ColorMask{}, [&n](Worker&) { n.fetch_add(1); });
    }
    g.wait(w);
  });
  EXPECT_EQ(n.load(), 64);
}

TEST(Scheduler, WorkerCountersMergeArithmetic) {
  WorkerCounters a, b;
  a.tasks_executed = 3;
  a.steals_colored = 1;
  b.tasks_executed = 4;
  b.steals_random = 2;
  b.idle_ns = 100;
  a.merge(b);
  EXPECT_EQ(a.tasks_executed, 7u);
  EXPECT_EQ(a.steals_total(), 3u);
  EXPECT_EQ(a.idle_ns, 100u);
  a.reset();
  EXPECT_EQ(a.tasks_executed, 0u);
}

TEST(SchedulerDeath, ExecuteFromWorkerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  api::Runtime rt(test_options(2));
  EXPECT_DEATH(
      rt.run_parallel([&](Worker&) { rt.run_parallel([](Worker&) {}); }),
      "must not be called from a worker");
}

TEST(Scheduler, ConcurrentRootJobsShareThePool) {
  // Several fork-join roots submitted from distinct external threads all
  // complete with correct sums while sharing one pool.
  api::Runtime rt(test_options(4));
  constexpr int kThreads = 4;
  std::atomic<long> totals[kThreads] = {};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      rt.run_parallel([&, t](Worker& w) {
        parallel_for(w, 0, 2000, 8, [&, t](std::int64_t i) {
          totals[t].fetch_add(i, std::memory_order_relaxed);
        });
      });
    });
  }
  for (auto& th : submitters) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(totals[t].load(), 1999L * 2000 / 2);
}

TEST(Scheduler, WaitIdleQuiescesThePool) {
  api::Runtime rt(test_options(3));
  std::atomic<int> n{0};
  rt.run_parallel([&](Worker& w) {
    parallel_for(w, 0, 1000, 4, [&](std::int64_t) { n.fetch_add(1); });
  });
  rt.wait_idle();
  EXPECT_EQ(n.load(), 1000);
  // After wait_idle nothing races the counters: two reads must agree.
  const auto a = rt.counters();
  const auto b = rt.counters();
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.steal_attempts_total(), b.steal_attempts_total());
}

// ------------------------------------------------------ submission control
//
// These tests drive the injection lanes / cancellation / deadline machinery
// at the RootJob level. A single-worker pool plus one "blocker" root makes
// pop order fully deterministic: everything submitted while the blocker
// runs is queued, and the release order is exactly the lane policy's.

namespace {

/// A root whose fn parks on `release` — holds the (single) worker so later
/// submissions stay queued — and appends its `tag` to `order` when it runs.
struct TaggedJob {
  Scheduler::RootJob job;
  std::atomic<bool>* release = nullptr;
  std::vector<int>* order = nullptr;  // appended on the worker; sized ahead
  std::atomic<std::size_t>* cursor = nullptr;
  int tag = 0;
  bool saw_cancel = false;

  void bind() {
    job.fn = [this](Worker&) {
      if (release != nullptr) {
        Backoff backoff;
        while (!release->load(std::memory_order_acquire)) backoff.pause();
      }
      saw_cancel = job.cancel_requested();
      if (order != nullptr) {
        (*order)[cursor->fetch_add(1, std::memory_order_relaxed)] = tag;
      }
    };
  }
};

}  // namespace

TEST(SubmissionControl, HigherLanePopsFirst) {
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  std::atomic<bool> release{false};
  std::vector<int> order(3, -1);
  std::atomic<std::size_t> cursor{0};

  TaggedJob blocker;
  blocker.release = &release;
  blocker.bind();
  sched.submit(blocker.job);

  // Queued while the only worker is blocked: low first, high second — the
  // pop must invert that.
  TaggedJob low, high;
  low.tag = 1;
  low.order = &order;
  low.cursor = &cursor;
  low.job.lane = 2;
  low.bind();
  high.tag = 2;
  high.order = &order;
  high.cursor = &cursor;
  high.job.lane = 0;
  high.bind();
  sched.submit(low.job);
  sched.submit(high.job);

  release.store(true, std::memory_order_release);
  sched.wait(low.job);
  sched.wait(high.job);
  sched.wait(blocker.job);
  EXPECT_EQ(order[0], 2) << "high-priority root did not pop first";
  EXPECT_EQ(order[1], 1);
}

TEST(SubmissionControl, StarvedLowLaneStillProgresses) {
  // A saturating high lane must not starve the low lane: after
  // kLaneStarvationBound bypasses the low root takes a pop.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  constexpr int kHighs =
      static_cast<int>(2 * Scheduler::kLaneStarvationBound);
  std::atomic<bool> release{false};
  std::vector<int> order(kHighs + 1, -1);
  std::atomic<std::size_t> cursor{0};

  TaggedJob blocker;
  blocker.release = &release;
  blocker.bind();
  sched.submit(blocker.job);

  TaggedJob low;
  low.tag = -1;
  low.order = &order;
  low.cursor = &cursor;
  low.job.lane = 2;
  low.bind();
  sched.submit(low.job);

  std::vector<std::unique_ptr<TaggedJob>> highs;
  for (int i = 0; i < kHighs; ++i) {
    auto h = std::make_unique<TaggedJob>();
    h->tag = i;
    h->order = &order;
    h->cursor = &cursor;
    h->job.lane = 0;
    h->bind();
    sched.submit(h->job);
    highs.push_back(std::move(h));
  }

  release.store(true, std::memory_order_release);
  for (auto& h : highs) sched.wait(h->job);
  sched.wait(low.job);
  sched.wait(blocker.job);

  std::size_t low_at = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == -1) low_at = i;
  }
  ASSERT_LT(low_at, order.size());
  EXPECT_GE(low_at, 1u) << "low lane popped before any high root";
  EXPECT_LE(low_at, Scheduler::kLaneStarvationBound)
      << "low lane starved past the bound";
}

TEST(SubmissionControl, CancelWhileQueuedSkipsButStillRetires) {
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  std::atomic<bool> release{false};

  TaggedJob blocker;
  blocker.release = &release;
  blocker.bind();
  sched.submit(blocker.job);

  TaggedJob victim;
  victim.bind();
  sched.submit(victim.job);
  EXPECT_TRUE(victim.job.try_cancel(CancelReason::kRequested));
  EXPECT_FALSE(victim.job.try_cancel(CancelReason::kDeadline))
      << "first cancel reason must win";

  release.store(true, std::memory_order_release);
  sched.wait(victim.job);
  sched.wait(blocker.job);
  // The root still ran (uniform terminal accounting) and observed the
  // cancel that landed while it was queued.
  EXPECT_TRUE(victim.saw_cancel);
  EXPECT_EQ(victim.job.cancel_reason(), CancelReason::kRequested);
  const WorkerCounters c = rt.counters();
  EXPECT_EQ(c.roots_cancelled, 1u);
  EXPECT_EQ(c.roots_deadline_expired, 0u);
}

TEST(SubmissionControl, PastDeadlineExpiresAtAdoption) {
  // A root whose deadline already passed is adopted pre-cancelled: the
  // adoption-time sweep fires before fn runs, with no waiter involved.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();

  TaggedJob victim;
  victim.job.deadline_ns = 1;  // epoch start: long past
  victim.bind();
  sched.submit(victim.job);
  sched.wait(victim.job);
  EXPECT_TRUE(victim.saw_cancel);
  EXPECT_EQ(victim.job.cancel_reason(), CancelReason::kDeadline);
  EXPECT_EQ(rt.counters().roots_deadline_expired, 1u);
}

TEST(SubmissionControl, RunningJobExpiresItsOwnDeadline) {
  // The pool is saturated by the job itself and nobody waits on it: its
  // fn polls should_skip() like an executor's node dispatch does, and that
  // check alone must expire the deadline and set the cancel word.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  std::atomic<bool> skipped{false};

  Scheduler::RootJob job;
  job.deadline_ns = now_ns() + 20'000'000;  // 20ms from now
  job.fn = [&job, &skipped](Worker&) {
    const std::uint64_t give_up = now_ns() + 5'000'000'000ull;
    Backoff backoff;
    while (!job.should_skip() && now_ns() < give_up) backoff.pause();
    skipped.store(job.cancel_requested(), std::memory_order_release);
  };
  sched.submit(job);
  while (!job.is_done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(skipped.load(std::memory_order_acquire));
  EXPECT_EQ(job.cancel_reason(), CancelReason::kDeadline);
  EXPECT_FALSE(job.try_cancel(CancelReason::kRequested))
      << "the deadline must have won the cancel word";
  rt.wait_idle();
  EXPECT_EQ(rt.counters().roots_deadline_expired, 1u);
}

TEST(SubmissionControl, WaitUntilTimesOutWithoutCancelling) {
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  std::atomic<bool> release{false};

  TaggedJob job;  // no deadline of its own
  job.release = &release;
  job.bind();
  sched.submit(job.job);

  EXPECT_FALSE(sched.wait_until(job.job, now_ns() + 5'000'000));
  EXPECT_FALSE(job.job.cancel_requested()) << "timed wait must not cancel";

  release.store(true, std::memory_order_release);
  sched.wait(job.job);
  EXPECT_FALSE(job.saw_cancel);
}

TEST(SubmissionControl, ManyExternalWaitersOnOneRootAllReturn) {
  // Several external threads wait on the SAME root, some untimed and some
  // with a far deadline: the one futex wake of its completion word must
  // release every sleeper, round after round on a 2-worker pool.
  api::Runtime rt(test_options(2));
  Scheduler& sched = rt.scheduler();
  constexpr int kRounds = 50, kWaiters = 3, kTimedWaiters = 3;
  std::atomic<int> returned{0};
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> release{false};
    Scheduler::RootJob job;
    job.fn = [&release](Worker&) {
      Backoff backoff;
      while (!release.load(std::memory_order_acquire)) backoff.pause();
    };
    sched.submit(job);
    std::vector<std::thread> waiters;
    for (int i = 0; i < kWaiters; ++i) {
      waiters.emplace_back([&] {
        sched.wait(job);
        if (job.is_done()) returned.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (int i = 0; i < kTimedWaiters; ++i) {
      waiters.emplace_back([&] {
        if (sched.wait_until(job, now_ns() + 60'000'000'000ull)) {
          returned.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Let the waiters get past their spin and fall asleep on the word.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    release.store(true, std::memory_order_release);
    for (auto& t : waiters) t.join();
  }
  EXPECT_EQ(returned.load(), kRounds * (kWaiters + kTimedWaiters));
}

TEST(SubmissionControl, TimedWaitIsWokenBeforeItsDeadline) {
  // An external wait_until on a root that finishes long before the deadline
  // returns true right after the finish: the finisher wakes the sleeper,
  // the sleeper does not time out.
  api::Runtime rt(test_options(2));
  Scheduler& sched = rt.scheduler();
  Scheduler::RootJob job;
  job.fn = [](Worker&) {
    Timer t;
    while (t.seconds() < 20e-3) cpu_relax();  // ~20ms of real work
  };
  const std::uint64_t deadline = now_ns() + 30'000'000'000ull;  // 30s
  sched.submit(job);
  Timer waited;
  EXPECT_TRUE(sched.wait_until(job, deadline));
  EXPECT_LT(waited.seconds(), 5.0) << "the waiter slept toward its deadline";
  EXPECT_TRUE(job.is_done());
}

TEST(SubmissionControl, WorkerTimedWaitObservesDeadlineUnderSustainedProgress) {
  // Regression: a timed wait from a worker thread helps (runs pool work),
  // and must check its clock after every helped unit too — on a saturated
  // pool try_progress succeeds indefinitely, and a wait_until that only
  // looked at the clock on idle misses would blow through its deadline by
  // the whole backlog (~50ms here) instead of returning at ~5ms.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  constexpr int kJobs = 100;
  std::atomic<int> ran{0};
  std::vector<std::unique_ptr<Scheduler::RootJob>> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    auto j = std::make_unique<Scheduler::RootJob>();
    j->fn = [&ran](Worker&) {
      Timer t;
      while (t.seconds() < 500e-6) cpu_relax();  // ~500us of real work
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    jobs.push_back(std::move(j));
  }
  bool done = true;
  double waited_s = 0;
  rt.run_parallel([&](Worker&) {
    for (auto& j : jobs) sched.submit(*j);
    Timer t;
    done = sched.wait_until(*jobs.back(), now_ns() + 5'000'000);
    waited_s = t.seconds();
  });
  EXPECT_FALSE(done) << "the backlog cannot have drained inside the timeout";
  EXPECT_LT(waited_s, 0.040)
      << "timed wait ignored its deadline while helping";
  for (auto& j : jobs) sched.wait(*j);
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(SubmissionControl, WaitSpinBudgetSkippedOnSingleWorkerPool) {
  // Regression guard for the PR 4 spin-before-park: an external waiter on a
  // 1-worker pool must park immediately — spinning only delays the one
  // thread that can make progress (this CI box has a single core).
  api::Runtime one(test_options(1));
  api::Runtime two(test_options(2));
  EXPECT_EQ(one.scheduler().wait_spin_limit(), 0);
  EXPECT_GT(two.scheduler().wait_spin_limit(), 0);
  // And the park-immediately path still completes a normal round trip.
  std::atomic<int> ran{0};
  one.run_parallel([&](Worker&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

// --------------------------------------------------------- batched fronts

TEST(SubmitRing, DrainRestoresGlobalFifoAcrossChainsAndSingles) {
  struct Node {
    Node* next = nullptr;
    int tag = 0;
  };
  SubmitRing<Node> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drain_fifo(), nullptr);

  Node nodes[7];
  for (int i = 0; i < 7; ++i) nodes[i].tag = i;
  // Batch {0,1,2}: pre-linked newest-first (head = 2, tail = 0), per the
  // ring's FIFO contract.
  nodes[2].next = &nodes[1];
  nodes[1].next = &nodes[0];
  ring.push_chain(&nodes[2], &nodes[0]);
  ring.push(&nodes[3]);  // singleton between batches
  nodes[6].next = &nodes[5];
  nodes[5].next = &nodes[4];
  ring.push_chain(&nodes[6], &nodes[4]);
  EXPECT_FALSE(ring.empty());

  // One drain must hand back 0..6 — intra-batch order AND across-push
  // order, exactly what the old mutex-guarded queue produced.
  int want = 0;
  for (Node* n = ring.drain_fifo(); n != nullptr; n = n->next) {
    EXPECT_EQ(n->tag, want++) << "drain is not globally FIFO";
  }
  EXPECT_EQ(want, 7);
  EXPECT_TRUE(ring.empty());
}

TEST(SubmitRing, ConcurrentProducersLoseNothingAndKeepPerProducerOrder) {
  struct Node {
    Node* next = nullptr;
    int producer = 0;
    int seq = 0;
  };
  constexpr int kProducers = 4, kPerProducer = 512;
  std::vector<std::vector<Node>> storage(kProducers,
                                         std::vector<Node>(kPerProducer));
  SubmitRing<Node> ring;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        storage[p][i].producer = p;
        storage[p][i].seq = i;
        ring.push(&storage[p][i]);
      }
    });
  }

  // Single consumer drains concurrently; each producer's nodes must come
  // out in their push order (the CAS linearizes pushes, the reversal keeps
  // them), and all of them must arrive.
  int seen = 0;
  int next_seq[kProducers] = {0, 0, 0, 0};
  while (seen < kProducers * kPerProducer) {
    for (Node* n = ring.drain_fifo(); n != nullptr; n = n->next) {
      EXPECT_EQ(n->seq, next_seq[n->producer]++)
          << "producer " << n->producer << " reordered";
      ++seen;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SubmissionControl, BatchSubmitRespectsLanePolicyAndFifo) {
  // One batch with interleaved lanes, queued behind a blocker on a 1-worker
  // pool: release order must be exactly what serial submits would give —
  // the high lane in batch order, then the low lane in batch order.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();
  std::atomic<bool> release{false};
  std::vector<int> order(6, -1);
  std::atomic<std::size_t> cursor{0};

  TaggedJob blocker;
  blocker.release = &release;
  blocker.bind();
  sched.submit(blocker.job);

  TaggedJob items[6];
  Scheduler::RootJob* jobs[6];
  for (int i = 0; i < 6; ++i) {
    items[i].tag = i;
    items[i].order = &order;
    items[i].cursor = &cursor;
    items[i].job.lane = (i % 2 == 0) ? 2 : 0;  // evens low, odds high
    items[i].bind();
    jobs[i] = &items[i].job;
  }
  Scheduler::BatchSync sync;
  sched.submit_batch(jobs, 6, &sync);

  release.store(true, std::memory_order_release);
  sched.wait_batch(sync);
  sched.wait(blocker.job);
  EXPECT_TRUE(sync.drained());
  const int expect[6] = {1, 3, 5, 0, 2, 4};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(order[i], expect[i]) << "pop position " << i;
  }
}

TEST(SubmissionControl, BatchArmsDeadlinesExpiredItemAdoptedCancelled) {
  // The adoption-time deadline check: an already-expired item inside a
  // batch must be adopted pre-cancelled (kDeadline), while its batchmates
  // run normally — and the batch rendezvous still drains to zero.
  api::Runtime rt(test_options(1));
  Scheduler& sched = rt.scheduler();

  TaggedJob ok, dead;
  ok.bind();
  dead.job.deadline_ns = 1;  // epoch start: long past
  dead.bind();
  Scheduler::RootJob* jobs[2] = {&ok.job, &dead.job};
  Scheduler::BatchSync sync;
  sched.submit_batch(jobs, 2, &sync);
  sched.wait_batch(sync);

  EXPECT_FALSE(ok.saw_cancel);
  EXPECT_TRUE(dead.saw_cancel);
  EXPECT_EQ(dead.job.cancel_reason(), CancelReason::kDeadline);
  EXPECT_EQ(rt.counters().roots_deadline_expired, 1u);
}

TEST(SubmissionControl, ConcurrentBatchProducersAllComplete) {
  // Several external threads pushing batches through the MPSC front door at
  // once: every root runs exactly once and every rendezvous drains.
  api::Runtime rt(test_options(2));
  Scheduler& sched = rt.scheduler();
  constexpr int kProducers = 4, kBatches = 8, kPer = 16;
  std::atomic<int> ran{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int b = 0; b < kBatches; ++b) {
        Scheduler::RootJob roots[kPer];
        Scheduler::RootJob* jobs[kPer];
        for (int i = 0; i < kPer; ++i) {
          roots[i].fn = [&ran](Worker&) {
            ran.fetch_add(1, std::memory_order_relaxed);
          };
          roots[i].lane = static_cast<std::uint8_t>(i % 3);
          jobs[i] = &roots[i];
        }
        Scheduler::BatchSync sync;
        sched.submit_batch(jobs, kPer, &sync);
        sched.wait_batch(sync);
        for (int i = 0; i < kPer; ++i) {
          EXPECT_TRUE(roots[i].is_done());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ran.load(), kProducers * kBatches * kPer);
}

TEST(SubmissionControl, BatchRendezvousTeardownStress) {
  // The batch word's lifetime rule (see CompletionWord): a waiter may free
  // the rendezvous as soon as it sees the count drain, because the last
  // finisher's final access to it is the count_down RMW — the futex wake
  // that may follow passes only the address to the kernel. Any finisher
  // that touched the word after its RMW (as an earlier lock-based version
  // did) would hit freed memory here: recreating a stack-allocated
  // BatchSync (and the jobs) every iteration puts freshly freed memory
  // right behind the drain, making such an access a crash/tsan hit rather
  // than silent corruption.
  api::Runtime rt(test_options(2));
  Scheduler& sched = rt.scheduler();
  std::atomic<int> ran{0};
  constexpr int kIters = 4000, kPer = 2;
  for (int iter = 0; iter < kIters; ++iter) {
    Scheduler::RootJob roots[kPer];
    Scheduler::RootJob* jobs[kPer];
    for (int i = 0; i < kPer; ++i) {
      roots[i].fn = [&ran](Worker&) {
        ran.fetch_add(1, std::memory_order_relaxed);
      };
      jobs[i] = &roots[i];
    }
    {
      Scheduler::BatchSync sync;
      sched.submit_batch(jobs, kPer, &sync);
      sched.wait_batch(sync);
    }  // sync (and then the jobs) destroyed immediately — the old window
  }
  EXPECT_EQ(ran.load(), kIters * kPer);
}

}  // namespace
}  // namespace nabbitc::rt
