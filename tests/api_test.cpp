// Tests for the public façade (src/api/): the single api::Variant and its
// parser, Runtime construction/options, Execution handle semantics, and —
// the headline — concurrent graph submissions from many threads sharing one
// worker pool with bitwise-correct results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "support/rng.h"
#include "support/spin.h"
#include "support/timing.h"

namespace nabbitc::api {
namespace {

// ------------------------------------------------------------------ variant

TEST(Variant, NamesRoundTripThroughParser) {
  for (Variant v : kAllVariants) {
    auto parsed = try_parse_variant(variant_name(v));
    ASSERT_TRUE(parsed.has_value()) << variant_name(v);
    EXPECT_EQ(*parsed, v);
    EXPECT_EQ(parse_variant(variant_name(v)), v);
  }
}

TEST(Variant, UnknownNameIsRejected) {
  EXPECT_FALSE(try_parse_variant("bogus").has_value());
  EXPECT_FALSE(try_parse_variant("").has_value());
  EXPECT_FALSE(try_parse_variant("NABBITC").has_value());  // names are exact
}

TEST(Variant, ListParsing) {
  auto vs = parse_variant_list("nabbit,nabbitc");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0], Variant::kNabbit);
  EXPECT_EQ(vs[1], Variant::kNabbitC);
  EXPECT_TRUE(parse_variant_list("").empty());
}

TEST(Variant, TaskGraphPredicateAndPolicyPairing) {
  EXPECT_FALSE(is_task_graph(Variant::kSerial));
  EXPECT_FALSE(is_task_graph(Variant::kOmpStatic));
  EXPECT_FALSE(is_task_graph(Variant::kOmpGuided));
  EXPECT_TRUE(is_task_graph(Variant::kNabbit));
  EXPECT_TRUE(is_task_graph(Variant::kNabbitC));
  EXPECT_FALSE(steal_policy_for(Variant::kNabbit).colored_enabled);
  EXPECT_TRUE(steal_policy_for(Variant::kNabbitC).colored_enabled);
}

TEST(VariantDeath, ParseErrorListsValidNames) {
  EXPECT_DEATH(parse_variant("bogus"),
               "unknown variant 'bogus' .*serial.*omp-static.*omp-guided.*"
               "nabbit.*nabbitc");
}

// ---------------------------------------------------------------- wavefront
// Deterministic integer wavefront used by every execution test: cell (i,j)
// mixes its two neighbours with a per-graph seed, so the full matrix — and
// therefore the checksum — is bitwise-reproducible from (side, seed) alone
// regardless of execution order.

std::uint64_t cell_mix(std::uint64_t up, std::uint64_t left, std::uint64_t seed,
                       std::uint64_t key) {
  return splitmix64(up ^ (left * 0x9e3779b97f4a7c15ULL) ^ seed ^ key);
}

struct WaveGrid {
  std::uint32_t side;
  std::uint64_t seed;
  std::vector<std::uint64_t> cells;  // row-major, written by node computes

  WaveGrid(std::uint32_t s, std::uint64_t sd)
      : side(s), seed(sd), cells(std::size_t{s} * s, 0) {}

  std::uint64_t& at(std::uint32_t i, std::uint32_t j) {
    return cells[std::size_t{i} * side + j];
  }

  std::uint64_t checksum() const {
    std::uint64_t h = seed;
    for (std::uint64_t v : cells) h = splitmix64(h ^ v);
    return h;
  }

  /// Serial reference: the bitwise-expected checksum for (side, seed).
  static std::uint64_t expected_checksum(std::uint32_t side, std::uint64_t seed) {
    WaveGrid g(side, seed);
    for (std::uint32_t i = 0; i < side; ++i) {
      for (std::uint32_t j = 0; j < side; ++j) {
        const std::uint64_t up = i > 0 ? g.at(i - 1, j) : 0;
        const std::uint64_t left = j > 0 ? g.at(i, j - 1) : 0;
        g.at(i, j) = cell_mix(up, left, seed, key_pack(i, j));
      }
    }
    return g.checksum();
  }
};

class WaveNode final : public TaskGraphNode {
 public:
  explicit WaveNode(WaveGrid* g) : g_(g) {}
  void init(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    if (i > 0) add_predecessor(key_pack(i - 1, j));
    if (j > 0) add_predecessor(key_pack(i, j - 1));
  }
  void compute(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    const std::uint64_t up = i > 0 ? g_->at(i - 1, j) : 0;
    const std::uint64_t left = j > 0 ? g_->at(i, j - 1) : 0;
    g_->at(i, j) = cell_mix(up, left, g_->seed, key());
  }

 private:
  WaveGrid* g_;
};

class WaveSpec final : public GraphSpec {
 public:
  explicit WaveSpec(WaveGrid* g) : g_(g) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<WaveNode>(g_);
  }
  Color color_of(Key k) const override {
    return static_cast<Color>(key_major(k) % 4);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{g_->side} * g_->side;
  }

 private:
  WaveGrid* g_;
};

// ---------------------------------------------------------------- runtime

TEST(Runtime, RunComputesAWavefrontBitwise) {
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    RuntimeOptions opts;
    opts.workers = 2;
    opts.variant = v;
    Runtime rt(opts);
    EXPECT_EQ(rt.variant(), v);
    EXPECT_EQ(rt.workers(), 2u);

    WaveGrid g(16, 0x1234);
    WaveSpec spec(&g);
    Execution e = rt.run(spec, key_pack(15, 15));
    EXPECT_TRUE(e.done());
    EXPECT_EQ(e.nodes_computed(), 256u);
    EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(16, 0x1234))
        << variant_name(v);
    // Result readback through the handle.
    TaskGraphNode* sink = e.find(key_pack(15, 15));
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(sink->computed());
    EXPECT_EQ(e.find(key_pack(99, 99)), nullptr);
  }
}

TEST(Runtime, VariantSelectsMatchingStealPolicy) {
  // The mismatch class of bug (colored executor on random-steal scheduler
  // or vice versa) is unrepresentable: the policy is derived from the same
  // variant that picks the executor.
  RuntimeOptions nb;
  nb.workers = 1;
  nb.variant = Variant::kNabbit;
  RuntimeOptions nc;
  nc.workers = 1;
  nc.variant = Variant::kNabbitC;
  EXPECT_FALSE(Runtime(nb).scheduler().config().steal.colored_enabled);
  EXPECT_TRUE(Runtime(nc).scheduler().config().steal.colored_enabled);
}

TEST(Runtime, ZeroWorkersResolvesToHostConcurrency) {
  RuntimeOptions opts;  // workers = 0
  Runtime rt(opts);
  EXPECT_GE(rt.workers(), 1u);
  EXPECT_EQ(rt.options().workers, rt.workers());
}

TEST(RuntimeDeath, NonTaskGraphVariantAborts) {
  RuntimeOptions opts;
  opts.variant = Variant::kOmpStatic;
  EXPECT_DEATH(Runtime{opts}, "task-graph variant");
}

TEST(Runtime, DroppedHandleStillCompletesBeforeSpecDies) {
  RuntimeOptions opts;
  opts.workers = 2;
  Runtime rt(opts);
  WaveGrid g(12, 7);
  {
    WaveSpec spec(&g);
    // Handle dropped immediately: the destructor must join so `spec` (and
    // `g`) cannot be torn down under the running graph.
    rt.submit(spec, key_pack(11, 11));
  }
  EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(12, 7));
}

TEST(Runtime, SerializedSubmissionCountersAreAttributable) {
  RuntimeOptions opts;
  opts.workers = 2;
  Runtime rt(opts);
  WaveGrid g(16, 42);
  WaveSpec spec(&g);
  rt.reset_counters();
  rt.run(spec, key_pack(15, 15));
  const rt::WorkerCounters c = rt.counters();
  // 256 nodes => exactly that many locality samples since the reset.
  EXPECT_EQ(c.locality.nodes, 256u);
  EXPECT_GT(c.spawns, 0u);
}

TEST(Runtime, NestedSubmissionFromWorkerHelpsInsteadOfDeadlocking) {
  // A task may submit a sub-graph to its own runtime and wait on it: the
  // worker helps (adopting the nested root itself) rather than blocking.
  // workers=1 makes helping mandatory — blocking would deadlock.
  RuntimeOptions opts;
  opts.workers = 1;
  Runtime rt(opts);
  WaveGrid g(10, 5);
  WaveSpec spec(&g);
  std::uint64_t nodes = 0;
  rt.run_parallel([&](rt::Worker&) {
    Execution e = rt.submit(spec, key_pack(9, 9));
    e.wait();
    nodes = e.nodes_computed();
  });
  EXPECT_EQ(nodes, 100u);
  EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(10, 5));
}

TEST(Runtime, PersistentRuntimeServesManySequentialSubmissions) {
  RuntimeOptions opts;
  opts.workers = 2;
  Runtime rt(opts);
  for (std::uint64_t round = 0; round < 8; ++round) {
    WaveGrid g(12, round);
    WaveSpec spec(&g);
    Execution e = rt.run(spec, key_pack(11, 11));
    EXPECT_EQ(e.nodes_computed(), 144u);
    EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(12, round)) << round;
    rt.reset_counters();
    EXPECT_EQ(rt.counters().tasks_executed, 0u);  // clean between rounds
  }
}

// ---------------------------------------------- concurrent submission

TEST(Runtime, OverlappingSubmissionsFromOneThread) {
  // Several executions in flight at once, submitted by the same thread;
  // each has its own node map and output, all bitwise-correct.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  Runtime rt(opts);

  constexpr int kInFlight = 6;
  std::vector<std::unique_ptr<WaveGrid>> grids;
  std::vector<std::unique_ptr<WaveSpec>> specs;
  std::vector<Execution> execs;
  for (int i = 0; i < kInFlight; ++i) {
    grids.push_back(std::make_unique<WaveGrid>(14, 1000 + i));
    specs.push_back(std::make_unique<WaveSpec>(grids.back().get()));
    execs.push_back(rt.submit(*specs.back(), key_pack(13, 13)));
  }
  for (int i = 0; i < kInFlight; ++i) {
    execs[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(grids[static_cast<std::size_t>(i)]->checksum(),
              WaveGrid::expected_checksum(14, 1000 + static_cast<std::uint64_t>(i)))
        << i;
  }
}

class ConcurrentStress : public ::testing::TestWithParam<Variant> {};

TEST_P(ConcurrentStress, FourSubmitterThreadsBitwiseCorrect) {
  // The acceptance scenario: >= 4 threads submitting independent graphs to
  // ONE runtime simultaneously, every checksum bitwise-equal to its serial
  // reference, for both task-graph variants.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.variant = GetParam();
  Runtime rt(opts);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  constexpr std::uint32_t kSide = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto seed =
            static_cast<std::uint64_t>(t) * 977 + static_cast<std::uint64_t>(r);
        WaveGrid g(kSide, seed);
        WaveSpec spec(&g);
        Execution e = rt.run(spec, key_pack(kSide - 1, kSide - 1));
        if (e.nodes_computed() != std::uint64_t{kSide} * kSide ||
            g.checksum() != WaveGrid::expected_checksum(kSide, seed)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(mismatches.load(), 0) << variant_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothVariants, ConcurrentStress,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// --------------------------------------------------------------- tracing

TEST(Runtime, TraceSliceCoversExecutionWindow) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.trace.enabled = true;
  opts.trace.ring_capacity = 1u << 16;
  Runtime rt(opts);

  WaveGrid g1(12, 1), g2(12, 2);
  WaveSpec s1(&g1), s2(&g2);
  Execution e1 = rt.run(s1, key_pack(11, 11));
  Execution e2 = rt.run(s2, key_pack(11, 11));

  const trace::Trace full = rt.collect_trace();
  ASSERT_FALSE(full.empty());
  const trace::Trace t1 = e1.trace_slice(full);
  const trace::Trace t2 = e2.trace_slice(full);
  EXPECT_FALSE(t1.empty());
  EXPECT_FALSE(t2.empty());
  // Serialized executions: the windows are disjoint and ordered.
  EXPECT_LE(e1.complete_time_ns(), e2.submit_time_ns());
  for (const trace::Event& e : t1.events) {
    EXPECT_GE(e.ts_ns, e1.submit_time_ns());
    EXPECT_LE(e.ts_ns, e1.complete_time_ns());
  }
  EXPECT_LE(t1.events.size() + t2.events.size(), full.events.size());
}

// ----------------------------------------------------------- static graphs

TEST(Runtime, StaticGraphFollowsVariant) {
  // A fully-known graph runs as a compiled plan, whose spawn semantics
  // (colored or not) come from the runtime's variant like submit()'s
  // dynamic executor's do.
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    RuntimeOptions opts;
    opts.workers = 2;
    opts.variant = v;
    Runtime rt(opts);
    WaveGrid g(10, 4);
    WaveSpec spec(&g);
    auto plan = rt.compile(spec, key_pack(9, 9));
    EXPECT_EQ(plan->colored(), v == Variant::kNabbitC) << variant_name(v);
    Execution e = rt.run(*plan);
    EXPECT_EQ(e.nodes_computed(), 100u) << variant_name(v);
    EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(10, 4))
        << variant_name(v);
  }
}

// ----------------------------------------------------- submission control
//
// Deterministic cancellation / deadline / priority semantics through the
// façade. Single-worker runtimes plus one node that blocks until released
// make every interleaving exact: whatever is submitted while the blocker
// runs stays queued, and cancel/deadline land at a known protocol point.

namespace {

/// Chain graph 0 -> 1 -> ... -> n-1 whose ROOT node (key 0) parks until
/// `release` — execution is pinned mid-flight right after discovery.
struct BlockChainSpec final : GraphSpec {
  std::atomic<bool>* started;
  std::atomic<bool>* release;
  std::uint32_t n;
  BlockChainSpec(std::atomic<bool>* s, std::atomic<bool>* r, std::uint32_t len)
      : started(s), release(r), n(len) {}

  struct Node final : TaskGraphNode {
    BlockChainSpec* spec;
    explicit Node(BlockChainSpec* s) : spec(s) {}
    void init(ExecContext&) override {
      if (key() > 0) add_predecessor(key() - 1);
    }
    void compute(ExecContext&) override {
      if (key() != 0) return;
      spec->started->store(true, std::memory_order_release);
      Backoff backoff;
      while (!spec->release->load(std::memory_order_acquire)) backoff.pause();
    }
  };

  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  std::size_t expected_nodes() const override { return n; }
};

/// Single node that appends `tag` to a shared order log when it computes.
struct TagSpec final : GraphSpec {
  std::vector<int>* order;
  std::atomic<std::size_t>* cursor;
  int tag;
  TagSpec(std::vector<int>* o, std::atomic<std::size_t>* c, int t)
      : order(o), cursor(c), tag(t) {}

  struct Node final : TaskGraphNode {
    TagSpec* spec;
    explicit Node(TagSpec* s) : spec(s) {}
    void init(ExecContext&) override {}
    void compute(ExecContext&) override {
      (*spec->order)[spec->cursor->fetch_add(1, std::memory_order_relaxed)] =
          spec->tag;
    }
  };

  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  std::size_t expected_nodes() const override { return 1; }
};

Runtime one_worker_runtime(Variant v = Variant::kNabbitC) {
  RuntimeOptions opts;
  opts.workers = 1;
  opts.variant = v;
  return Runtime(opts);
}

}  // namespace

TEST(SubmissionControl, CancelMidFlightSkipsTheRestAndReportsCancelled) {
  auto rt = one_worker_runtime();
  constexpr std::uint32_t kLen = 24;
  std::atomic<bool> started{false}, release{false};
  BlockChainSpec spec(&started, &release, kLen);

  Execution e = rt.submit(spec, kLen - 1);
  Backoff backoff;
  while (!started.load(std::memory_order_acquire)) backoff.pause();
  EXPECT_EQ(e.status().state, ExecStatus::kRunning);
  e.cancel();
  release.store(true, std::memory_order_release);
  e.wait();

  // The blocked root finished its in-flight compute; every other chain
  // node was dispatched after the cancel word was set and skipped.
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kCancelled);
  EXPECT_EQ(e.nodes_computed(), 1u);
  EXPECT_EQ(st.skipped_nodes, kLen - 1);
  TaskGraphNode* sink = e.find(kLen - 1);
  ASSERT_NE(sink, nullptr);  // discovered before the cancel
  EXPECT_FALSE(sink->computed());
  rt.wait_idle();
  EXPECT_EQ(rt.counters().roots_cancelled, 1u);
}

TEST(SubmissionControl, PastDeadlineReplaySkipsEveryNodeAndReportsDeadline) {
  auto rt = one_worker_runtime();
  std::atomic<std::uint64_t> acc{0};
  // Reuse the accumulate wavefront shape from the concurrency tests: a
  // 6x6 grid whose nodes bump a counter — so a skipped node is observable.
  struct AccSpec final : GraphSpec {
    std::atomic<std::uint64_t>* acc;
    explicit AccSpec(std::atomic<std::uint64_t>* a) : acc(a) {}
    struct Node final : TaskGraphNode {
      std::atomic<std::uint64_t>* acc;
      explicit Node(std::atomic<std::uint64_t>* a) : acc(a) {}
      void init(ExecContext&) override {
        const std::uint32_t i = key_major(key()), j = key_minor(key());
        if (i > 0) add_predecessor(key_pack(i - 1, j));
        if (j > 0) add_predecessor(key_pack(i, j - 1));
      }
      void compute(ExecContext&) override {
        acc->fetch_add(1, std::memory_order_relaxed);
      }
    };
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<Node>(acc);
    }
  } spec(&acc);

  auto plan = rt.compile(spec, key_pack(5, 5));
  SubmitOptions so;
  so.deadline_ns = 1;  // long past: expires at adoption, deterministically
  Execution e = rt.run(*plan, so);
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(st.skipped_nodes, plan->num_nodes());
  EXPECT_EQ(e.nodes_computed(), 0u);
  EXPECT_EQ(acc.load(), 0u);
  rt.wait_idle();
  EXPECT_EQ(rt.counters().roots_deadline_expired, 1u);

  // The instance recovered: a normal replay right after is complete.
  Execution ok = rt.run(*plan);
  EXPECT_EQ(ok.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(acc.load(), 36u);
}

TEST(SubmissionControl, WaitForTimesOutThenCancelDrainsQueuedReplay) {
  auto rt = one_worker_runtime();
  std::atomic<bool> started{false}, release{false};
  BlockChainSpec blocker(&started, &release, 2);
  std::atomic<std::uint64_t> acc{0};
  struct OneSpec final : GraphSpec {
    std::atomic<std::uint64_t>* acc;
    explicit OneSpec(std::atomic<std::uint64_t>* a) : acc(a) {}
    struct Node final : TaskGraphNode {
      std::atomic<std::uint64_t>* acc;
      explicit Node(std::atomic<std::uint64_t>* a) : acc(a) {}
      void init(ExecContext&) override {}
      void compute(ExecContext&) override { acc->fetch_add(1); }
    };
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<Node>(acc);
    }
  } one(&acc);
  // Tiny lowering disabled: this test is about a replay QUEUED behind a
  // blocker — an inline serial replay never enters the scheduler queue.
  auto plan = rt.compile(one, 0, 1, /*tiny_lower=*/false);

  Execution b = rt.submit(blocker, 1);
  Backoff backoff;
  while (!started.load(std::memory_order_acquire)) backoff.pause();
  Execution e = rt.submit(*plan);  // queued behind the blocker

  using namespace std::chrono_literals;
  EXPECT_FALSE(e.wait_for(2ms));
  EXPECT_FALSE(e.done());
  e.cancel();
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(e.wait_for(1s));
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kCancelled);
  EXPECT_EQ(st.skipped_nodes, 1u) << "queued replay must skip everything";
  EXPECT_EQ(acc.load(), 0u);
  b.wait();
}

TEST(SubmissionControl, HighPriorityOvertakesQueuedLowPriority) {
  auto rt = one_worker_runtime();
  std::atomic<bool> started{false}, release{false};
  BlockChainSpec blocker(&started, &release, 2);
  std::vector<int> order(2, -1);
  std::atomic<std::size_t> cursor{0};
  TagSpec low_spec(&order, &cursor, 1);
  TagSpec high_spec(&order, &cursor, 2);

  Execution b = rt.submit(blocker, 1);
  Backoff backoff;
  while (!started.load(std::memory_order_acquire)) backoff.pause();

  SubmitOptions lo;
  lo.priority = Priority::kLow;
  SubmitOptions hi;
  hi.priority = Priority::kHigh;
  hi.name = "latency-probe";
  Execution l = rt.submit(low_spec, 0, lo);
  Execution h = rt.submit(high_spec, 0, hi);
  EXPECT_STREQ(h.name(), "latency-probe");
  EXPECT_EQ(l.name(), nullptr);

  release.store(true, std::memory_order_release);
  l.wait();
  h.wait();
  b.wait();
  EXPECT_EQ(order[0], 2) << "high-priority submission did not run first";
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(h.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(l.status().state, ExecStatus::kCompleted);
}

/// Completion sink that counts its wakes.
struct CountingSink final : CompletionSink {
  std::atomic<int> wakes{0};
  void wake() noexcept override {
    wakes.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(SubmissionControl, CompletionSinkWakesOncePerArm) {
  auto rt = one_worker_runtime();
  std::atomic<bool> started{false}, release{false};
  BlockChainSpec blocker(&started, &release, 2);
  std::vector<int> order(4, -1);
  std::atomic<std::size_t> cursor{0};
  TagSpec tag(&order, &cursor, 1);
  CountingSink sink;
  SubmitOptions so;
  so.sink = &sink;

  // Unarmed, a completion wakes nobody.
  rt.run(tag, 0, so);
  sink.quiesce();
  EXPECT_EQ(sink.wakes.load(), 0);

  // Armed once, a burst of three completions wakes exactly once.
  Execution b = rt.submit(blocker, 1, so);
  Backoff backoff;
  while (!started.load(std::memory_order_acquire)) backoff.pause();
  Execution e1 = rt.submit(tag, 0, so);
  Execution e2 = rt.submit(tag, 0, so);
  sink.arm();
  release.store(true, std::memory_order_release);
  b.wait();
  e1.wait();
  e2.wait();
  sink.quiesce();
  EXPECT_EQ(sink.wakes.load(), 1);
  EXPECT_EQ(cursor.load(), 3u);
}

TEST(SubmissionControl, CancelAfterCompletionReportsCompleted) {
  // Cooperative semantics: a cancel that loses the race changes nothing —
  // every node computed, the result is whole, the status says so.
  auto rt = one_worker_runtime();
  WaveGrid g(8, 5);
  WaveSpec spec(&g);
  Execution e = rt.run(spec, key_pack(7, 7));
  e.cancel();
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kCompleted);
  EXPECT_EQ(st.skipped_nodes, 0u);
  EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(8, 5));
}

TEST(SubmissionControl, DeadlineInBuildsFutureDeadlines) {
  const std::uint64_t before = now_ns();
  const std::uint64_t d = deadline_in(std::chrono::milliseconds(50));
  EXPECT_GE(d, before + 50'000'000ull);
  EXPECT_LT(d, before + 10'000'000'000ull);
  // A comfortably future deadline never fires on a tiny graph.
  auto rt = one_worker_runtime();
  WaveGrid g(6, 9);
  WaveSpec spec(&g);
  SubmitOptions so;
  so.deadline_ns = deadline_in(std::chrono::seconds(30));
  Execution e = rt.run(spec, key_pack(5, 5), so);
  EXPECT_EQ(e.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(6, 9));
}

TEST(SubmissionControl, DeadlineFiresWithoutAWaiter) {
  // A daemon session never waits on an execution: it polls done(). The
  // deadline must still stop a graph that is already running — here a
  // 100-node chain of 1 ms nodes (~100 ms serial) with a 5 ms deadline.
  constexpr std::uint32_t kLen = 100;
  struct SpinChainSpec final : GraphSpec {
    struct Node final : TaskGraphNode {
      void init(ExecContext&) override {
        if (key() > 0) add_predecessor(key() - 1);
      }
      void compute(ExecContext&) override {
        const std::uint64_t until = now_ns() + 1'000'000;
        while (now_ns() < until) cpu_relax();
      }
    };
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<Node>();
    }
    std::size_t expected_nodes() const override { return kLen; }
  };
  RuntimeOptions opts;
  opts.workers = 2;
  Runtime rt(opts);
  SpinChainSpec spec;
  auto plan = rt.compile(spec, kLen - 1, 1, /*tiny_lower=*/false);

  const auto run_polled = [&](bool as_plan) {
    SubmitOptions so;
    so.deadline_ns = deadline_in(std::chrono::milliseconds(5));
    const std::uint64_t t0 = now_ns();
    Execution e = as_plan ? rt.submit(*plan, so) : rt.submit(spec, kLen - 1, so);
    const std::uint64_t give_up = t0 + 10'000'000'000ull;
    while (!e.done() && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::uint64_t elapsed_ns = now_ns() - t0;
    ASSERT_TRUE(e.done());
    const Status st = e.status();
    EXPECT_EQ(st.state, ExecStatus::kDeadlineExceeded) << as_plan;
    EXPECT_GT(st.skipped_nodes, 0u) << as_plan;
    EXPECT_LT(elapsed_ns, 50'000'000ull)
        << "the chain ran on past its deadline (plan=" << as_plan << ")";
  };
  run_polled(/*as_plan=*/false);
  run_polled(/*as_plan=*/true);
  rt.wait_idle();
  EXPECT_EQ(rt.counters().roots_deadline_expired, 2u);
}

// ----------------------------------------------------- batched submission
//
// BatchHandle semantics through the façade: N replays of one compiled plan
// enter as a single scheduler batch, but every per-item knob (priority,
// deadline, cancel, status) behaves exactly as it does for a lone submit().

namespace {

/// Wavefront grid whose nodes bump a shared atomic counter — the per-node
/// side effect is identical across replays, so concurrent batch items of
/// ONE plan are race-free and every completed item adds exactly n*n.
struct CountGridSpec final : GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  CountGridSpec(std::atomic<std::uint64_t>* a, std::uint32_t side)
      : acc(a), n(side) {}

  struct Node final : TaskGraphNode {
    std::atomic<std::uint64_t>* acc;
    explicit Node(std::atomic<std::uint64_t>* a) : acc(a) {}
    void init(ExecContext&) override {
      const std::uint32_t i = key_major(key()), j = key_minor(key());
      if (i > 0) add_predecessor(key_pack(i - 1, j));
      if (j > 0) add_predecessor(key_pack(i, j - 1));
    }
    void compute(ExecContext&) override {
      acc->fetch_add(1, std::memory_order_relaxed);
    }
  };

  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(acc);
  }
  std::size_t expected_nodes() const override { return std::size_t{n} * n; }
};

Runtime two_worker_runtime() {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.variant = Variant::kNabbitC;
  return Runtime(opts);
}

}  // namespace

TEST(BatchSubmission, WaitAllCompletesEveryItem) {
  auto rt = two_worker_runtime();
  constexpr std::uint32_t kSide = 6;
  constexpr std::size_t kBatch = 8;
  std::atomic<std::uint64_t> acc{0};
  CountGridSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/kBatch);

  const std::uint64_t nodes = std::uint64_t{kSide} * kSide;
  {
    auto batch = rt.submit_batch(*plan, kBatch);
    EXPECT_EQ(batch.size(), kBatch);
    batch.wait_all();
    EXPECT_TRUE(batch.all_done());
    for (std::size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(batch.status(i).state, ExecStatus::kCompleted) << "item " << i;
      EXPECT_EQ(batch.status(i).skipped_nodes, 0u);
      EXPECT_EQ(batch.nodes_computed(i), nodes);
      EXPECT_NE(batch.find(i, key_pack(kSide - 1, kSide - 1)), nullptr);
    }
    EXPECT_EQ(acc.load(), nodes * kBatch);
  }

  // The dropped handle recycled its instances: a second batch reuses the
  // whole pool with no new builds.
  const std::size_t built = plan->instances_built();
  auto again = rt.submit_batch(*plan, kBatch);
  again.wait_all();
  EXPECT_EQ(plan->instances_built(), built);
  EXPECT_EQ(acc.load(), nodes * kBatch * 2);
}

TEST(BatchSubmission, PerItemOptionsControlEachItemIndependently) {
  auto rt = two_worker_runtime();
  constexpr std::uint32_t kSide = 5;
  std::atomic<std::uint64_t> acc{0};
  CountGridSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/4);

  std::vector<SubmitOptions> items(4);
  items[1].priority = Priority::kHigh;
  items[1].name = "hot-item";
  items[2].deadline_ns = 1;  // long past: expires at adoption
  auto batch = rt.submit_batch(*plan, std::span<const SubmitOptions>(items));
  batch.wait_all();

  const std::uint64_t nodes = std::uint64_t{kSide} * kSide;
  EXPECT_EQ(batch.status(0).state, ExecStatus::kCompleted);
  EXPECT_EQ(batch.status(1).state, ExecStatus::kCompleted);
  EXPECT_STREQ(batch.name(1), "hot-item");
  EXPECT_EQ(batch.name(0), nullptr);
  // The expired item alone pays the deadline; its batchmates are whole.
  EXPECT_EQ(batch.status(2).state, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(batch.nodes_computed(2), 0u);
  EXPECT_EQ(batch.status(2).skipped_nodes, nodes);
  EXPECT_EQ(batch.status(3).state, ExecStatus::kCompleted);
  EXPECT_EQ(acc.load(), nodes * 3);
  rt.wait_idle();
  EXPECT_EQ(rt.counters().roots_deadline_expired, 1u);
}

TEST(BatchSubmission, EmptyHandleIsInertAndIdempotent) {
  BatchHandle h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(h.all_done());
  h.wait_all();
  h.wait_all();  // idempotent
  h.cancel_all();
}

TEST(BatchSubmission, PerItemCancelOnlySkipsThatItem) {
  // Deterministic mid-flight cancel: on a 1-worker pool a blocker pins the
  // whole batch in the queued state, so cancel(i) lands before adoption and
  // item i must skip everything while its batchmates complete untouched.
  auto rt = one_worker_runtime();
  std::atomic<bool> started{false}, release{false};
  BlockChainSpec blocker_spec(&started, &release, 2);
  constexpr std::uint32_t kSide = 5;
  std::atomic<std::uint64_t> acc{0};
  CountGridSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/5);

  Execution b = rt.submit(blocker_spec, 1);
  Backoff backoff;
  while (!started.load(std::memory_order_acquire)) backoff.pause();

  auto batch = rt.submit_batch(*plan, 3);
  batch.cancel(1);
  auto doomed = rt.submit_batch(*plan, 2);
  doomed.cancel_all();

  release.store(true, std::memory_order_release);
  batch.wait_all();
  doomed.wait_all();
  b.wait();

  const std::uint64_t nodes = std::uint64_t{kSide} * kSide;
  EXPECT_EQ(batch.status(0).state, ExecStatus::kCompleted);
  EXPECT_EQ(batch.status(1).state, ExecStatus::kCancelled);
  EXPECT_EQ(batch.nodes_computed(1), 0u);
  EXPECT_EQ(batch.status(1).skipped_nodes, nodes);
  EXPECT_EQ(batch.status(2).state, ExecStatus::kCompleted);
  EXPECT_EQ(doomed.status(0).state, ExecStatus::kCancelled);
  EXPECT_EQ(doomed.status(1).state, ExecStatus::kCancelled);
  EXPECT_EQ(acc.load(), nodes * 2);
}

TEST(BatchSubmission, LargerThanInlineBatchSpillsAndStillCompletes) {
  auto rt = two_worker_runtime();
  constexpr std::uint32_t kSide = 4;
  constexpr std::size_t kBatch = BatchHandle::kInlineItems + 8;
  std::atomic<std::uint64_t> acc{0};
  CountGridSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/kBatch);

  auto batch = rt.submit_batch(*plan, kBatch);
  batch.wait_all();
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(batch.status(i).state, ExecStatus::kCompleted) << "item " << i;
  }
  EXPECT_EQ(acc.load(), std::uint64_t{kSide} * kSide * kBatch);
}

TEST(BatchSubmission, ArrayOverloadYieldsIndividuallyOwnedExecutions) {
  // The net-serving shape: one amortized batch submission, N independent
  // Execution handles — each waits and recycles on its own.
  auto rt = two_worker_runtime();
  constexpr std::uint32_t kSide = 5;
  constexpr std::size_t kN = 5;
  std::atomic<std::uint64_t> acc{0};
  CountGridSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/kN);

  std::vector<SubmitOptions> items(kN);
  items[2].name = "third";
  items[4].deadline_ns = 1;  // expired
  std::vector<Execution> execs(kN);
  rt.submit_batch(*plan, std::span<const SubmitOptions>(items), execs.data());

  const std::uint64_t nodes = std::uint64_t{kSide} * kSide;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(execs[i].valid()) << "item " << i;
    execs[i].wait();
  }
  for (std::size_t i = 0; i < kN; ++i) {
    if (i == 4) {
      EXPECT_EQ(execs[i].status().state, ExecStatus::kDeadlineExceeded);
      EXPECT_EQ(execs[i].nodes_computed(), 0u);
    } else {
      EXPECT_EQ(execs[i].status().state, ExecStatus::kCompleted);
      EXPECT_EQ(execs[i].nodes_computed(), nodes);
    }
  }
  EXPECT_STREQ(execs[2].name(), "third");
  EXPECT_EQ(acc.load(), nodes * (kN - 1));
}

}  // namespace
}  // namespace nabbitc::api
