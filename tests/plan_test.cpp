// Tests for compiled graph plans (src/plan/): freeze-once/replay-many.
//
//   * compile/replay equivalence: replaying a plan is bitwise-identical to
//     a fresh GraphSpec submission — checksum-verified for a local
//     wavefront and for every workload family, under both variants;
//   * concurrent replay: one plan replayed from many threads at once runs
//     on distinct pooled instances, every execution correct;
//   * steady-state replay performs ZERO heap allocations (this binary
//     overrides the global allocation functions with counting versions);
//   * the arena regression guard: continuous overlapping submissions (the
//     pool never quiescent) hold frame-arena memory bounded, thanks to the
//     epoch-segmented arenas of rt/arena.h.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "support/rng.h"
#include "support/spin.h"
#include "support/timing.h"
#include "workloads/workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) std::abort();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : 1) != 0) {
    std::abort();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
// The nothrow forms too (std::stable_sort takes its buffer from them): left
// to the C++ runtime, or to a sanitizer's interceptors, they would hand out
// blocks that the replaced operator delete below then frees with free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace nabbitc::api {
namespace {

// ---------------------------------------------------------------- wavefront
// Same deterministic integer wavefront as api_test.cpp: cell (i,j) mixes
// its two neighbours with a per-graph seed, so the matrix — and therefore
// the checksum — is bitwise-reproducible from (side, seed) alone.

std::uint64_t cell_mix(std::uint64_t up, std::uint64_t left, std::uint64_t seed,
                       std::uint64_t key) {
  return splitmix64(up ^ (left * 0x9e3779b97f4a7c15ULL) ^ seed ^ key);
}

struct WaveGrid {
  std::uint32_t side;
  std::uint64_t seed;
  std::vector<std::uint64_t> cells;

  WaveGrid(std::uint32_t s, std::uint64_t sd)
      : side(s), seed(sd), cells(std::size_t{s} * s, 0) {}

  std::uint64_t& at(std::uint32_t i, std::uint32_t j) {
    return cells[std::size_t{i} * side + j];
  }
  void clear() { cells.assign(cells.size(), 0); }

  std::uint64_t checksum() const {
    std::uint64_t h = seed;
    for (std::uint64_t v : cells) h = splitmix64(h ^ v);
    return h;
  }

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

/// Commutative-accumulate grid (stencil dependence shape): safe under
/// concurrent replays of ONE plan, and the total is exactly checkable.
struct AccumNode final : TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit AccumNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    if (i > 0) add_predecessor(key_pack(i - 1, j));
    if (j > 0) add_predecessor(key_pack(i, j - 1));
  }
  void compute(ExecContext&) override {
    acc->fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct AccumSpec final : GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  AccumSpec(std::atomic<std::uint64_t>* a, std::uint32_t side) : acc(a), n(side) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<AccumNode>(acc);
  }
  Color color_of(Key k) const override {
    return static_cast<Color>(key_minor(k) % 2);
  }
  std::size_t expected_nodes() const override { return std::size_t{n} * n; }

  std::uint64_t expected_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) t += key_pack(i, j) + 1;
    }
    return t;
  }
};

/// Explicit small DAG: node k's predecessors and color come from lists,
/// and compute() logs the completion order.
struct ListSpec final : GraphSpec {
  struct Node final : TaskGraphNode {
    ListSpec* s;
    explicit Node(ListSpec* spec) : s(spec) {}
    void init(ExecContext&) override {
      for (Key p : s->preds[key()]) add_predecessor(p);
    }
    void compute(ExecContext&) override {
      std::lock_guard<std::mutex> lk(s->mu);
      s->order.push_back(key());
    }
  };

  std::vector<std::vector<Key>> preds;
  std::vector<Color> colors;
  std::mutex mu;
  std::vector<Key> order;

  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  Color color_of(Key k) const override { return colors[k]; }
  std::size_t expected_nodes() const override { return preds.size(); }

  /// Every node ran exactly once, each after all of its predecessors.
  bool ran_in_dependence_order() const {
    std::vector<std::size_t> pos(preds.size(), preds.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] >= preds.size() || pos[order[i]] != preds.size()) {
        return false;
      }
      pos[order[i]] = i;
    }
    if (order.size() != preds.size()) return false;
    for (Key k = 0; k < preds.size(); ++k) {
      for (Key p : preds[k]) {
        if (pos[p] >= pos[k]) return false;
      }
    }
    return true;
  }
};

api::Runtime make_runtime(Variant v, std::uint32_t workers = 2) {
  RuntimeOptions opts;
  opts.workers = workers;
  opts.variant = v;
  return api::Runtime(opts);
}

// ------------------------------------------------------------------ compile

TEST(PlanCompile, FreezesTopologyAndLookup) {
  auto rt = make_runtime(Variant::kNabbit);
  WaveGrid g(8, 3);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(7, 7));

  EXPECT_EQ(plan->num_nodes(), 64u);
  EXPECT_EQ(plan->sink(), key_pack(7, 7));
  EXPECT_FALSE(plan->colored());  // kNabbit runtime
  EXPECT_EQ(plan->instances_built(), 1u);

  // Sink is index 0; its CSR predecessors are (6,7) and (7,6). The only
  // root is (0,0), and the sink is nobody's predecessor.
  EXPECT_EQ(plan->key_of(0), key_pack(7, 7));
  EXPECT_EQ(plan->predecessors(0).size(), 2u);
  std::vector<std::uint32_t> roots;
  for (std::uint32_t i = 0; i < plan->num_nodes(); ++i) {
    if (plan->predecessors(i).empty()) roots.push_back(i);
    for (const std::uint32_t p : plan->predecessors(i)) EXPECT_NE(p, 0u);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(plan->key_of(roots[0]), key_pack(0, 0));

  // Key lookup round-trips; unknown keys miss.
  for (std::uint32_t i = 0; i < plan->num_nodes(); ++i) {
    EXPECT_EQ(plan->index_of(plan->key_of(i)), i);
  }
  EXPECT_EQ(plan->index_of(key_pack(99, 99)), plan::GraphPlan::kInvalidIndex);

  // Colors were frozen from the spec.
  for (std::uint32_t i = 0; i < plan->num_nodes(); ++i) {
    EXPECT_EQ(plan->color_of(i), spec.color_of(plan->key_of(i)));
  }
}

TEST(PlanCompile, ReserveInstancesPreBuildsPool) {
  auto rt = make_runtime(Variant::kNabbitC);
  WaveGrid g(6, 1);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(5, 5), /*reserve_instances=*/3);
  EXPECT_EQ(plan->instances_built(), 3u);
}

// ----------------------------------------------- layout, tiny-graph lowering

/// Pure pipeline: node k depends only on k-1 (the whole graph is one
/// fanout-1/fanin-1 run). Commutative accumulate, so the total is exactly
/// checkable regardless of schedule. Each compute spins `spin_ns` first.
struct ChainNode final : TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  std::uint64_t spin_ns;
  ChainNode(std::atomic<std::uint64_t>* a, std::uint64_t spin)
      : acc(a), spin_ns(spin) {}
  void init(ExecContext&) override {
    if (key() > 0) add_predecessor(key() - 1);
  }
  void compute(ExecContext&) override {
    const Timer t;
    while (t.nanos() < spin_ns) cpu_relax();
    acc->fetch_add(splitmix64(key() + 1), std::memory_order_relaxed);
  }
};

struct ChainSpec final : GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  std::uint64_t spin_ns;
  ChainSpec(std::atomic<std::uint64_t>* a, std::uint32_t nodes,
            std::uint64_t spin = 0)
      : acc(a), n(nodes), spin_ns(spin) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<ChainNode>(acc, spin_ns);
  }
  Color color_of(Key) const override { return 0; }
  std::size_t expected_nodes() const override { return n; }

  std::uint64_t expected_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t k = 0; k < n; ++k) t += splitmix64(k + 1);
    return t;
  }
};

TEST(PlanCompile, PipelineReplaysExactly) {
  auto rt = make_runtime(Variant::kNabbitC);
  std::atomic<std::uint64_t> acc{0};
  ChainSpec spec(&acc, 64);  // above the tiny-lowering bound
  const std::uint64_t want = spec.expected_total();

  // A 64-deep dependence chain, dispatched one node at a time.
  auto p = rt.compile(spec, /*sink=*/63);
  EXPECT_EQ(p->num_nodes(), 64u);
  EXPECT_FALSE(p->serial_lowered());
  EXPECT_EQ(p->index_of(63), 0u) << "sink must keep plan index 0";
  for (int round = 0; round < 2; ++round) {
    acc.store(0, std::memory_order_relaxed);
    Execution e = rt.run(*p);
    EXPECT_EQ(e.nodes_computed(), 64u);
    EXPECT_EQ(acc.load(std::memory_order_relaxed), want);
  }
}

TEST(PlanPasses, TinyGraphLoweringTracksSizeBoundAndMask) {
  auto rt = make_runtime(Variant::kNabbitC);
  std::atomic<std::uint64_t> acc{0};

  ChainSpec tiny_spec(&acc, plan::kTinyGraphMaxNodes - 1);
  auto tiny = rt.compile(tiny_spec, plan::kTinyGraphMaxNodes - 2);
  EXPECT_TRUE(tiny->serial_lowered());
  acc.store(0, std::memory_order_relaxed);
  Execution e = rt.submit(*tiny);
  EXPECT_TRUE(e.done()) << "lowered submit must complete inline";
  EXPECT_EQ(acc.load(std::memory_order_relaxed), tiny_spec.expected_total());

  // Same spec with lowering turned off: scheduler path, not lowered.
  auto queued = rt.compile(tiny_spec, plan::kTinyGraphMaxNodes - 2,
                           /*reserve_instances=*/1, /*tiny_lower=*/false);
  EXPECT_FALSE(queued->serial_lowered());

  // Exactly AT the bound: not lowered.
  ChainSpec at_bound(&acc, plan::kTinyGraphMaxNodes);
  auto big = rt.compile(at_bound, plan::kTinyGraphMaxNodes - 1);
  EXPECT_FALSE(big->serial_lowered());
}

TEST(PlanPasses, InlineReplayExpiresItsDeadlineBetweenClockReads) {
  // The serial interpreter reads an armed deadline's clock at the first
  // node and then every 8th: a 16-node chain of ~1 ms nodes with a 3 ms
  // deadline, run inline, must still expire mid-replay and skip the rest.
  auto rt = make_runtime(Variant::kNabbitC);
  std::atomic<std::uint64_t> acc{0};
  ChainSpec spec(&acc, 16, /*spin=*/1'000'000);
  auto p = rt.compile(spec, 15);
  ASSERT_TRUE(p->serial_lowered());
  SubmitOptions so;
  so.deadline_ns = now_ns() + 3'000'000;
  Execution e = rt.submit(*p, so);
  ASSERT_TRUE(e.done()) << "lowered submit must complete inline";
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kDeadlineExceeded);
  EXPECT_GT(st.skipped_nodes, 0u);
  EXPECT_EQ(e.nodes_computed() + st.skipped_nodes, 16u);
}

// --------------------------------------------------------------- pool scrape

TEST(PlanPool, InstancesFreeIsExactAndConstantTime) {
  auto rt = make_runtime(Variant::kNabbitC);
  WaveGrid g(8, 11);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(7, 7), /*reserve_instances=*/3);
  EXPECT_EQ(plan->instances_built(), 3u);
  EXPECT_EQ(plan->instances_free(), 3u);

  {
    // Each handle holds its pooled instance until it drops; the free count
    // must track acquire/grow/release exactly.
    Execution a = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 2u);
    Execution b = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 1u);
    Execution c = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 0u);
    Execution d = rt.run(*plan);  // grows the pool on demand
    EXPECT_EQ(plan->instances_built(), 4u);
    EXPECT_EQ(plan->instances_free(), 0u);
  }
  EXPECT_EQ(plan->instances_free(), 4u);

  // The scrape is a relaxed atomic load, NOT a freelist walk under the pool
  // mutex: timing it on a pool with 2048 free instances against the small
  // pool above must be flat (a walk would be hundreds of times slower).
  auto big = rt.compile(spec, key_pack(7, 7), /*reserve_instances=*/2048);
  ASSERT_EQ(big->instances_free(), 2048u);
  const auto scrape_ns = [](const plan::GraphPlan& p) {
    constexpr int kIters = 1 << 16;
    std::size_t sink = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) sink += p.instances_free();
    const std::uint64_t t1 = now_ns();
    EXPECT_GE(sink, std::size_t{kIters});  // keeps the loop observable
    return static_cast<double>(t1 - t0) / kIters;
  };
  scrape_ns(*plan);  // warm both
  scrape_ns(*big);
  const double t_small = scrape_ns(*plan);
  const double t_big = scrape_ns(*big);
  EXPECT_LT(t_big, t_small * 16.0 + 100.0)
      << "instances_free() scales with pool size — O(n) freelist walk is back"
      << " (small=" << t_small << "ns big=" << t_big << "ns)";
}

TEST(PlanCompileDeath, VariantMismatchedReplayAborts) {
  // A plan carries its compile-time variant; replaying it on a runtime of
  // the other variant would reintroduce the policy/executor mismatch.
  // Everything lives inside the death statement: a fast-style death test
  // forks, and forking with live worker threads in the parent can deadlock
  // the child on locks held mid-fork.
  EXPECT_DEATH(
      {
        auto nc = make_runtime(Variant::kNabbitC);
        WaveGrid g(6, 2);
        WaveSpec spec(&g);
        auto plan = nc.compile(spec, key_pack(5, 5));
        auto nb = make_runtime(Variant::kNabbit);
        nb.run(*plan);
      },
      "different variant");
}

TEST(PlanCompileDeath, CyclicGraphAborts) {
  struct CycleNode final : TaskGraphNode {
    void init(ExecContext&) override {
      add_predecessor((key() + 1) % 3);  // 0 -> 1 -> 2 -> 0
    }
    void compute(ExecContext&) override {}
  };
  struct CycleSpec final : GraphSpec {
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<CycleNode>();
    }
  };
  // plan::compile needs no Runtime (and therefore no worker threads — see
  // above): compile the spec directly.
  CycleSpec spec;
  EXPECT_DEATH(plan::compile(spec, 0), "cycle detected");
}

// ------------------------------------------------------- replay equivalence

class PlanVariant : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanVariant, ReplayBitwiseEqualsFreshSubmission) {
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 16;
  WaveGrid g(kSide, 0xabcd);
  WaveSpec spec(&g);
  const std::uint64_t expected = WaveGrid::expected_checksum(kSide, 0xabcd);

  // Fresh-spec submission (the reference path).
  Execution fresh = rt.run(spec, key_pack(kSide - 1, kSide - 1));
  EXPECT_EQ(fresh.nodes_computed(), std::uint64_t{kSide} * kSide);
  EXPECT_EQ(g.checksum(), expected);

  // Compile once, replay many: bitwise-identical every time.
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));
  for (int round = 0; round < 4; ++round) {
    g.clear();
    Execution e = rt.run(*plan);
    EXPECT_EQ(e.nodes_computed(), std::uint64_t{kSide} * kSide) << round;
    EXPECT_EQ(e.nodes_created(), 0u) << "replay re-created nodes";
    EXPECT_EQ(g.checksum(), expected) << round;
    // Result readback through the handle works on the replay path too.
    TaskGraphNode* sink = e.find(key_pack(kSide - 1, kSide - 1));
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(sink->computed());
    EXPECT_EQ(e.find(key_pack(77, 77)), nullptr);
  }
}

// Runs a small explicit graph fresh, then compiled and replayed (with and
// without tiny-graph lowering): every node exactly once, after all of its
// predecessors, on every run.
void expect_small_graph_replays(Runtime& rt, ListSpec& shape) {
  const Key sink = shape.preds.size() - 1;
  shape.order.clear();
  rt.run(shape, sink);
  EXPECT_TRUE(shape.ran_in_dependence_order()) << "fresh";
  for (const bool tiny_lower : {true, false}) {
    auto small = rt.compile(shape, sink, 1, tiny_lower);
    EXPECT_EQ(small->num_nodes(), shape.preds.size());
    for (int round = 0; round < 2; ++round) {
      shape.order.clear();
      Execution e = rt.run(*small);
      EXPECT_EQ(e.status().state, ExecStatus::kCompleted);
      EXPECT_TRUE(shape.ran_in_dependence_order())
          << "tiny_lower " << tiny_lower << " round " << round;
    }
  }
}

TEST(PlanReplay, DiamondGraph) {
  // 0 -> {1,2} -> 3: the root runs first, the join last.
  ListSpec diamond;
  diamond.preds = {{}, {0}, {0}, {1, 2}};
  diamond.colors = {0, 1, 0, 1};
  for (const Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    SCOPED_TRACE(v == Variant::kNabbit ? "nabbit" : "nabbitc");
    auto rt = make_runtime(v, 4);
    expect_small_graph_replays(rt, diamond);
  }
}

TEST(PlanReplay, RunsColoredGraph) {
  // Two-level fan: roots 0..15 colored 0..3 on a 2-domain, 4-worker pool,
  // all feeding sink 16.
  ListSpec fan;
  fan.preds.resize(17);
  for (Key k = 0; k < 16; ++k) {
    fan.colors.push_back(static_cast<Color>(k % 4));
    fan.preds[16].push_back(k);
  }
  fan.colors.push_back(0);
  for (const Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    SCOPED_TRACE(v == Variant::kNabbit ? "nabbit" : "nabbitc");
    RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.variant = v;
    Runtime rt(opts);
    expect_small_graph_replays(rt, fan);
  }
}

TEST_P(PlanVariant, AllWorkloadFamiliesReplayEqualsFresh) {
  auto rt = make_runtime(GetParam());
  for (const std::string& name : wl::workload_names()) {
    SCOPED_TRACE(name);
    auto w = wl::make_workload(name, wl::SizePreset::kTiny);
    ASSERT_NE(w, nullptr);
    w->prepare(rt.workers());

    // Fresh GraphSpec submission -> reference checksum + node count (only
    // nodes reachable from the sink execute; num_tasks() can include
    // nodes outside the sink's cone for some families).
    auto spec = w->make_taskgraph_spec(rt.workers(), nabbit::ColoringMode::kGood);
    w->reset();
    Execution fresh_exec = rt.run(*spec, w->taskgraph_sink());
    const std::uint64_t fresh_nodes = fresh_exec.nodes_computed();
    const std::uint64_t fresh = w->checksum();
    EXPECT_GT(fresh_nodes, 0u);

    // Compile once, replay twice; every run bitwise-equal.
    auto plan = rt.compile(*spec, w->taskgraph_sink());
    EXPECT_EQ(plan->num_nodes(), fresh_nodes);
    for (int round = 0; round < 2; ++round) {
      w->reset();
      Execution e = rt.run(*plan);
      EXPECT_EQ(e.nodes_computed(), fresh_nodes) << round;
      EXPECT_EQ(w->checksum(), fresh) << round;
    }
  }
}

TEST_P(PlanVariant, SerializedReplayCountersAreAttributable) {
  auto rt = make_runtime(GetParam());
  WaveGrid g(12, 9);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(11, 11));
  rt.reset_counters();
  rt.run(*plan);
  const rt::WorkerCounters c = rt.counters();
  EXPECT_EQ(c.locality.nodes, 144u);  // one sample per replayed node
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanVariant,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------- concurrent replay

class PlanConcurrent : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanConcurrent, ManyThreadsReplayOnePlan) {
  // The serving scenario: one compiled plan, several request threads
  // replaying it simultaneously. Each replay runs on its own pooled
  // instance; totals must be exact.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.variant = GetParam();
  api::Runtime rt(opts);

  constexpr std::uint32_t kSide = 12;
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        Execution e = rt.run(*plan);
        if (e.nodes_computed() != std::uint64_t{kSide} * kSide) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(acc.load(), spec.expected_total() * kThreads * kRounds);
  // The pool grew to at most the concurrent-replay depth.
  EXPECT_LE(plan->instances_built(), static_cast<std::size_t>(kThreads));
}

TEST_P(PlanConcurrent, OverlappingSubmissionsOfOnePlanFromOneThread) {
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 10;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

  constexpr int kInFlight = 5;
  {
    std::vector<Execution> execs;
    for (int i = 0; i < kInFlight; ++i) execs.push_back(rt.submit(*plan));
    for (auto& e : execs) e.wait();
  }
  EXPECT_EQ(acc.load(), spec.expected_total() * kInFlight);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanConcurrent,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------------- allocations

TEST(PlanAlloc, SteadyStateReplayIsAllocationFree) {
  // THE acceptance property of the replay path: once the instance pool and
  // the workers' frame arenas are warm, a replay submission performs zero
  // heap allocations end to end — acquire+reset, scheduler injection, the
  // whole CSR walk, and handle release all reuse pooled storage.
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    auto rt = make_runtime(v);
    constexpr std::uint32_t kSide = 20;
    std::atomic<std::uint64_t> acc{0};
    AccumSpec spec(&acc, kSide);
    auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

    // Warm up: arenas reach their high-watermark, the pool its depth.
    for (int i = 0; i < 12; ++i) rt.run(*plan);
    rt.wait_idle();

    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    for (int i = 0; i < 8; ++i) rt.run(*plan);
    g_counting.store(false, std::memory_order_release);

    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
        << "steady-state plan replay heap-allocated (variant "
        << variant_name(v) << ")";
    EXPECT_EQ(acc.load(), spec.expected_total() * 20);
  }
}

TEST(PlanAlloc, SubmitOptionsKeepSteadyStateAllocationFree) {
  // Submission control must not tax the serving hot path: priority lanes
  // are fixed arrays, the deadline is a plain store, the name is not
  // copied — so a replay submitted with ANY SubmitOptions value (and a
  // cancelled one) still performs zero heap allocations at steady state.
  auto rt = make_runtime(Variant::kNabbitC);
  constexpr std::uint32_t kSide = 16;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

  SubmitOptions hot;
  hot.priority = Priority::kHigh;
  hot.deadline_ns = deadline_in(std::chrono::hours(1));
  hot.name = "hot-path";
  for (int i = 0; i < 12; ++i) rt.run(*plan, hot);  // warm up
  rt.wait_idle();

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int i = 0; i < 8; ++i) rt.run(*plan, hot);
  {
    // A cancelled round trip is also allocation-free end to end.
    Execution e = rt.submit(*plan, hot);
    e.cancel();
    e.wait();
  }
  g_counting.store(false, std::memory_order_release);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "SubmitOptions submission heap-allocated at steady state";
}

// ------------------------------------------------------- bounded arenas

TEST(PlanArena, NeverQuiescentSubmissionChainHoldsArenaBytesBounded) {
  // THE regression guard for the epoch-segmented arena fix, built so the
  // pool provably NEVER reaches quiescence: job i spawns a burst of frames
  // and then refuses to return until job i+1 has been submitted, so
  // active_jobs >= 1 from the first submit to the last completion. The old
  // rewind-at-quiescence scheme never fires in this scenario and frame
  // memory grows with the job count; epoch reclamation recycles each job's
  // blocks as soon as it completes (disabling it makes this test fail by
  // megabytes). Jobs additionally gate on their predecessor's completion,
  // which pins the live-overlap window to ~2 jobs — the reclamation
  // watermark then advances deterministically, keeping the bound tight
  // even when the OS stalls one worker (this box has a single core).
  //
  // Cancellation stress rides along: every few chain jobs the test also
  // submits a plan replay and cancels it immediately (some at high
  // priority, some with an already-expired deadline). Cancelled runs must
  // release their epoch-stamped arena blocks and pooled instances exactly
  // like completed ones, or the bound below breaks — this is the
  // arena_bytes()-under-cancellation-heavy-overlap regression guard.
  auto rt = make_runtime(Variant::kNabbit);
  rt::Scheduler& sched = rt.scheduler();

  constexpr std::uint32_t kSide = 12;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec accum_spec(&acc, kSide);
  auto plan = rt.compile(accum_spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve=*/2);

  constexpr int kJobs = 300;
  constexpr int kWarmJob = 60;
  constexpr int kSpawnsPerJob = 64;
  constexpr int kCancelEvery = 20;
  std::atomic<int> submitted{0};
  std::vector<std::unique_ptr<rt::Scheduler::RootJob>> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(std::make_unique<rt::Scheduler::RootJob>());
  }
  for (int i = 0; i < kJobs; ++i) {
    jobs[static_cast<std::size_t>(i)]->fn = [&submitted, &jobs, i](rt::Worker& w) {
      rt::TaskGroup g;
      for (int s = 0; s < kSpawnsPerJob; ++s) {
        // Fat capture = fat arena frame: real per-job frame pressure.
        std::array<char, 160> pad{};
        pad[0] = static_cast<char>(s);
        g.spawn(w, rt::ColorMask{}, [pad](rt::Worker&) {
          volatile char sink = pad[0];
          (void)sink;
        });
      }
      g.wait(w);
      Backoff backoff;
      while (i + 1 < kJobs &&
             submitted.load(std::memory_order_acquire) < i + 2) {
        backoff.pause();
      }
      while (i > 0 && !jobs[static_cast<std::size_t>(i) - 1]->is_done()) {
        backoff.pause();
      }
    };
  }

  // Submit without ever blocking: a wait here would deadlock against the
  // refuse-to-finish chain (job i cannot return until i+1 is submitted).
  // The interleaved replays are cancelled right after submission and their
  // handles parked in `cancelled` (handle release waits, so they are only
  // dropped after the chain resolves).
  std::vector<Execution> cancelled;
  std::size_t warm_bytes = 0;
  for (int i = 0; i < kJobs; ++i) {
    sched.submit(*jobs[i]);
    submitted.store(i + 1, std::memory_order_release);
    if (i % kCancelEvery == 0) {
      SubmitOptions so;
      so.priority = (i / kCancelEvery) % 2 == 0 ? Priority::kHigh : Priority::kLow;
      if ((i / kCancelEvery) % 3 == 0) so.deadline_ns = 1;  // born expired
      Execution e = rt.submit(*plan, so);
      e.cancel();
      cancelled.push_back(std::move(e));
    }
    if (i == kWarmJob) {
      // Record the warm high-watermark once real work has demonstrably run.
      // Polling done (not sched.wait) keeps this thread non-blocking; job
      // kWarmJob/2 only needs submissions this loop already made.
      Backoff backoff;
      while (!jobs[kWarmJob / 2]->is_done()) {
        backoff.pause();
      }
      warm_bytes = rt.arena_bytes();
    }
  }
  for (int i = 0; i < kJobs; ++i) sched.wait(*jobs[i]);
  for (auto& e : cancelled) {
    e.wait();
    const Status st = e.status();
    EXPECT_TRUE(st.state == ExecStatus::kCancelled ||
                st.state == ExecStatus::kDeadlineExceeded ||
                st.state == ExecStatus::kCompleted);
    EXPECT_EQ(e.nodes_computed() + st.skipped_nodes,
              std::uint64_t{kSide} * kSide);
  }
  cancelled.clear();  // release every instance back to the pool
  const std::size_t end_bytes = rt.arena_bytes();

  EXPECT_GT(warm_bytes, 0u);
  // arena_bytes() counts mapped blocks, which are never unmapped — so any
  // missed reclamation (chain jobs OR cancelled replays) shows up here
  // permanently.
  EXPECT_LE(end_bytes, warm_bytes * 2 + (std::size_t{256} << 10))
      << "frame arenas grew while the pool was never quiescent (warm="
      << warm_bytes << ", end=" << end_bytes << ")";
  // Cancelled replays returned their instances (pool bounded by the
  // in-flight replay depth, which handle parking caps at the submit count),
  // and a recycled instance replays correctly after any partial run.
  rt.wait_idle();
  EXPECT_LE(plan->instances_built(),
            static_cast<std::size_t>(kJobs / kCancelEvery) + 1);
  acc.store(0);
  Execution ok = rt.run(*plan);
  EXPECT_EQ(ok.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(acc.load(), accum_spec.expected_total());
  EXPECT_EQ(ok.nodes_created(), 0u) << "post-cancel replay missed the pool";
}

TEST(PlanArena, ContinuousOverlappingReplayHoldsArenaBytesBounded) {
  // Regression guard for the epoch-segmented arena fix: keep >= 1 execution
  // in flight at ALL times (the pool never reaches quiescence, so the old
  // rewind-at-quiescence scheme never fired and memory grew per
  // submission). With per-epoch block reclamation, the high-watermark
  // reached during warm-up must hold for hundreds of further rounds.
  auto rt = make_runtime(Variant::kNabbitC);
  constexpr std::uint32_t kSide = 20;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1), /*reserve=*/2);

  auto overlap_rounds = [&](int rounds, Execution prev) {
    for (int i = 0; i < rounds; ++i) {
      Execution next = rt.submit(*plan);  // submitted BEFORE prev completes
      prev.wait();
      prev = std::move(next);
    }
    return prev;
  };

  Execution prev = overlap_rounds(60, rt.submit(*plan));
  const std::size_t warm_bytes = rt.arena_bytes();
  prev = overlap_rounds(300, std::move(prev));
  prev.wait();
  const std::size_t end_bytes = rt.arena_bytes();

  EXPECT_GT(warm_bytes, 0u);
  // Without reclamation this grows by ~300 submissions' worth of frames
  // (tens of MB); with it, at most scheduling jitter above the warm
  // high-watermark.
  EXPECT_LE(end_bytes, warm_bytes * 2 + (std::size_t{256} << 10))
      << "frame arenas grew under continuous overlapping replay (warm="
      << warm_bytes << ", end=" << end_bytes << ")";
}

}  // namespace
}  // namespace nabbitc::api
