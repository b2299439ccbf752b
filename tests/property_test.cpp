// Property-based sweeps across module boundaries: randomized task graphs,
// parameterized parallel_for coverage, scheduling-policy invariants, and
// simulator conservation laws.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "api/nabbitc.h"
#include "harness/experiment.h"
#include "loop/thread_pool.h"
#include "rt/parallel_for.h"
#include "sim/sim_engine.h"
#include "support/rng.h"
#include "workloads/workload.h"

namespace nabbitc {
namespace {

// ---------------------------------------------------- parallel_for sweeps

class PforParams
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t, std::int64_t>> {};

TEST_P(PforParams, SumsArithmeticSeries) {
  auto [workers, n, grain] = GetParam();
  api::RuntimeOptions opts;
  opts.workers = static_cast<std::uint32_t>(workers);
  api::Runtime rt(opts);
  std::atomic<long long> sum{0};
  rt.run_parallel([&, n = n, grain = grain](rt::Worker& w) {
    rt::parallel_for(w, 0, n, grain, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PforParams,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<std::int64_t>(1, 63, 1024),
                       ::testing::Values<std::int64_t>(1, 7, 256)));

// ------------------------------------------------ loop schedule coverage

class LoopCoverage
    : public ::testing::TestWithParam<std::tuple<loop::Schedule, std::int64_t>> {};

TEST_P(LoopCoverage, RandomSizesCoverEveryIndexOnce) {
  auto [sched, chunk] = GetParam();
  loop::PoolConfig pc;
  pc.num_threads = 3;
  loop::ThreadPool pool(pc);
  Pcg32 rng(99, 1);
  for (int round = 0; round < 6; ++round) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.below(700));
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(0, n, sched, chunk, [&](std::uint32_t, std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LoopCoverage,
    ::testing::Combine(::testing::Values(loop::Schedule::kStatic,
                                         loop::Schedule::kDynamic,
                                         loop::Schedule::kGuided),
                       ::testing::Values<std::int64_t>(1, 5)));

// --------------------------------------------- randomized dynamic graphs

struct FuzzGraph {
  std::vector<std::vector<nabbit::Key>> preds;
  std::atomic<long long> checksum{0};
};

class FuzzNode final : public nabbit::TaskGraphNode {
 public:
  explicit FuzzNode(FuzzGraph* g) : g_(g) {}
  void init(nabbit::ExecContext&) override {
    for (nabbit::Key p : g_->preds[key()]) add_predecessor(p);
  }
  void compute(nabbit::ExecContext& ctx) override {
    // Order-insensitive but dependence-sensitive digest: every predecessor
    // must already be computed when we read it.
    long long acc = static_cast<long long>(key()) + 1;
    for (nabbit::Key p : g_->preds[key()]) {
      EXPECT_TRUE(ctx.find(p)->computed());
      acc += static_cast<long long>(p);
    }
    g_->checksum.fetch_add(acc, std::memory_order_relaxed);
  }

 private:
  FuzzGraph* g_;
};

class FuzzSpec final : public nabbit::GraphSpec {
 public:
  FuzzSpec(FuzzGraph* g, std::uint32_t colors) : g_(g), colors_(colors) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, nabbit::Key) override {
    return arena.create<FuzzNode>(g_);
  }
  numa::Color color_of(nabbit::Key k) const override {
    return static_cast<numa::Color>(k % colors_);
  }

 private:
  FuzzGraph* g_;
  std::uint32_t colors_;
};

class GraphFuzz : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(GraphFuzz, ExecutorMatchesSerialReference) {
  auto [seed, colored] = GetParam();
  Pcg32 rng(seed, 77);
  const nabbit::Key n = 250 + rng.below(250);

  FuzzGraph g;
  g.preds.resize(n + 1);
  for (nabbit::Key k = 1; k <= n; ++k) {
    g.preds[k].push_back(k - 1);  // spine guarantees one sink
    const std::uint32_t extra = rng.below(4);
    for (std::uint32_t e = 0; e < extra; ++e) {
      nabbit::Key p = rng.next64() % k;
      if (std::find(g.preds[k].begin(), g.preds[k].end(), p) == g.preds[k].end()) {
        g.preds[k].push_back(p);
      }
    }
  }

  // Serial reference result.
  FuzzSpec sspec(&g, 4);
  nabbit::SerialExecutor serial(sspec);
  serial.run(n);
  const long long expect = g.checksum.exchange(0);

  // Parallel run, both engines (the runtime variant chooses executor and
  // steal policy together).
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.seed = seed;
  opts.variant = colored ? api::Variant::kNabbitC : api::Variant::kNabbit;
  api::Runtime rt(opts);
  FuzzSpec pspec(&g, 4);
  api::Execution e = rt.run(pspec, n);
  EXPECT_EQ(g.checksum.load(), expect);
  EXPECT_EQ(e.nodes_computed(), n + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u),
                                            ::testing::Bool()));

// -------------------------------------------------- simulator invariants

class SimInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimInvariants, ExecutesEveryNodeCountsEveryAccess) {
  const std::uint64_t seed = GetParam();
  Pcg32 rng(seed, 5);
  sim::TaskDag dag;
  const std::uint32_t n = 150 + rng.below(150);
  for (std::uint32_t v = 0; v < n; ++v) {
    dag.add_node(1.0 + rng.below(20), static_cast<numa::Color>(rng.below(8)));
  }
  // One random predecessor per non-root node (duplicate-free by design).
  for (std::uint32_t v = 1; v < n; ++v) {
    dag.add_edge(static_cast<sim::NodeId>(rng.next64() % v), v);
  }
  ASSERT_TRUE(dag.is_acyclic());

  sim::SimConfig cfg;
  cfg.num_workers = 8;
  cfg.topology = numa::Topology(4, 2);
  cfg.seed = seed;
  sim::SimResult r = sim::simulate(dag, cfg);
  // Conservation: every node executed exactly once.
  EXPECT_EQ(r.locality.nodes, dag.num_nodes());
  EXPECT_EQ(r.locality.pred_accesses, dag.num_edges());
  // Work conservation: makespan cannot beat perfect parallelism over the
  // *local-cost* serial time.
  EXPECT_GE(r.makespan + 1e-9, r.serial_time / 8.0);
  // Remote fractions are percentages.
  EXPECT_GE(r.locality.percent_remote(), 0.0);
  EXPECT_LE(r.locality.percent_remote(), 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimInvariants, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(SimInvariants2, LoopAndStealingExecuteSameNodeSet) {
  auto w = wl::make_workload("mg", wl::SizePreset::kTiny);
  sim::TaskDag dag = wl::simulated_dag(*w, 8, nabbit::ColoringMode::kGood);
  sim::SimConfig cfg;
  cfg.num_workers = 8;
  auto rs = sim::simulate(dag, cfg);
  auto rl = sim::simulate_loop(dag, cfg, loop::Schedule::kStatic);
  EXPECT_EQ(rs.locality.nodes, rl.locality.nodes);
  EXPECT_EQ(rs.locality.pred_accesses, rl.locality.pred_accesses);
  EXPECT_DOUBLE_EQ(rs.serial_time, rl.serial_time);
}

// ------------------------------------------- policy counter consistency

TEST(PolicyCounters, AttemptsDominateSuccesses) {
  auto w = wl::make_workload("heat", wl::SizePreset::kTiny);
  harness::SimSweepOptions so;
  for (auto v : {harness::Variant::kNabbit, harness::Variant::kNabbitC}) {
    auto r = harness::run_sim(*w, v, 16, so);
    EXPECT_GE(r.attempts_colored + r.attempts_random,
              r.steals_colored + r.steals_random);
    if (v == harness::Variant::kNabbit) {
      EXPECT_EQ(r.attempts_colored, 0u);  // vanilla never attempts colored
      EXPECT_EQ(r.steals_colored, 0u);
    }
  }
}

TEST(PolicyCounters, RealRuntimeStealAccounting) {
  // Force heavy stealing: many tiny tasks, several workers.
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);
  for (int job = 0; job < 5; ++job) {
    std::atomic<int> n{0};
    rt.run_parallel([&](rt::Worker& w) {
      rt::parallel_for(w, 0, 2000, 1, [&](std::int64_t) {
        n.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(n.load(), 2000);
  }
  auto agg = rt.counters();
  EXPECT_GE(agg.steal_attempts_total(), agg.steals_total());
  EXPECT_GT(agg.tasks_executed, 0u);
}

// ----------------------------------------------- workload num_tasks sync

TEST(DagShape, NumTasksMatchesDag) {
  // num_tasks() (Table I's node count) counts the graph that executes.
  for (const auto preset : {wl::SizePreset::kTiny, wl::SizePreset::kSmall}) {
    for (const auto& name : wl::workload_names()) {
      auto w = wl::make_workload(name, preset);
      auto dag = wl::simulated_dag(*w, 4, nabbit::ColoringMode::kGood);
      EXPECT_EQ(w->num_tasks(), dag.num_nodes())
          << name << " @ " << wl::preset_name(preset);
    }
  }
}

TEST(DagShape, DynamicExecutorCreatesExactlyDagNodes) {
  // The dynamic executor's on-demand creation must compute exactly the
  // nodes the simulator runs.
  api::RuntimeOptions opts;
  opts.workers = 4;
  api::Runtime rt(opts);
  for (const auto& name : wl::workload_names()) {
    auto w = wl::make_workload(name, wl::SizePreset::kTiny);
    w->prepare(4);
    auto spec = w->make_taskgraph_spec(4, nabbit::ColoringMode::kGood);
    api::Execution e = rt.run(*spec, w->taskgraph_sink());
    EXPECT_EQ(e.nodes_computed(),
              wl::simulated_dag(*w, 4, nabbit::ColoringMode::kGood).num_nodes())
        << name;
  }
}

}  // namespace
}  // namespace nabbitc
