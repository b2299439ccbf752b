// Tests for the Nabbit task-graph engine: concurrent map, successor lists,
// serial / dynamic / static executors, and execution-protocol invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "nabbit/concurrent_map.h"
#include "nabbit/successor_list.h"
#include "support/rng.h"
#include "support/timing.h"

namespace nabbitc::nabbit {
namespace {

// ---------------------------------------------------------- successor list

class NopNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {}
  void compute(ExecContext&) override {}
};

std::vector<TaskGraphNode*> chain_to_vector(SuccessorCell* chain) {
  std::vector<TaskGraphNode*> out;
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) out.push_back(c->node);
  return out;
}

TEST(SuccessorList, AddThenCloseReturnsAll) {
  SuccessorList sl;
  NopNode a, b;
  SuccessorCell cells[2];
  EXPECT_TRUE(sl.try_add(&a, &cells[0]));
  EXPECT_TRUE(sl.try_add(&b, &cells[1]));
  EXPECT_EQ(sl.size(), 2u);
  auto out = chain_to_vector(sl.close_and_take());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(sl.closed());
}

TEST(SuccessorList, AddAfterCloseFails) {
  SuccessorList sl;
  NopNode a;
  SuccessorCell cell;
  EXPECT_EQ(sl.close_and_take(), nullptr);
  EXPECT_FALSE(sl.try_add(&a, &cell));
  EXPECT_EQ(sl.size(), 0u);
}

TEST(SuccessorList, ConcurrentAddVsCloseLosesNothing) {
  // Every successfully added node must be visible in the taken chain; a
  // failed add means the adder saw the closed sentinel. Repeat to shake
  // races.
  for (int round = 0; round < 50; ++round) {
    SuccessorList sl;
    std::vector<NopNode> nodes(32);
    std::vector<SuccessorCell> cells(32);
    std::atomic<int> added{0};
    std::thread adder([&] {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (sl.try_add(&nodes[i], &cells[i])) added.fetch_add(1);
      }
    });
    auto taken = chain_to_vector(sl.close_and_take());
    adder.join();
    // Stragglers that added after our close... cannot exist: close happened
    // before join, and failed adds aren't counted.
    EXPECT_EQ(static_cast<int>(taken.size()), added.load());
  }
}

TEST(SuccessorList, ManyAddersRacingOneCloseNoLossNoDuplicate) {
  // Several threads push disjoint node sets while one closer races them:
  // the taken chain must contain exactly the successfully-added nodes,
  // each exactly once, and all post-close adds must fail.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  for (int round = 0; round < 25; ++round) {
    SuccessorList sl;
    std::vector<NopNode> nodes(kThreads * kPerThread);
    std::vector<SuccessorCell> cells(nodes.size());
    std::vector<std::vector<TaskGraphNode*>> added(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> adders;
    for (int t = 0; t < kThreads; ++t) {
      adders.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {}
        for (int i = 0; i < kPerThread; ++i) {
          const int idx = t * kPerThread + i;
          if (sl.try_add(&nodes[idx], &cells[idx])) {
            added[t].push_back(&nodes[idx]);
          } else {
            // Once closed, every later add must also fail.
            SuccessorCell dead;
            EXPECT_FALSE(sl.try_add(&nodes[idx], &dead));
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    auto taken = chain_to_vector(sl.close_and_take());
    for (auto& th : adders) th.join();

    std::set<TaskGraphNode*> taken_set(taken.begin(), taken.end());
    EXPECT_EQ(taken_set.size(), taken.size()) << "duplicate successor";
    std::size_t total_added = 0;
    for (const auto& v : added) {
      total_added += v.size();
      for (TaskGraphNode* n : v) EXPECT_TRUE(taken_set.count(n)) << "lost successor";
    }
    EXPECT_EQ(taken.size(), total_added);
  }
}

// ----------------------------------------------------------- concurrent map

class KeyNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {}
  void compute(ExecContext&) override {}
};

TEST(ConcurrentMap, InsertOrGetCreatesOnce) {
  ConcurrentNodeMap map(16);
  auto [n1, c1] = map.insert_or_get(7, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  auto [n2, c2] =
      map.insert_or_get(7, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_TRUE(c1);
  EXPECT_FALSE(c2);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ConcurrentMap, FindMissingIsNull) {
  ConcurrentNodeMap map(16);
  EXPECT_EQ(map.find(123), nullptr);
  map.insert_or_get(123, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_NE(map.find(123), nullptr);
  EXPECT_EQ(map.find(124), nullptr);
}

TEST(ConcurrentMap, HandlesKeyZeroAndMax) {
  ConcurrentNodeMap map(4);
  map.insert_or_get(0, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  map.insert_or_get(~Key{0}, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_NE(map.find(0), nullptr);
  EXPECT_NE(map.find(~Key{0}), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(ConcurrentMap, GrowsBeyondInitialCapacity) {
  ConcurrentNodeMap map(4);  // tiny per-shard capacity
  for (Key k = 0; k < 5000; ++k) {
    map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  }
  EXPECT_EQ(map.size(), 5000u);
  for (Key k = 0; k < 5000; ++k) ASSERT_NE(map.find(k), nullptr) << k;
}

TEST(ConcurrentMap, ForEachVisitsEverything) {
  ConcurrentNodeMap map(16);
  for (Key k = 100; k < 200; ++k) {
    map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  }
  std::set<Key> seen;
  map.for_each([&](Key k, TaskGraphNode*) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 100u);
}

TEST(ConcurrentMap, ConcurrentInsertOrGetExactlyOneWinner) {
  constexpr int kThreads = 4;
  constexpr Key kKeys = 2000;
  ConcurrentNodeMap map(64);
  std::atomic<int> creations{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Pcg32 rng(t, 5);
      for (int i = 0; i < 20000; ++i) {
        Key k = rng.next() % kKeys;
        auto [node, created] = map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
        ASSERT_NE(node, nullptr);
        if (created) creations.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(creations.load()));
  EXPECT_LE(map.size(), static_cast<std::size_t>(kKeys));
}

TEST(ConcurrentMap, CacheLinePaddedNodesAreAlignedInSlabs) {
  struct alignas(64) PaddedNode final : TaskGraphNode {
    std::uint64_t payload[8];
    void init(ExecContext&) override {}
    void compute(ExecContext&) override {}
  };
  ConcurrentNodeMap map(256);
  for (Key k = 0; k < 256; ++k) {
    auto [n, created] = map.insert_or_get(
        k, [](NodeArena& a, Key) { return a.create<PaddedNode>(); });
    ASSERT_TRUE(created);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(n) % 64, 0u) << "key " << k;
  }
}

TEST(ConcurrentMap, RaceLoserNeverConstructsANode) {
  // The slot is reserved under the shard lock, so the factory runs exactly
  // once per key no matter how many threads race insert_or_get: node
  // constructions must equal map entries. (The previous implementation let
  // every racer construct a speculative node and destroy it on losing.)
  struct CountingNode final : TaskGraphNode {
    explicit CountingNode(std::atomic<int>* c) { c->fetch_add(1); }
    void init(ExecContext&) override {}
    void compute(ExecContext&) override {}
  };
  constexpr int kThreads = 4;
  constexpr Key kKeys = 512;
  ConcurrentNodeMap map(kKeys);
  std::atomic<int> constructions{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (Key k = 0; k < kKeys; ++k) {
        map.insert_or_get(k, [&](NodeArena& a, Key) {
          return a.create<CountingNode>(&constructions);
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(constructions.load(), static_cast<int>(kKeys));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
}

// ------------------------------------------------------------ test graphs

/// Chain with a fan: key k depends on k-1 and (for even k) k/2.
/// Records compute order for protocol checks.
struct OrderRecorder {
  std::mutex mu;
  std::vector<Key> order;
  std::atomic<int> computes{0};

  void record(Key k) {
    computes.fetch_add(1);
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(k);
  }
};

class RecordingNode final : public TaskGraphNode {
 public:
  explicit RecordingNode(OrderRecorder* rec) : rec_(rec) {}
  void init(ExecContext&) override {
    Key k = key();
    if (k > 0) {
      add_predecessor(k - 1);
      if (k % 2 == 0 && k / 2 != k - 1) add_predecessor(k / 2);
    }
  }
  void compute(ExecContext&) override { rec_->record(key()); }

 private:
  OrderRecorder* rec_;
};

class RecordingSpec final : public GraphSpec {
 public:
  explicit RecordingSpec(OrderRecorder* rec) : rec_(rec) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<RecordingNode>(rec_);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(k % 4);
  }

 private:
  OrderRecorder* rec_;
};

void expect_topological(const std::vector<Key>& order, Key n) {
  std::vector<int> pos(n + 1, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<int>(i);
  }
  for (Key k = 0; k <= n; ++k) ASSERT_GE(pos[k], 0) << "node " << k << " missing";
  for (Key k = 1; k <= n; ++k) {
    EXPECT_LT(pos[k - 1], pos[k]);
    if (k % 2 == 0 && k / 2 != k - 1) {
      EXPECT_LT(pos[k / 2], pos[k]);
    }
  }
}

// ---------------------------------------------------------- serial executor

TEST(SerialExecutor, ComputesAllInTopologicalOrder) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(300);
  EXPECT_EQ(rec.computes.load(), 301);
  EXPECT_EQ(ex.nodes_computed(), 301u);
  expect_topological(rec.order, 300);
}

TEST(SerialExecutor, FindReturnsComputedNodes) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(10);
  for (Key k = 0; k <= 10; ++k) {
    auto* n = ex.find(k);
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(n->computed());
    EXPECT_EQ(n->key(), k);
    EXPECT_EQ(n->color(), static_cast<numa::Color>(k % 4));
  }
  EXPECT_EQ(ex.find(11), nullptr);
}

TEST(SerialExecutor, RerunIsNoop) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(5);
  int first = rec.computes.load();
  ex.run(5);
  EXPECT_EQ(rec.computes.load(), first);
}

class CyclicSpec final : public GraphSpec {
 public:
  TaskGraphNode* create(NodeArena& arena, Key) override {
    class N final : public TaskGraphNode {
      void init(ExecContext&) override { add_predecessor((key() + 1) % 3); }
      void compute(ExecContext&) override {}
    };
    return arena.create<N>();
  }
};

TEST(SerialExecutorDeath, DetectsCycle) {
  CyclicSpec spec;
  SerialExecutor ex(spec);
  EXPECT_DEATH(ex.run(0), "cycle");
}

// --------------------------------------------------------- dynamic executor

class DynExecTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DynExecTest, ComputesEveryNodeExactlyOnceInOrder) {
  auto [workers, colored] = GetParam();
  api::RuntimeOptions opts;
  opts.workers = static_cast<std::uint32_t>(workers);
  opts.topology = numa::Topology(2, 2);
  opts.variant = colored ? api::Variant::kNabbitC : api::Variant::kNabbit;
  api::Runtime rt(opts);

  OrderRecorder rec;
  RecordingSpec spec(&rec);
  api::Execution e = rt.run(spec, 200);
  EXPECT_EQ(rec.computes.load(), 201);
  EXPECT_EQ(e.nodes_computed(), 201u);
  EXPECT_EQ(e.nodes_created(), 201u);
  expect_topological(rec.order, 200);
}

INSTANTIATE_TEST_SUITE_P(WorkersAndPolicies, DynExecTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Bool()));

TEST(DynamicExecutor, OnDemandOnlyCreatesReachableNodes) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  // Sink 9: reachable set is {9,8,...,0} via k-1 edges plus halves — but
  // nothing beyond 9 may be created.
  api::Execution e = rt.run(spec, 9);
  EXPECT_EQ(e.find(10), nullptr);
  EXPECT_NE(e.find(9), nullptr);
  EXPECT_EQ(e.nodes_created(), 10u);
}

TEST(DynamicExecutor, RandomDagsStress) {
  // Random DAGs: node k depends on a few random nodes < k. Run on a few
  // worker counts with both policies; every node computed exactly once.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Pcg32 rng(seed, 31);
    const Key n = 400;
    std::vector<std::vector<Key>> preds(n + 1);
    for (Key k = 1; k <= n; ++k) {
      preds[k].push_back(rng.next64() % k);  // stay connected-ish
      if (rng.uniform() < 0.5) preds[k].push_back(rng.next64() % k);
      if (k > 0) preds[k].push_back(k - 1);  // guarantee a single sink
    }

    struct RandomNode final : TaskGraphNode {
      const std::vector<Key>* my_preds;
      std::atomic<int>* computes;
      void init(ExecContext&) override {
        for (Key p : *my_preds) add_predecessor(p);
      }
      void compute(ExecContext& ctx) override {
        for (Key p : *my_preds) {
          auto* pn = ctx.find(p);
          ASSERT_NE(pn, nullptr);
          EXPECT_TRUE(pn->computed());
        }
        computes->fetch_add(1);
      }
    };
    struct RandomSpec final : GraphSpec {
      std::vector<std::vector<Key>>* preds;
      std::atomic<int>* computes;
      TaskGraphNode* create(NodeArena& arena, Key k) override {
        auto* node = arena.create<RandomNode>();
        node->my_preds = &(*preds)[k];
        node->computes = computes;
        return node;
      }
      numa::Color color_of(Key k) const override {
        return static_cast<numa::Color>(k % 3);
      }
    };

    std::atomic<int> computes{0};
    RandomSpec spec;
    spec.preds = &preds;
    spec.computes = &computes;

    api::RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.seed = seed;
    opts.variant = api::Variant::kNabbit;
    api::Runtime rt(opts);
    rt.run(spec, n);
    EXPECT_EQ(computes.load(), static_cast<int>(n) + 1);
  }
}

TEST(DynamicExecutor, LocalityCountersPopulated) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  rt.run(spec, 100);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 101u);
  EXPECT_GT(agg.locality.pred_accesses, 0u);
}

TEST(DynamicExecutor, SingleNodeGraph) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  rt.run(spec, 0);  // node 0 has no predecessors
  EXPECT_EQ(rec.computes.load(), 1);
}

// -------------------------------------------------------------------- keys

TEST(Keys, PackUnpackRoundTrip) {
  Key k = key_pack(0xdeadbeef, 0x12345678);
  EXPECT_EQ(key_major(k), 0xdeadbeefu);
  EXPECT_EQ(key_minor(k), 0x12345678u);
  EXPECT_EQ(key_pack(0, 0), 0u);
}

}  // namespace
}  // namespace nabbitc::nabbit

namespace nabbitc::nabbit {
namespace {

// Regression: the created-predecessor path of try_init_compute must
// register the parent's dependence even when the predecessor stays pending
// (one of *its* preds still executing elsewhere). A 2-D wavefront with a
// steep cost gradient reproduced the original bug within a few rounds.
class GradientWavefrontNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {
    const std::uint32_t bi = key_major(key()), bj = key_minor(key());
    if (bj > 0) add_predecessor(key_pack(bi, bj - 1));
    if (bi > 0) add_predecessor(key_pack(bi - 1, bj));
  }
  void compute(ExecContext& ctx) override {
    volatile long sink = 0;
    const long work = 2000L * (1 + key_major(key()) + key_minor(key()));
    for (long i = 0; i < work; ++i) sink = sink + i;
    for (Key p : predecessors()) {
      TaskGraphNode* pn = ctx.find(p);
      ASSERT_NE(pn, nullptr);
      ASSERT_TRUE(pn->computed());
    }
  }
};

class GradientWavefrontSpec final : public GraphSpec {
 public:
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<GradientWavefrontNode>();
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(key_major(k) / 2);
  }
};

TEST(DynamicExecutorRegression, CreatedPendingPredecessorIsRegistered) {
  for (std::uint64_t round = 0; round < 40; ++round) {
    api::RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.variant = api::Variant::kNabbitC;
    opts.seed = round;
    api::Runtime rt(opts);
    GradientWavefrontSpec spec;
    api::Execution e = rt.run(spec, key_pack(7, 7));
    ASSERT_EQ(e.nodes_computed(), 64u) << "round " << round;
  }
}

// Regression: a node is ready as soon as its last predecessor completes,
// not once the exploration of its predecessors' subtrees returns. A 16x16
// wavefront explored from its sink has up to 16 nodes ready at once; when
// readiness waited on exploration, one worker computed the grid in order
// while the others found nothing to steal (at most one node in flight).
struct InFlightState {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> computes{0};
  std::atomic<int> order_violations{0};
};

class SpinWavefrontNode final : public TaskGraphNode {
 public:
  explicit SpinWavefrontNode(InFlightState* st) : st_(st) {}
  void init(ExecContext&) override {
    const std::uint32_t bi = key_major(key()), bj = key_minor(key());
    if (bj > 0) add_predecessor(key_pack(bi, bj - 1));
    if (bi > 0) add_predecessor(key_pack(bi - 1, bj));
  }
  void compute(ExecContext& ctx) override {
    const int now = st_->in_flight.fetch_add(1) + 1;
    int seen = st_->max_in_flight.load();
    while (now > seen && !st_->max_in_flight.compare_exchange_weak(seen, now)) {
    }
    for (Key p : predecessors()) {
      TaskGraphNode* pn = ctx.find(p);
      if (pn == nullptr || !pn->computed()) st_->order_violations.fetch_add(1);
    }
    const std::uint64_t until = now_ns() + 100'000;  // ~100 us of work
    while (now_ns() < until) {
    }
    st_->computes.fetch_add(1);
    st_->in_flight.fetch_sub(1);
  }

 private:
  InFlightState* st_;
};

class SpinWavefrontSpec final : public GraphSpec {
 public:
  explicit SpinWavefrontSpec(InFlightState* st) : st_(st) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<SpinWavefrontNode>(st_);
  }

 private:
  InFlightState* st_;
};

TEST(DynamicExecutorRegression, WavefrontNodesComputeConcurrently) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "overlapping computes need at least 2 CPUs";
  }
  for (std::uint64_t round = 0; round < 6; ++round) {
    api::RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.variant = api::Variant::kNabbit;
    opts.seed = round;
    api::Runtime rt(opts);
    InFlightState st;
    SpinWavefrontSpec spec(&st);
    api::Execution e = rt.run(spec, key_pack(15, 15));
    ASSERT_EQ(e.nodes_computed(), 256u) << "round " << round;
    EXPECT_EQ(st.computes.load(), 256) << "round " << round;
    EXPECT_EQ(st.order_violations.load(), 0) << "round " << round;
    EXPECT_GE(st.max_in_flight.load(), 2) << "round " << round;
  }
}

}  // namespace
}  // namespace nabbitc::nabbit
