// Tests for the NabbitC color layer: coloring modes, colored spawning
// (morphing continuations), the dynamic executor's colored spawn, and
// locality behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "api/nabbitc.h"
#include "nabbitc/coloring.h"
#include "nabbitc/spawn_colors.h"

namespace nabbitc::nabbit {
namespace {

// ---------------------------------------------------------------- coloring

TEST(Coloring, GoodIsIdentity) {
  for (numa::Color c = 0; c < 8; ++c) {
    EXPECT_EQ(apply_coloring(c, ColoringMode::kGood, 8), c);
  }
}

TEST(Coloring, BadIsValidButDifferent) {
  const std::uint32_t workers = 8;
  for (numa::Color c = 0; c < 8; ++c) {
    numa::Color bad = apply_coloring(c, ColoringMode::kBad, workers);
    EXPECT_GE(bad, 0);
    EXPECT_LT(bad, static_cast<numa::Color>(workers));
    EXPECT_NE(bad, c);
  }
}

TEST(Coloring, BadLandsInDifferentDomain) {
  // With >= 2 domains, the half-machine rotation must cross domains.
  numa::Topology topo(4, 2);  // 8 workers, 4 domains
  for (numa::Color c = 0; c < 8; ++c) {
    numa::Color bad = apply_coloring(c, ColoringMode::kBad, 8);
    EXPECT_NE(topo.domain_of_color(bad), topo.domain_of_color(c));
  }
}

TEST(Coloring, BadIsPermutation) {
  std::vector<int> seen(8, 0);
  for (numa::Color c = 0; c < 8; ++c) {
    ++seen[static_cast<std::size_t>(apply_coloring(c, ColoringMode::kBad, 8))];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Coloring, InvalidIsNoWorkersColor) {
  EXPECT_EQ(apply_coloring(3, ColoringMode::kInvalid, 8), numa::kInvalidColor);
  EXPECT_EQ(apply_coloring(0, ColoringMode::kInvalid, 1), numa::kInvalidColor);
}

TEST(Coloring, SingleWorkerBadIsIdentity) {
  EXPECT_EQ(apply_coloring(0, ColoringMode::kBad, 1), 0);
}

TEST(Coloring, Names) {
  EXPECT_STREQ(coloring_name(ColoringMode::kGood), "good");
  EXPECT_STREQ(coloring_name(ColoringMode::kBad), "bad");
  EXPECT_STREQ(coloring_name(ColoringMode::kInvalid), "invalid");
}

// ------------------------------------------------------------ spawn_colored

struct ColoredItem {
  int id;
  numa::Color color;
};

TEST(SpawnColored, ExecutesEveryItemOnce) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);

  std::vector<std::atomic<int>> hits(64);
  std::vector<ColoredItem> items;
  for (int i = 0; i < 64; ++i) items.push_back({i, static_cast<numa::Color>(i % 4)});

  struct Leaf {
    std::vector<std::atomic<int>>* hits;
    void operator()(rt::Worker&, const ColoredItem& it) const {
      (*hits)[static_cast<std::size_t>(it.id)].fetch_add(1);
    }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&hits});
    g.wait(w);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SpawnColored, SingleWorkerExecutesOwnColorFirst) {
  // The morphing order on worker 0 (color 0) must run all color-0 items
  // before any other color (single worker => no steals disturb the order).
  api::RuntimeOptions opts;
  opts.workers = 1;
  api::Runtime rt(opts);

  std::mutex mu;
  std::vector<numa::Color> order;
  std::vector<ColoredItem> items;
  // Colors deliberately interleaved.
  for (int i = 0; i < 24; ++i) items.push_back({i, static_cast<numa::Color>(i % 3)});

  struct Leaf {
    std::mutex* mu;
    std::vector<numa::Color>* order;
    void operator()(rt::Worker&, const ColoredItem& it) const {
      std::lock_guard<std::mutex> lk(*mu);
      order->push_back(it.color);
    }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&mu, &order});
    g.wait(w);
  });
  ASSERT_EQ(order.size(), 24u);
  // The first 8 executed items must all be color 0 (the worker's color).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 0);
}

TEST(SpawnColored, EmptyAndSingleton) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  std::atomic<int> n{0};
  struct Leaf {
    std::atomic<int>* n;
    void operator()(rt::Worker&, const ColoredItem&) const { n->fetch_add(1); }
  };
  std::vector<ColoredItem> one{{7, 1}};
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, one.data(), 0, [](const ColoredItem& it) { return it.color; },
        Leaf{&n});
    spawn_colored(
        w, g, one.data(), 1, [](const ColoredItem& it) { return it.color; },
        Leaf{&n});
    g.wait(w);
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(SpawnColored, AllInvalidColorsStillExecute) {
  api::RuntimeOptions opts;
  opts.workers = 3;
  api::Runtime rt(opts);
  std::atomic<int> n{0};
  std::vector<ColoredItem> items;
  for (int i = 0; i < 32; ++i) items.push_back({i, numa::kInvalidColor});
  struct Leaf {
    std::atomic<int>* n;
    void operator()(rt::Worker&, const ColoredItem&) const { n->fetch_add(1); }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&n});
    g.wait(w);
  });
  EXPECT_EQ(n.load(), 32);
}

// ------------------------------------------------------- colored executors

/// Wide two-level graph: sink depends on `width` independent nodes spread
/// over all colors; records which worker executed each node.
struct WideGraphState {
  std::uint32_t width = 0;
  std::uint32_t colors = 1;
  std::mutex mu;
  std::map<Key, std::uint32_t> executed_by;
};

class WideNode final : public TaskGraphNode {
 public:
  explicit WideNode(WideGraphState* st) : st_(st) {}
  void init(ExecContext&) override {
    if (key() == 0) {  // sink
      for (std::uint32_t i = 1; i <= st_->width; ++i) add_predecessor(i);
    }
  }
  void compute(ExecContext& ctx) override {
    std::lock_guard<std::mutex> lk(st_->mu);
    st_->executed_by[key()] = ctx.worker().id();
  }

 private:
  WideGraphState* st_;
};

class WideSpec final : public GraphSpec {
 public:
  explicit WideSpec(WideGraphState* st, ColoringMode mode)
      : st_(st), mode_(mode) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<WideNode>(st_);
  }
  numa::Color color_of(Key k) const override {
    return apply_coloring(data_color_of(k), mode_, st_->colors);
  }
  numa::Color data_color_of(Key k) const override {
    return k == 0 ? 0 : static_cast<numa::Color>((k - 1) % st_->colors);
  }

 private:
  WideGraphState* st_;
  ColoringMode mode_;
};

class ColoredExecTest : public ::testing::TestWithParam<ColoringMode> {};

TEST_P(ColoredExecTest, AllColoringsComplete) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);

  WideGraphState st;
  st.width = 200;
  st.colors = 4;
  WideSpec spec(&st, GetParam());
  rt.run(spec, 0);
  EXPECT_EQ(st.executed_by.size(), 201u);
}

INSTANTIATE_TEST_SUITE_P(Colorings, ColoredExecTest,
                         ::testing::Values(ColoringMode::kGood, ColoringMode::kBad,
                                           ColoringMode::kInvalid));

TEST(ColoredExecutor, GoodColoringKeepsLocalityOnSingleWorkerPerColor) {
  // With 1 worker there is no stealing: every node executes on worker 0 and
  // the locality counters must classify nodes by color correctly.
  api::RuntimeOptions opts;
  opts.workers = 1;
  opts.topology = numa::Topology(1, 1);
  api::Runtime rt(opts);
  WideGraphState st;
  st.width = 50;
  st.colors = 1;
  WideSpec spec(&st, ColoringMode::kGood);
  rt.run(spec, 0);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 51u);
  EXPECT_EQ(agg.locality.remote_nodes, 0u);  // single domain: nothing remote
}

TEST(ColoredExecutor, InvalidColoringDisablesColoredSteals) {
  // Invalid hints => empty frame masks => zero successful colored steals;
  // data-color-based locality accounting keeps counting real placement.
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.topology = numa::Topology(2, 1);
  api::Runtime rt(opts);
  WideGraphState st;
  st.width = 40;
  st.colors = 2;
  WideSpec spec(&st, ColoringMode::kInvalid);
  rt.run(spec, 0);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 41u);
  EXPECT_EQ(agg.steals_colored, 0u);
}

TEST(ColoredExecutor, StealsAreColoredUnderGoodColoring) {
  // What good coloring guarantees: every thief's first steal of a job is
  // colored, because the NabbitC policy forces colored attempts until one
  // succeeds and every color has work. Later steals may be random by design
  // once a thief's color drains, so colored-vs-random totals prove nothing.
  // The one exception is the bounded forcing giving up (kFlagAbandoned).
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.trace.enabled = true;
  api::Runtime rt(opts);
  WideGraphState st;
  st.width = 400;
  st.colors = 4;
  WideSpec spec(&st, ColoringMode::kGood);
  for (int round = 0; round < 5; ++round) rt.run(spec, 0);
  for (const trace::Event& e : rt.collect_trace().events) {
    if (e.kind != trace::EventKind::kFirstSteal || e.has(trace::kFlagAbandoned)) {
      continue;
    }
    EXPECT_TRUE(e.has(trace::kFlagColored))
        << "worker " << e.worker << "'s first steal was random";
  }
}

}  // namespace
}  // namespace nabbitc::nabbit
