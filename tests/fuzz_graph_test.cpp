// Seeded randomized-DAG harness: every executor variant against the serial
// reference, on graphs no human would write by hand.
//
// Each fixed seed derives one random GraphSpec — random topology with
// diamond patterns (undirected cycles; the DAG itself stays acyclic),
// fan-in/fan-out skew (occasional many-predecessor nodes that overflow the
// inline SmallVec/successor-cell pools), random colors, and a payload that
// mixes every predecessor's value — then runs it through
//
//   serial  |  dynamic nabbit  |  dynamic nabbitc  |
//   compiled-plan fresh build  |  compiled-plan replay (both variants)
//
// and asserts bitwise-equal checksums across all of them. The node values
// are a pure function of the predecessors' values, so ANY legal schedule
// must reproduce the serial result exactly; a single lost wakeup, double
// compute, or dependence violation shows up as a checksum mismatch.
//
// Each seed additionally cancels submissions mid-flight (spec and plan
// paths) and asserts the submission-control invariants: the execution
// reaches a terminal status, a cancelled run never wrote the sink after the
// cancel was acknowledged, every plan node is retired exactly once
// (computed + skipped == n), no frame-arena block stays live once the pool
// is idle, the instance goes back to the plan's freelist, and the next
// replay of the same instance is bitwise-correct again.
//
// The FuzzBatch suite runs the same DAGs through Runtime::submit_batch:
// randomized batch sizes (including the spill path past
// BatchHandle::kInlineItems) with mixed per-item priorities, expired
// absolute deadlines, and mid-flight per-item cancels, asserting the same
// checksum/retirement/live-arena/freelist invariants per item.
//
// The FuzzTiny suite shrinks the DAGs under the tiny-graph lowering bound
// and checks the serial-lowered inline submit path (plus its blob
// round-trip and deadline handling) against the same serial reference, and
// every FuzzDag seed additionally recompiles with each optimization pass
// individually disabled, proving checksum equality pass by pass.
//
// Registered as fixed-seed ctest cases (FuzzDag/0..7, FuzzTiny/0..7,
// FuzzBatch/0..7) so any failure reproduces from the test name alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "persist/plan_blob.h"
#include "support/rng.h"
#include "support/spin.h"

namespace nabbitc::api {
namespace {

// ------------------------------------------------------------- random DAG

/// One random DAG: nodes 0..n-1 in topological order, key == index, node
/// n-1 is the sink and every node is an ancestor of it (so all executors
/// cover the same node set). `vals` is the per-run result buffer.
struct FuzzDag {
  std::uint32_t n = 0;
  std::uint64_t seed = 0;
  std::vector<std::vector<Key>> preds;  // preds[i] < i: topological order
  std::vector<Color> colors;
  /// Per-run result buffer. Atomic (relaxed) because batched submissions
  /// replay the same plan CONCURRENTLY against this one buffer: every
  /// writer stores the identical pure-function value for a node, so the
  /// data is deterministic, but the overlapping same-value stores need
  /// atomicity to be a defined program (and clean under tsan).
  std::unique_ptr<std::atomic<std::uint64_t>[]> vals;

  static constexpr std::uint64_t kUnwritten = 0xfeedfacecafebeefULL;

  /// [min_n, max_n] bounds the random node count: the default range
  /// (48..95) exercises the concurrent replay protocol; the FuzzTiny suite
  /// passes 2..31 to land under the tiny-graph lowering bound.
  explicit FuzzDag(std::uint64_t s, std::uint32_t num_colors,
                   std::uint32_t min_n = 48, std::uint32_t max_n = 95)
      : seed(s) {
    Pcg32 rng(splitmix64(s), /*stream=*/7);
    n = min_n + rng.below(max_n - min_n + 1);
    preds.resize(n);
    colors.resize(n);
    const std::uint32_t window = 4 + rng.below(12);  // pred locality window
    for (std::uint32_t i = 0; i < n; ++i) {
      colors[i] = static_cast<Color>(rng.below(num_colors));
      if (i == 0) continue;
      // Fan-in skew: mostly 1-3 predecessors, occasionally a heavy fan-in
      // node (up to 8 — past the inline pred/successor-cell capacity).
      std::uint32_t k = 1 + rng.below(3);
      if (rng.below(8) == 0) k = 5 + rng.below(4);
      const std::uint32_t lo = i > window ? i - window : 0;
      for (std::uint32_t e = 0; e < k; ++e) {
        const Key p = lo + rng.below(i - lo);
        bool dup = false;
        for (const Key q : preds[i]) dup |= (q == p);
        if (!dup) preds[i].push_back(p);
      }
    }
    // Connectivity fix-up: every non-sink node must reach the sink, so the
    // whole graph is one sink cone (diamonds appear wherever two paths
    // reconverge). Walking i downward lets a patched-in successor itself be
    // patched later, so reachability is transitive by induction.
    std::vector<std::uint8_t> has_succ(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const Key p : preds[i]) has_succ[p] = 1;
    }
    for (std::uint32_t i = n - 1; i-- > 0;) {
      if (has_succ[i]) continue;
      const std::uint32_t j = i + 1 + rng.below(n - i - 1);
      preds[j].push_back(i);
      has_succ[i] = 1;
    }
    vals.reset(new std::atomic<std::uint64_t>[n]);
    clear();
  }

  Key sink() const noexcept { return n - 1; }

  void clear() {
    for (std::uint32_t i = 0; i < n; ++i) {
      vals[i].store(kUnwritten, std::memory_order_relaxed);
    }
  }

  std::uint64_t val(std::uint32_t i) const {
    return vals[i].load(std::memory_order_relaxed);
  }

  /// The node function: a pure mix of the predecessors' values, the graph
  /// seed, and the key — order-independent and collision-hostile.
  std::uint64_t node_value(Key k) const {
    std::uint64_t h = seed ^ (k * 0x9e3779b97f4a7c15ULL);
    for (const Key p : preds[static_cast<std::uint32_t>(k)]) {
      h = splitmix64(h ^ (val(static_cast<std::uint32_t>(p)) +
                          0x2545f4914f6cdd1dULL * (p + 1)));
    }
    return splitmix64(h);
  }

  std::uint64_t checksum() const {
    std::uint64_t h = seed;
    for (std::uint32_t i = 0; i < n; ++i) h = splitmix64(h ^ val(i));
    return h;
  }
};

struct FuzzNode final : TaskGraphNode {
  FuzzDag* dag;
  explicit FuzzNode(FuzzDag* d) : dag(d) {}
  void init(ExecContext&) override {
    for (const Key p : dag->preds[static_cast<std::uint32_t>(key())]) {
      add_predecessor(p);
    }
  }
  void compute(ExecContext&) override {
    dag->vals[static_cast<std::uint32_t>(key())].store(
        dag->node_value(key()), std::memory_order_relaxed);
  }
};

struct FuzzSpec final : GraphSpec {
  FuzzDag* dag;
  explicit FuzzSpec(FuzzDag* d) : dag(d) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<FuzzNode>(dag);
  }
  Color color_of(Key k) const override {
    return dag->colors[static_cast<std::uint32_t>(k)];
  }
  std::size_t expected_nodes() const override { return dag->n; }
};

api::Runtime make_runtime(Variant v) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.variant = v;
  return api::Runtime(opts);
}

// -------------------------------------------------------------- the harness

class FuzzDag8 : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDag8, AllVariantsBitwiseEqualAndCancelInvariantsHold) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 0x51ed2701u + 17;
  FuzzDag dag(seed, /*num_colors=*/2);
  FuzzSpec spec(&dag);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " n=" + std::to_string(dag.n));

  // --- serial reference.
  SerialExecutor serial(spec);
  serial.run(dag.sink());
  ASSERT_EQ(serial.nodes_computed(), dag.n) << "sink cone must cover the DAG";
  const std::uint64_t expected = dag.checksum();

  auto nb = make_runtime(Variant::kNabbit);
  auto nc = make_runtime(Variant::kNabbitC);

  // --- dynamic executors, both variants.
  for (api::Runtime* rt : {&nb, &nc}) {
    dag.clear();
    Execution e = rt->run(spec, dag.sink());
    EXPECT_EQ(e.nodes_computed(), dag.n);
    EXPECT_EQ(e.status().state, ExecStatus::kCompleted);
    EXPECT_EQ(e.status().skipped_nodes, 0u);
    EXPECT_EQ(dag.checksum(), expected) << "dynamic diverged from serial";
  }

  // --- compiled plans: fresh instance build, then warm replays.
  for (api::Runtime* rt : {&nb, &nc}) {
    auto plan = rt->compile(spec, dag.sink());
    EXPECT_EQ(plan->num_nodes(), dag.n);
    for (int round = 0; round < 3; ++round) {
      dag.clear();
      Execution e = rt->run(*plan);
      EXPECT_EQ(e.nodes_computed(), dag.n) << round;
      EXPECT_EQ(dag.checksum(), expected) << "replay diverged, round " << round;
    }

    // --- persistence round-trip: serialize the frozen plan, parse the blob
    // back (full stamp/checksum/layout/structure validation), restore it
    // over this same spec, and the restored plan must replay bitwise
    // identically to the serial reference — on every fuzz DAG.
    const auto blob =
        persist::serialize_plan(*plan, /*spec_bytes=*/{}, /*spec_hash=*/seed | 1);
    auto backing = std::make_shared<std::vector<std::uint8_t>>(blob);
    persist::PlanBlobView view;
    ASSERT_EQ(view.parse({backing->data(), backing->size()}),
              persist::BlobError::kOk);
    auto restored = rt->restore_plan(spec, dag.sink(), view.frozen(backing),
                                     view.colored());
    ASSERT_NE(restored, nullptr) << "restore refused its own artifact";
    for (int round = 0; round < 2; ++round) {
      dag.clear();
      Execution e = rt->run(*restored);
      EXPECT_EQ(e.nodes_computed(), dag.n) << round;
      EXPECT_EQ(dag.checksum(), expected)
          << "restored-plan replay diverged, round " << round;
    }
  }

  // --- lowering off: every seed also compiles with tiny_lower = false,
  // fresh and blob-restored. Lowering is inert at 48+ nodes, but the flag
  // plumbing itself is covered.
  for (api::Runtime* rt : {&nb, &nc}) {
    SCOPED_TRACE(variant_name(rt->variant()));
    auto plan = rt->compile(spec, dag.sink(), /*reserve_instances=*/1,
                            /*tiny_lower=*/false);
    EXPECT_FALSE(plan->serial_lowered());
    for (int round = 0; round < 2; ++round) {
      dag.clear();
      Execution e = rt->run(*plan);
      EXPECT_EQ(e.nodes_computed(), dag.n) << round;
      EXPECT_EQ(dag.checksum(), expected)
          << "unlowered replay diverged, round " << round;
    }
    const auto blob = persist::serialize_plan(*plan, /*spec_bytes=*/{},
                                              /*spec_hash=*/seed | 1);
    auto backing = std::make_shared<std::vector<std::uint8_t>>(blob);
    persist::PlanBlobView view;
    ASSERT_EQ(view.parse({backing->data(), backing->size()}),
              persist::BlobError::kOk);
    auto restored = rt->restore_plan(spec, dag.sink(), view.frozen(backing),
                                     view.colored());
    ASSERT_NE(restored, nullptr);
    EXPECT_FALSE(restored->serial_lowered());
    EXPECT_EQ(restored->num_nodes(), plan->num_nodes());
    dag.clear();
    Execution e = rt->run(*restored);
    EXPECT_EQ(e.nodes_computed(), dag.n);
    EXPECT_EQ(dag.checksum(), expected)
        << "unlowered restored-plan replay diverged";
  }

  // --- cancellation, plan path: cancel mid-flight at a seed-derived point.
  {
    Pcg32 rng(splitmix64(seed ^ 0xc0ffee), /*stream=*/11);
    auto plan = nc.compile(spec, dag.sink());
    // Warm up so the arena watermark and instance pool are settled — with
    // one cancelled round included, so the watermark covers the skip
    // cascade's own (smaller, but possibly differently distributed)
    // per-worker frame allocation pattern.
    dag.clear();
    nc.run(*plan);
    dag.clear();
    nc.run(*plan);
    {
      dag.clear();
      Execution warm_cancel = nc.submit(*plan);
      warm_cancel.cancel();
      warm_cancel.wait();
    }
    nc.wait_idle();
    const std::size_t warm_instances = plan->instances_built();

    for (int round = 0; round < 3; ++round) {
      dag.clear();
      const std::uint64_t threshold = rng.below(dag.n);
      SubmitOptions so;
      so.priority = round == 0 ? Priority::kLow : Priority::kNormal;
      so.name = "fuzz-cancel";
      Execution e = nc.submit(*plan, so);
      Backoff backoff;
      while (!e.done() && e.nodes_computed() < threshold) backoff.pause();
      e.cancel();
      e.wait();

      const Status st = e.status();
      ASSERT_TRUE(st.state == ExecStatus::kCompleted ||
                  st.state == ExecStatus::kCancelled);
      // Every plan node is retired exactly once: computed or skipped.
      EXPECT_EQ(e.nodes_computed() + st.skipped_nodes, dag.n) << round;
      if (st.state == ExecStatus::kCancelled) {
        // No sink write after the cancel was acknowledged: a cancelled
        // execution by definition never computed the sink, and wait()
        // returning means every task has synced — the slot must still hold
        // the sentinel now and forever after.
        EXPECT_GT(st.skipped_nodes, 0u);
        EXPECT_EQ(dag.val(dag.n - 1), FuzzDag::kUnwritten) << round;
        nc.wait_idle();
        EXPECT_EQ(dag.val(dag.n - 1), FuzzDag::kUnwritten)
            << "sink written after cancel ack, round " << round;
      } else {
        EXPECT_EQ(st.skipped_nodes, 0u);
        EXPECT_EQ(dag.checksum(), expected) << round;
      }
    }
    // Handles released: instances are back on the freelist (the pool never
    // grew past the warm size), no arena block is live, and the recycled
    // instance replays bitwise-correctly.
    nc.wait_idle();
    EXPECT_EQ(plan->instances_built(), warm_instances);
    EXPECT_EQ(nc.arena_live_bytes(), 0u)
        << "cancelled runs leaked frame-arena blocks";
    dag.clear();
    Execution e = nc.run(*plan);
    EXPECT_EQ(e.nodes_created(), 0u) << "cancelled instance left the pool";
    EXPECT_EQ(e.status().state, ExecStatus::kCompleted);
    EXPECT_EQ(dag.checksum(), expected) << "replay after cancel diverged";
  }

  // --- cancellation, dynamic-spec path: discovery itself is cut short.
  {
    Pcg32 rng(splitmix64(seed ^ 0xabad1dea), /*stream=*/13);
    dag.clear();
    const std::uint64_t threshold = rng.below(dag.n / 2 + 1);
    Execution e = nb.submit(spec, dag.sink());
    Backoff backoff;
    while (!e.done() && e.nodes_computed() < threshold) backoff.pause();
    e.cancel();
    e.wait();
    const Status st = e.status();
    ASSERT_TRUE(st.state == ExecStatus::kCompleted ||
                st.state == ExecStatus::kCancelled);
    if (st.state == ExecStatus::kCancelled) {
      EXPECT_EQ(dag.val(dag.n - 1), FuzzDag::kUnwritten)
          << "sink written by a cancelled spec submission";
    } else {
      EXPECT_EQ(dag.checksum(), expected);
    }
    // The spec is reusable right away: a full re-run is bitwise-correct.
    dag.clear();
    Execution again = nb.run(spec, dag.sink());
    EXPECT_EQ(again.status().state, ExecStatus::kCompleted);
    EXPECT_EQ(dag.checksum(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDag8, ::testing::Range(0, 8));

// --------------------------------------------------------------- tiny DAGs
//
// Graphs under kTinyGraphMaxNodes take the serial-lowered path:
// Runtime::submit runs the whole replay inline on the submitting thread and
// returns an already-terminal Execution, never touching the scheduler. Every
// seed checks the inline path against the serial reference (fresh + replay +
// blob round-trip), that a born-expired deadline terminates as
// kDeadlineExceeded with nothing computed, that cancel() after the inline
// completion is harmless, and that compiling the same spec with lowering
// disabled still matches through the normal scheduler path.

class FuzzTiny8 : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTiny8, SerialLoweredInlineReplayMatchesSerialReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 0x7f4a7c15u + 3;
  FuzzDag dag(seed, /*num_colors=*/2, /*min_n=*/2,
              /*max_n=*/plan::kTinyGraphMaxNodes - 1);
  FuzzSpec spec(&dag);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " n=" + std::to_string(dag.n));
  ASSERT_LT(dag.n, plan::kTinyGraphMaxNodes);

  SerialExecutor serial(spec);
  serial.run(dag.sink());
  ASSERT_EQ(serial.nodes_computed(), dag.n);
  const std::uint64_t expected = dag.checksum();

  auto nb = make_runtime(Variant::kNabbit);
  auto nc = make_runtime(Variant::kNabbitC);

  for (api::Runtime* rt : {&nb, &nc}) {
    auto plan = rt->compile(spec, dag.sink());
    ASSERT_TRUE(plan->serial_lowered())
        << "tiny plan (" << dag.n << " nodes) was not lowered";

    for (int round = 0; round < 3; ++round) {
      dag.clear();
      Execution e = rt->submit(*plan);
      // Inline lowering: the submission is terminal before submit returns.
      EXPECT_TRUE(e.done()) << "inline submit returned a live execution";
      const Status st = e.status();
      EXPECT_EQ(st.state, ExecStatus::kCompleted) << round;
      EXPECT_EQ(e.nodes_computed(), dag.n) << round;
      EXPECT_EQ(st.skipped_nodes, 0u);
      EXPECT_EQ(dag.checksum(), expected)
          << "inline replay diverged, round " << round;
      // cancel() after inline completion must be a harmless no-op.
      e.cancel();
      EXPECT_EQ(e.status().state, ExecStatus::kCompleted);
    }

    // Born-expired deadline: the inline path must honor it before computing
    // anything — terminal kDeadlineExceeded, all nodes skipped.
    {
      dag.clear();
      SubmitOptions so;
      so.deadline_ns = 1;  // long past
      Execution e = rt->submit(*plan, so);
      EXPECT_TRUE(e.done());
      EXPECT_EQ(e.status().state, ExecStatus::kDeadlineExceeded);
      EXPECT_EQ(e.nodes_computed(), 0u);
      EXPECT_EQ(e.status().skipped_nodes, dag.n);
      EXPECT_EQ(dag.val(dag.n - 1), FuzzDag::kUnwritten)
          << "expired inline submission wrote the sink";
    }

    // Blob round-trip preserves the lowering decision and replays bitwise.
    const auto blob = persist::serialize_plan(*plan, /*spec_bytes=*/{},
                                              /*spec_hash=*/seed | 1);
    auto backing = std::make_shared<std::vector<std::uint8_t>>(blob);
    persist::PlanBlobView view;
    ASSERT_EQ(view.parse({backing->data(), backing->size()}),
              persist::BlobError::kOk);
    auto restored = rt->restore_plan(spec, dag.sink(), view.frozen(backing),
                                     view.colored());
    ASSERT_NE(restored, nullptr);
    EXPECT_TRUE(restored->serial_lowered())
        << "blob round-trip dropped the serial-lowered flag";
    dag.clear();
    Execution e = rt->run(*restored);
    EXPECT_EQ(e.nodes_computed(), dag.n);
    EXPECT_EQ(dag.checksum(), expected) << "restored tiny plan diverged";

    // Lowering disabled: same spec through the scheduler path, same bits.
    auto queued = rt->compile(spec, dag.sink(), /*reserve_instances=*/1,
                              /*tiny_lower=*/false);
    EXPECT_FALSE(queued->serial_lowered());
    dag.clear();
    Execution qe = rt->run(*queued);
    EXPECT_EQ(qe.nodes_computed(), dag.n);
    EXPECT_EQ(dag.checksum(), expected)
        << "scheduler-path tiny plan diverged from inline path";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTiny8, ::testing::Range(0, 8));

// ------------------------------------------------------------------ batches
//
// Randomized batched submission against the serial reference: each round
// submits one batch with mixed per-item priorities, a sprinkle of
// already-expired absolute deadlines (deterministically kDeadlineExceeded
// at adoption, zero nodes computed), and mid-flight per-item cancels. All
// items replay ONE plan concurrently against the shared value buffer;
// every node value is a pure function of the DAG, so any interleaving of
// any subset of items leaves each slot either untouched or holding the
// serial value — a single completed item forces the whole buffer to the
// serial checksum. Afterwards the instance-freelist and arena-watermark
// invariants must hold even when a partially-cancelled batch's handle is
// dropped without an explicit wait_all().

class FuzzBatch8 : public ::testing::TestWithParam<int> {};

TEST_P(FuzzBatch8, BatchItemsMatchSerialAndPartialCancelInvariantsHold) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9u + 29;
  FuzzDag dag(seed, /*num_colors=*/2);
  FuzzSpec spec(&dag);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " n=" + std::to_string(dag.n));

  SerialExecutor serial(spec);
  serial.run(dag.sink());
  ASSERT_EQ(serial.nodes_computed(), dag.n);
  const std::uint64_t expected = dag.checksum();

  auto nc = make_runtime(Variant::kNabbitC);
  // Past BatchHandle::kInlineItems, so the spill arrays get exercised too.
  constexpr std::size_t kMaxBatch = 40;
  auto plan = nc.compile(spec, dag.sink(), /*reserve_instances=*/kMaxBatch);

  // Warm-up: one full-width batch (settles the instance pool and the arena
  // watermark for kMaxBatch concurrent replays) plus one fully-cancelled
  // batch (the skip cascade's own frame-allocation pattern).
  {
    dag.clear();
    auto warm = nc.submit_batch(*plan, kMaxBatch);
    warm.wait_all();
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      ASSERT_EQ(warm.status(i).state, ExecStatus::kCompleted) << i;
    }
    EXPECT_EQ(dag.checksum(), expected) << "warm batch diverged";
  }
  {
    dag.clear();
    auto warm = nc.submit_batch(*plan, 8);
    warm.cancel_all();
    warm.wait_all();
  }
  nc.wait_idle();
  const std::size_t warm_instances = plan->instances_built();

  Pcg32 rng(splitmix64(seed ^ 0xba7c4), /*stream=*/17);
  const std::size_t sizes[3] = {4 + rng.below(8), 32, kMaxBatch};
  for (int round = 0; round < 3; ++round) {
    const std::size_t k = sizes[round];
    dag.clear();
    std::vector<SubmitOptions> items(k);
    std::vector<std::uint8_t> expired(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t p = rng.below(3);
      items[i].priority = p == 0   ? Priority::kHigh
                          : p == 1 ? Priority::kNormal
                                   : Priority::kLow;
      items[i].name = "fuzz-batch";
      if (rng.below(5) == 0) {
        items[i].deadline_ns = 1;  // long past: expires at adoption
        expired[i] = 1;
      }
    }
    auto batch = nc.submit_batch(*plan, std::span<const SubmitOptions>(items));
    ASSERT_EQ(batch.size(), k);

    // Mid-flight per-item cancels — never on expired items, whose terminal
    // state must stay kDeadlineExceeded (first-writer-wins is the deadline
    // sweep's, by construction).
    std::vector<std::uint8_t> cancelled(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (!expired[i] && rng.below(3) == 0) {
        batch.cancel(i);
        cancelled[i] = 1;
      }
    }
    batch.wait_all();
    EXPECT_TRUE(batch.all_done());

    bool any_completed = false;
    for (std::size_t i = 0; i < k; ++i) {
      const Status st = batch.status(i);
      // Every plan node retired exactly once, whatever the outcome.
      EXPECT_EQ(batch.nodes_computed(i) + st.skipped_nodes, dag.n)
          << "item " << i << " round " << round;
      if (expired[i]) {
        EXPECT_EQ(st.state, ExecStatus::kDeadlineExceeded) << i;
        EXPECT_EQ(batch.nodes_computed(i), 0u)
            << "expired-at-submit item ran nodes, item " << i;
      } else if (cancelled[i]) {
        ASSERT_TRUE(st.state == ExecStatus::kCompleted ||
                    st.state == ExecStatus::kCancelled)
            << i;
      } else {
        EXPECT_EQ(st.state, ExecStatus::kCompleted) << i;
        EXPECT_EQ(st.skipped_nodes, 0u) << i;
      }
      any_completed |= st.state == ExecStatus::kCompleted;
    }
    if (any_completed) {
      EXPECT_EQ(dag.checksum(), expected)
          << "batch diverged from serial, round " << round;
    }
  }

  nc.wait_idle();
  EXPECT_EQ(plan->instances_built(), warm_instances)
      << "randomized batches leaked plan instances";

  // Partial-batch cancellation with the handle dropped cold: the
  // destructor must join the stragglers and recycle every instance.
  {
    dag.clear();
    auto batch = nc.submit_batch(*plan, 12);
    for (std::size_t i = 0; i < batch.size(); i += 2) batch.cancel(i);
  }
  nc.wait_idle();
  EXPECT_EQ(plan->instances_built(), warm_instances)
      << "batch items leaked plan instances";
  // Live bytes, not arena_bytes(): retained capacity may legally grow when
  // a new interleaving of skip cascades needs one more block.
  EXPECT_EQ(nc.arena_live_bytes(), 0u)
      << "partial-batch cancellation leaked frame-arena blocks";

  // And the recycled pool still replays bitwise-correctly.
  dag.clear();
  auto final_batch = nc.submit_batch(*plan, kMaxBatch);
  final_batch.wait_all();
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    EXPECT_EQ(final_batch.status(i).state, ExecStatus::kCompleted) << i;
    EXPECT_EQ(final_batch.nodes_computed(i), dag.n) << i;
  }
  EXPECT_EQ(dag.checksum(), expected) << "replay after batch cancels diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBatch8, ::testing::Range(0, 8));

}  // namespace
}  // namespace nabbitc::api
