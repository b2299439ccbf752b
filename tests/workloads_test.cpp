// Workload correctness: every benchmark must produce bitwise-identical
// checksums across serial, OpenMP-style, Nabbit, and NabbitC execution —
// under every coloring mode — plus structural DAG invariants.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "workloads/digest.h"
#include "workloads/workload.h"

namespace nabbitc::wl {
namespace {

using harness::RealRunOptions;
using harness::run_real;
using harness::Variant;

RealRunOptions opts4() {
  RealRunOptions o;
  o.workers = 4;
  o.repeats = 1;
  o.topology = numa::Topology(2, 2);
  return o;
}

// ------------------------------------------------------------------ digest

TEST(Digest, DeterministicAndSensitive) {
  Digest a, b;
  a.add_double(1.5);
  b.add_double(1.5);
  EXPECT_EQ(a.value(), b.value());
  b.add_double(2.5);
  EXPECT_NE(a.value(), b.value());
}

TEST(Digest, DistinguishesZeroSigns) {
  Digest a, b;
  a.add_double(0.0);
  b.add_double(-0.0);
  EXPECT_NE(a.value(), b.value());  // bitwise, not value, comparison
}

TEST(Digest, VectorEqualsSpan) {
  std::vector<std::int32_t> v{1, 2, 3};
  Digest a, b;
  a.add_vector(v);
  b.add_span(v.data(), v.size());
  EXPECT_EQ(a.value(), b.value());
}

// ---------------------------------------------------------------- registry

TEST(Registry, AllTenBenchmarksExist) {
  auto names = workload_names();
  EXPECT_EQ(names.size(), 10u);
  for (const auto& n : names) {
    auto w = make_workload(n, SizePreset::kTiny);
    ASSERT_NE(w, nullptr) << n;
    EXPECT_EQ(w->name(), n);
    EXPECT_GT(w->num_tasks(), 0u);
    EXPECT_GE(w->iterations(), 1u);
    EXPECT_FALSE(w->problem_string().empty());
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_workload("nope", SizePreset::kTiny), nullptr);
}

TEST(Registry, PresetRoundTrip) {
  EXPECT_EQ(preset_from_string("tiny"), SizePreset::kTiny);
  EXPECT_EQ(preset_from_string("small"), SizePreset::kSmall);
  EXPECT_EQ(preset_from_string("medium"), SizePreset::kMedium);
  EXPECT_EQ(preset_from_string("paper"), SizePreset::kPaper);
  EXPECT_STREQ(preset_name(SizePreset::kTiny), "tiny");
  EXPECT_STREQ(preset_name(SizePreset::kPaper), "paper");
}

// --------------------------------------------- cross-variant determinism

class WorkloadVariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadVariantTest, AllVariantsMatchSerialChecksum) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  ASSERT_NE(w, nullptr);
  auto o = opts4();
  const auto serial = run_real(*w, Variant::kSerial, o);
  for (Variant v : {Variant::kOmpStatic, Variant::kOmpGuided, Variant::kNabbit,
                    Variant::kNabbitC}) {
    auto r = run_real(*w, v, o);
    EXPECT_EQ(r.checksum, serial.checksum) << api::variant_name(v);
  }
}

TEST_P(WorkloadVariantTest, BadAndInvalidColoringsPreserveResults) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  ASSERT_NE(w, nullptr);
  auto o = opts4();
  const auto serial = run_real(*w, Variant::kSerial, o);
  for (auto mode : {nabbit::ColoringMode::kBad, nabbit::ColoringMode::kInvalid}) {
    auto oc = o;
    oc.coloring = mode;
    auto r = run_real(*w, Variant::kNabbitC, oc);
    EXPECT_EQ(r.checksum, serial.checksum) << nabbit::coloring_name(mode);
  }
}

TEST_P(WorkloadVariantTest, ResetRestoresInitialState) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  w->prepare(2);
  w->run_serial();
  auto first = w->checksum();
  w->reset();
  w->run_serial();
  EXPECT_EQ(w->checksum(), first);
}

TEST_P(WorkloadVariantTest, DagIsAcyclicWithMatchingShape) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  for (std::uint32_t colors : {1u, 4u, 8u}) {
    sim::TaskDag dag = simulated_dag(*w, colors, nabbit::ColoringMode::kGood);
    EXPECT_TRUE(dag.is_acyclic());
    EXPECT_GT(dag.num_nodes(), 0u);
    EXPECT_GT(dag.total_work(), 0.0);
    // Every color must be valid for `colors` workers.
    for (sim::NodeId v = 0; v < dag.num_nodes(); ++v) {
      EXPECT_GE(dag.node(v).color, 0);
      EXPECT_LT(dag.node(v).color, static_cast<numa::Color>(colors));
    }
  }
}

TEST_P(WorkloadVariantTest, InvalidColoringDagBreaksOnlyHints) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  sim::TaskDag dag = simulated_dag(*w, 4, nabbit::ColoringMode::kInvalid);
  for (sim::NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(dag.node(v).hint, numa::kInvalidColor);
    EXPECT_GE(dag.node(v).color, 0);  // data placement stays correct
    EXPECT_LT(dag.node(v).color, 4);
  }
}

TEST_P(WorkloadVariantTest, SimCompletesAndRespectsWorkBound) {
  auto w = make_workload(GetParam(), SizePreset::kTiny);
  harness::SimSweepOptions so;
  auto r = harness::run_sim(*w, Variant::kNabbitC, 8, so);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GE(r.makespan, r.serial_time / 8.0 - 1e-6);  // Brent lower bound
  auto rl = harness::run_sim(*w, Variant::kOmpStatic, 8, so);
  EXPECT_GT(rl.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadVariantTest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ------------------------------------------------------- workload details

TEST(Stencil, TaskCountMatchesFormula) {
  auto w = make_workload("heat", SizePreset::kTiny);
  // tiny: 192 rows / 32-row blocks = 6 blocks, 3 iterations, + sink.
  EXPECT_EQ(w->num_tasks(), 6u * 3u + 1u);
}

TEST(Stencil, DifferentKernelsDifferentChecksums) {
  auto heat = make_workload("heat", SizePreset::kTiny);
  auto life = make_workload("life", SizePreset::kTiny);
  auto fdtd = make_workload("fdtd", SizePreset::kTiny);
  heat->prepare(2);
  life->prepare(2);
  fdtd->prepare(2);
  heat->run_serial();
  life->run_serial();
  fdtd->run_serial();
  EXPECT_NE(heat->checksum(), life->checksum());
  EXPECT_NE(heat->checksum(), fdtd->checksum());
}

TEST(Stencil, WorkerCountDoesNotChangeResult) {
  for (std::uint32_t workers : {1u, 2u, 8u}) {
    auto w = make_workload("heat", SizePreset::kTiny);
    RealRunOptions o;
    o.workers = workers;
    o.repeats = 1;
    o.topology = numa::Topology(2, (workers + 1) / 2);
    auto serial = run_real(*w, Variant::kSerial, o);
    auto nbc = run_real(*w, Variant::kNabbitC, o);
    EXPECT_EQ(serial.checksum, nbc.checksum) << workers;
  }
}

TEST(PageRank, TwitterIsMoreSkewedThanUk) {
  auto uk = make_workload("page-uk-2002", SizePreset::kTiny);
  auto tw = make_workload("page-twitter-2010", SizePreset::kTiny);
  // Skew shows up as spread in per-node DAG work.
  auto spread = [](const sim::TaskDag& d) {
    double mx = 0, total = 0;
    for (sim::NodeId v = 0; v < d.num_nodes(); ++v) {
      mx = std::max(mx, d.node(v).work);
      total += d.node(v).work;
    }
    return mx / (total / static_cast<double>(d.num_nodes()));
  };
  auto duk = simulated_dag(*uk, 4, nabbit::ColoringMode::kGood);
  auto dtw = simulated_dag(*tw, 4, nabbit::ColoringMode::kGood);
  EXPECT_GT(spread(dtw), spread(duk));
}

TEST(PageRank, RanksSumToRoughlyOne) {
  // The power method without dangling redistribution keeps the rank mass
  // near 1 for the low-dangling windowed graphs.
  auto w = make_workload("page-uk-2002", SizePreset::kTiny);
  w->prepare(1);
  w->run_serial();
  EXPECT_GT(w->checksum(), 0u);  // sanity: something was produced
}

TEST(SmithWaterman, CubicAndAffineDiffer) {
  auto sw = make_workload("sw", SizePreset::kTiny);
  auto swn2 = make_workload("swn2", SizePreset::kTiny);
  sw->prepare(2);
  swn2->prepare(2);
  sw->run_serial();
  swn2->run_serial();
  EXPECT_NE(sw->checksum(), swn2->checksum());
}

TEST(Cg, TaskCountNearPaperScale) {
  auto w = make_workload("cg", SizePreset::kSmall);
  // Paper's cg has ~300 nodes; our small preset must be the same order.
  EXPECT_GT(w->num_tasks(), 200u);
  EXPECT_LT(w->num_tasks(), 500u);
}

TEST(PaperPreset, DagShapesMatchTableOne) {
  // Simulator-only paper presets reproduce Table I's node counts.
  auto heat = make_workload("heat", SizePreset::kPaper);
  EXPECT_EQ(heat->num_tasks(), 102400u + 1u);
  auto sw = make_workload("sw", SizePreset::kPaper);
  EXPECT_EQ(sw->num_tasks(), 25600u);
  auto swn2 = make_workload("swn2", SizePreset::kPaper);
  EXPECT_EQ(swn2->num_tasks(), 16384u);
}

TEST(PaperPreset, MgSimulatesWithoutPrepare) {
  // mg is simulator-only at kPaper: its graph must build without prepare().
  auto mg = make_workload("mg", SizePreset::kPaper);
  sim::TaskDag dag = simulated_dag(*mg, 80, nabbit::ColoringMode::kGood);
  EXPECT_TRUE(dag.is_acyclic());
  EXPECT_EQ(dag.num_nodes(), mg->num_tasks());
}

TEST(PaperPresetDeath, StencilPrepareRefusesPaperScale) {
  auto w = make_workload("heat", SizePreset::kPaper);
  EXPECT_DEATH(w->prepare(4), "simulator-only");
}

}  // namespace
}  // namespace nabbitc::wl
