#include "workloads/workload.h"

#include <algorithm>
#include <numeric>

#include "plan/plan.h"
#include "support/check.h"
#include "workloads/cg.h"
#include "workloads/mg.h"
#include "workloads/pagerank.h"
#include "workloads/smith_waterman.h"
#include "workloads/stencils.h"

namespace nabbitc::wl {

void Workload::run_taskgraph(api::Runtime& rt, nabbit::ColoringMode coloring) {
  auto spec = make_taskgraph_spec(rt.workers(), coloring);
  rt.run(*spec, taskgraph_sink());
}

sim::TaskDag simulated_dag(Workload& w, std::uint32_t num_colors,
                           nabbit::ColoringMode coloring) {
  auto spec = w.make_taskgraph_spec(num_colors, coloring);
  const auto plan = plan::compile(*spec, w.taskgraph_sink());
  const plan::FrozenPlan& f = plan->frozen();

  // Keys encode each workload's iteration-major order, so ascending keys
  // number the nodes independently of the compiler's discovery order.
  std::vector<std::uint32_t> order(f.n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&f](std::uint32_t a, std::uint32_t b) { return f.keys[a] < f.keys[b]; });
  std::vector<sim::NodeId> id(f.n);
  for (std::uint32_t v = 0; v < f.n; ++v) id[order[v]] = v;

  sim::TaskDag dag;
  for (const std::uint32_t i : order) {
    dag.add_node(w.node_cost(f.keys[i]), f.data_colors[i], f.colors[i]);
  }
  for (const std::uint32_t i : order) {
    for (const std::uint32_t p : plan->predecessors(i)) dag.add_edge(id[p], id[i]);
  }
  return dag;
}

SizePreset preset_from_string(const std::string& s) {
  if (s == "tiny") return SizePreset::kTiny;
  if (s == "small") return SizePreset::kSmall;
  if (s == "medium") return SizePreset::kMedium;
  if (s == "paper") return SizePreset::kPaper;
  NABBITC_CHECK_MSG(false, "unknown preset (want tiny|small|medium|paper)");
  return SizePreset::kSmall;
}

const char* preset_name(SizePreset p) noexcept {
  switch (p) {
    case SizePreset::kTiny:
      return "tiny";
    case SizePreset::kSmall:
      return "small";
    case SizePreset::kMedium:
      return "medium";
    case SizePreset::kPaper:
      return "paper";
  }
  return "?";
}

std::vector<std::string> workload_names() {
  return {"cg",           "mg",   "heat",
          "fdtd",         "life", "page-uk-2002",
          "page-twitter-2010", "page-uk-2007-05", "sw",
          "swn2"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, SizePreset preset) {
  if (name == "cg") return make_cg(preset);
  if (name == "mg") return make_mg(preset);
  if (name == "heat") return make_heat(preset);
  if (name == "fdtd") return make_fdtd(preset);
  if (name == "life") return make_life(preset);
  if (name == "page-uk-2002") return make_pagerank(PageRankDataset::kUk2002, preset);
  if (name == "page-twitter-2010") {
    return make_pagerank(PageRankDataset::kTwitter2010, preset);
  }
  if (name == "page-uk-2007-05") {
    return make_pagerank(PageRankDataset::kUk200705, preset);
  }
  if (name == "sw") return make_sw(preset);
  if (name == "swn2") return make_swn2(preset);
  return nullptr;
}

}  // namespace nabbitc::wl
