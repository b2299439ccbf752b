// Experiment driver shared by the bench binaries.
//
// Runs (workload x scheduler-variant x worker-count) cells with repeats,
// returning wall-clock samples plus scheduler counters, and provides the
// simulator-side equivalents used to regenerate the paper's 80-core curves.
//
// Scheduler variants are the single api::Variant (api/variant.h); the
// task-graph variants execute on one persistent nabbitc::Runtime per
// run_real call — constructed once, reused across every repeat.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/nabbitc.h"
#include "sim/sim_engine.h"
#include "support/config.h"
#include "support/stats.h"
#include "trace/collector.h"
#include "workloads/workload.h"

namespace nabbitc::harness {

using api::Variant;

struct RealRunResult {
  Samples seconds;
  std::uint64_t checksum = 0;
  rt::WorkerCounters counters;  // summed over repeats (task-graph variants)
  /// Merged event trace over all repeats; empty unless options.trace.enabled
  /// and the variant runs on the task-graph scheduler.
  trace::Trace trace;
};

struct RealRunOptions {
  std::uint32_t workers = 1;
  std::uint32_t repeats = 3;
  nabbit::ColoringMode coloring = nabbit::ColoringMode::kGood;
  bool pin_threads = false;
  numa::Topology topology = numa::Topology::host();
  /// Event tracing for the kNabbit / kNabbitC variants (see src/trace/).
  trace::TraceConfig trace{};
};

/// Runs `workload` under `variant` on real threads; workload must outlive
/// the call. prepare() is called internally.
/// Task-graph variants share one Runtime across all repeats; per-repeat
/// counters are accumulated into the result and the harness asserts the
/// counter reset between repeats leaves the pool clean.
RealRunResult run_real(wl::Workload& workload, Variant variant,
                       const RealRunOptions& opts);

struct SimSweepOptions {
  numa::Topology topology = numa::Topology::paper();
  numa::PenaltyModel penalty{};
  nabbit::ColoringMode coloring = nabbit::ColoringMode::kGood;
  std::uint64_t seed = 0x5eed;
};

/// Simulates one (workload, variant, P) cell on the virtual machine, over
/// wl::simulated_dag (no prepare() needed).
sim::SimResult run_sim(wl::Workload& workload, Variant variant,
                       std::uint32_t workers, const SimSweepOptions& opts);

/// Default processor-count sweep matching the paper's x-axes.
std::vector<std::uint32_t> paper_core_counts();

}  // namespace nabbitc::harness
