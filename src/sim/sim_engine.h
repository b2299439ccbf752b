// Discrete-event simulation of the NabbitC scheduling policies.
//
// Replays a TaskDag over a virtual machine of P workers on a NUMA topology,
// executing the *same* policies as the real runtime (rt/):
//
//   * morphing-continuation spawn order — when a batch of nodes becomes
//     ready, the color-group list is recursively halved; the executing
//     worker keeps the half containing its color and pushes the other half
//     as one stealable deque entry carrying that half's color mask (exactly
//     Figure 3 of the paper, at ready-batch granularity);
//   * colored steals — a thief checks the victim's oldest entry's mask,
//     k colored attempts then one random attempt, with the forced (bounded)
//     first colored steal;
//   * cost model — executing a node costs work * remote_factor when the
//     node's color lives in a different NUMA domain than the worker, plus a
//     per-dependence check overhead; every steal attempt costs steal_cost.
//
// This is the substitution for the paper's 80-core machine (see README,
// "Paper mapping"): speedup curves, remote-access percentages, steal
// counts, and first-steal wait times at any P come from here.
//
// simulate_loop() models the OpenMP baselines on the same DAG: barrier-
// synchronized topological levels with static / dynamic / guided chunking.
#pragma once

#include <cstdint>

#include "loop/loop_schedule.h"
#include "numa/penalty.h"
#include "numa/topology.h"
#include "rt/steal_policy.h"
#include "sim/task_dag.h"

namespace nabbitc::sim {

struct SimConfig {
  std::uint32_t num_workers = 8;
  numa::Topology topology = numa::Topology::paper();
  rt::StealPolicy steal = rt::StealPolicy::nabbitc();
  numa::PenaltyModel penalty{};
  std::uint64_t seed = 0x5eed;
};

struct SimResult {
  double makespan = 0.0;
  double serial_time = 0.0;  // total work at local cost

  std::uint64_t steals_colored = 0;
  std::uint64_t steals_random = 0;
  std::uint64_t attempts_colored = 0;
  std::uint64_t attempts_random = 0;

  numa::LocalityCounters locality;

  /// Mean over workers of the time between simulation start and the
  /// worker's first acquired work (Figure 9's quantity). Worker 0 (which
  /// starts with the roots) contributes 0.
  double avg_first_steal_wait = 0.0;
  /// Mean over workers of total time spent without work.
  double avg_idle_time = 0.0;

  double speedup() const noexcept {
    return makespan > 0.0 ? serial_time / makespan : 0.0;
  }
  double steals_total() const noexcept {
    return static_cast<double>(steals_colored + steals_random);
  }
  double avg_steals_per_worker(std::uint32_t workers) const noexcept {
    return workers > 0 ? steals_total() / workers : 0.0;
  }
};

/// Work-stealing simulation (Nabbit when cfg.steal.colored_enabled == false,
/// NabbitC otherwise).
SimResult simulate(const TaskDag& dag, const SimConfig& cfg);

/// OpenMP-baseline simulation: the DAG's topological levels run as
/// barrier-separated parallel loops under the given schedule. Static assigns
/// contiguous per-level slices (index-balanced, like OpenMP), dynamic/guided
/// grab chunks in earliest-available-thread order.
SimResult simulate_loop(const TaskDag& dag, const SimConfig& cfg,
                        loop::Schedule schedule, std::int64_t chunk = 1);

}  // namespace nabbitc::sim
