// Remote-access cost model.
//
// On the paper's machine remote DRAM accesses cost ~2x local ones. Without
// NUMA hardware we (a) account remote node executions exactly as the paper's
// SectionV-B metric, and (b) optionally model their cost: the simulator
// multiplies a node's work by `remote_factor`, and the real runtime can
// inject a proportional delay so locality effects are visible on UMA hosts.
#pragma once

#include <cstdint>

namespace nabbitc::numa {

struct PenaltyModel {
  /// Multiplier on a node's work when executed color-remote. The paper's
  /// Xeon E7 inter-socket latency ratio is roughly 1.7-2.2x for
  /// memory-bound code; 2.0 is our default.
  double remote_factor = 2.0;
  /// Per-steal overhead in cost units (simulator only).
  double steal_cost = 1.0;
  /// Per-edge dependence-check overhead in cost units (simulator only).
  double edge_cost = 0.05;

  double node_cost(double work, bool remote) const noexcept {
    return remote ? work * remote_factor : work;
  }
};

/// Counters for the paper's node-granularity locality metric (SectionV-B):
/// executed nodes whose color is outside the worker's NUMA domain, plus
/// predecessor accesses whose color is outside the worker's NUMA domain.
struct LocalityCounters {
  std::uint64_t nodes = 0;
  std::uint64_t remote_nodes = 0;
  std::uint64_t pred_accesses = 0;
  std::uint64_t remote_pred_accesses = 0;

  void merge(const LocalityCounters& o) noexcept {
    nodes += o.nodes;
    remote_nodes += o.remote_nodes;
    pred_accesses += o.pred_accesses;
    remote_pred_accesses += o.remote_pred_accesses;
  }

  std::uint64_t total_accesses() const noexcept { return nodes + pred_accesses; }
  std::uint64_t remote_accesses() const noexcept {
    return remote_nodes + remote_pred_accesses;
  }
  /// Percentage of accesses that are remote (0 if nothing counted).
  double percent_remote() const noexcept;
};

/// Busy-delay used by the real runtime to emulate remote latency on UMA
/// hosts: spins for roughly `ns` nanoseconds. No-op when ns == 0.
void busy_delay_ns(std::uint64_t ns) noexcept;

}  // namespace nabbitc::numa
