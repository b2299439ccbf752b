// Explicit task DAG with per-node costs and colors.
//
// The exchange format between workloads and the discrete-event simulator:
// wl::simulated_dag builds one from a workload's compiled task graph
// (nodes = tasks, work = abstract cost units proportional to the task's
// memory traffic, color = where its data lives, hint = the user's locality
// hint), and the simulator replays the scheduling policies over it at any
// machine size.
#pragma once

#include <cstdint>
#include <vector>

#include "numa/topology.h"
#include "support/check.h"

namespace nabbitc::sim {

using NodeId = std::uint32_t;

struct DagNode {
  double work = 1.0;
  /// Where the node's data actually lives (drives cost + locality metric).
  numa::Color color = 0;
  /// The user-provided scheduling hint (drives morphing + colored steals).
  /// Equals `color` under a good coloring; differs under Table II/III's bad
  /// and invalid colorings — which break the *hint*, never the data.
  numa::Color hint = 0;
};

class TaskDag {
 public:
  NodeId add_node(double work, numa::Color color) {
    return add_node(work, color, color);
  }

  NodeId add_node(double work, numa::Color color, numa::Color hint) {
    nodes_.push_back(DagNode{work, color, hint});
    preds_.emplace_back();
    succs_.emplace_back();
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  /// Declares that `succ` depends on `pred`. Duplicate edges are the
  /// caller's responsibility to avoid (they would double-count joins).
  void add_edge(NodeId pred, NodeId succ) {
    NABBITC_DCHECK(pred < nodes_.size() && succ < nodes_.size());
    preds_[succ].push_back(pred);
    succs_[pred].push_back(succ);
  }

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_edges() const noexcept {
    std::size_t e = 0;
    for (const auto& p : preds_) e += p.size();
    return e;
  }

  const DagNode& node(NodeId id) const noexcept { return nodes_[id]; }
  DagNode& node(NodeId id) noexcept { return nodes_[id]; }
  const std::vector<NodeId>& preds(NodeId id) const noexcept { return preds_[id]; }
  const std::vector<NodeId>& succs(NodeId id) const noexcept { return succs_[id]; }

  /// T1: total work.
  double total_work() const noexcept {
    double t = 0;
    for (const auto& n : nodes_) t += n.work;
    return t;
  }

  /// Tinf: critical path (work along the heaviest dependence chain).
  /// Requires acyclicity; O(V + E).
  double critical_path() const;

  /// Longest path in node count (the paper's M).
  std::size_t longest_chain() const;

  /// True iff the dependence relation is acyclic.
  bool is_acyclic() const;

  /// Kahn topological order; CHECKs acyclicity.
  std::vector<NodeId> topo_order() const;

  /// Rewrites every node's scheduling *hint* through fn (for bad/invalid
  /// colorings); the data location is immutable.
  template <typename Fn>
  void recolor_hints(Fn&& fn) {
    for (auto& n : nodes_) n.hint = fn(n.hint);
  }

 private:
  std::vector<DagNode> nodes_;
  std::vector<std::vector<NodeId>> preds_;
  std::vector<std::vector<NodeId>> succs_;
};

}  // namespace nabbitc::sim
