// Task-graph node base class (the paper's DynamicNabbitNode, Figure 2).
//
// Users subclass TaskGraphNode, declare predecessors by key inside init(),
// and do the node's work in compute(). The node's color comes from the
// user's key->color function on the graph spec (Figure 2's `color(Key)`),
// not from the node instance, so the scheduler can color work *before* the
// node exists.
//
// Hot-path invariant: executing a typical node (<= kInlinePreds
// predecessors) performs zero heap allocations. Predecessor keys live in an
// inline SmallVec, successor-list edges use the cells embedded below (arena
// overflow beyond that), and the node object itself is placement-
// constructed into the owning ConcurrentNodeMap's slab.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "nabbit/successor_list.h"
#include "nabbit/types.h"
#include "numa/topology.h"
#include "rt/arena.h"
#include "support/check.h"
#include "support/small_vec.h"

namespace nabbitc::rt {
class Worker;
}
namespace nabbitc::plan {
class PlanInstance;
}

namespace nabbitc::nabbit {

class TaskGraphNode;

/// Read-only view into an executor's node map.
class NodeLookup {
 public:
  virtual TaskGraphNode* find(Key key) const = 0;

 protected:
  ~NodeLookup() = default;
};

/// Context handed to init()/compute(): the executing worker (null when
/// running under the serial executor) plus lookups into the node map for
/// reading predecessor results.
class ExecContext {
 public:
  ExecContext(rt::Worker* worker, const NodeLookup& lookup) noexcept
      : worker_(worker), lookup_(lookup) {}

  /// The executing worker; only valid under a parallel executor.
  rt::Worker& worker() const noexcept {
    NABBITC_DCHECK(worker_ != nullptr);
    return *worker_;
  }
  bool has_worker() const noexcept { return worker_ != nullptr; }

  TaskGraphNode* find(Key key) const { return lookup_.find(key); }

 private:
  rt::Worker* worker_;
  const NodeLookup& lookup_;
};

class TaskGraphNode {
 public:
  /// Predecessor count (and successor-edge cell count) kept inline in the
  /// node. 4 covers the paper's stencil workloads (<= 4 preds per node).
  static constexpr std::size_t kInlinePreds = 4;
  static constexpr std::size_t kInlineSuccessorCells = kInlinePreds;

  virtual ~TaskGraphNode() = default;

  /// Declares predecessors (via add_predecessor) and any node-local setup.
  /// Called exactly once, by the thread that won this node's creation.
  virtual void init(ExecContext& ctx) = 0;

  /// The node's work. Called exactly once, after all predecessors computed.
  virtual void compute(ExecContext& ctx) = 0;

  Key key() const noexcept { return key_; }
  numa::Color color() const noexcept { return color_; }
  NodeStatus status() const noexcept {
    return status_.load(std::memory_order_acquire);
  }
  bool computed() const noexcept { return status() == NodeStatus::kComputed; }

  std::span<const Key> predecessors() const noexcept {
    return {preds_.data(), preds_.size()};
  }

 protected:
  /// Only valid inside init().
  void add_predecessor(Key k) { preds_.push_back(k); }

 private:
  friend class DynamicExecutor;
  friend class SerialExecutor;
  // The compiled-plan replay path (src/plan/) drives nodes through frozen
  // CSR arrays instead of the concurrent map, but sets the same key/color/
  // status fields a fresh execution would.
  friend class ::nabbitc::plan::PlanInstance;

  /// Hands out one successor-edge cell. A node consumes at most one cell
  /// per predecessor (try_add happens once per pending edge), so the inline
  /// pool covers every node with <= kInlineSuccessorCells preds; beyond
  /// that, cells come from the worker's job arena. Callers race from the
  /// parallel predecessor-exploration tasks, hence the atomic cursor.
  SuccessorCell* acquire_successor_cell(rt::JobArena& arena) {
    const std::uint32_t i =
        succ_cells_used_.fetch_add(1, std::memory_order_relaxed);
    if (i < kInlineSuccessorCells) return &succ_cells_[i];
    return arena.create<SuccessorCell>();
  }

  Key key_ = 0;
  numa::Color color_ = 0;
  SmallVec<Key, kInlinePreds> preds_;
  /// Outstanding join tokens (see nabbit/executor.h).
  std::atomic<std::int64_t> join_{1};
  std::atomic<NodeStatus> status_{NodeStatus::kUnvisited};
  SuccessorList successors_;
  std::atomic<std::uint32_t> succ_cells_used_{0};
  SuccessorCell succ_cells_[kInlineSuccessorCells];
};

}  // namespace nabbitc::nabbit
