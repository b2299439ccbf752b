// Dynamic (on-demand) task graph execution — the Nabbit algorithm.
//
// The executor walks the graph backwards from the sink key, creating nodes
// on demand through a concurrent map, exploring predecessors in parallel,
// and notifying successors as nodes complete (SectionII of the paper;
// protocol from Agrawal, Leiserson, Sukha, IPDPS'10).
//
// A node's join counts tokens: one at birth, traded at init for one per
// predecessor edge. An edge's token parks on the predecessor's successor
// list (or drops if it already completed) and drops when it completes; the
// thread dropping the last token computes the node. Explorations join one
// job-level group that run_root waits on once, so nothing else waits and a
// node fires as soon as its last predecessor completes.
//
// Locality-aware spawning is a pair of virtual hooks (spawn_preds /
// spawn_ready) so that NabbitC (nabbitc/colored_executor.h) can override the
// spawn *order* and advertised color masks without touching the dependence
// protocol. The base class implements vanilla Nabbit: list-order spawning
// with no color advertisement.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "nabbit/concurrent_map.h"
#include "nabbit/graph_spec.h"
#include "nabbit/node.h"
#include "rt/scheduler.h"

namespace nabbitc::nabbit {

class DynamicExecutor : public NodeLookup {
 public:
  struct Options {
    /// Record the paper's SectionV-B locality metric while executing.
    bool count_locality = true;
    /// Cooperative-cancellation token — the owning RootJob's cancel word
    /// (rt::Scheduler::RootJob::cancel); null = never cancelled. Polled
    /// once per node dispatch (one atomic load, no clock). Once set,
    /// not-yet-started nodes are skipped: their compute() never runs, but
    /// successor notification still drains so every spawn syncs and the
    /// root returns promptly.
    const std::atomic<std::uint8_t>* cancel = nullptr;
  };

  /// One predecessor to explore, with its color precomputed from the spec.
  struct PredItem {
    Key key;
    numa::Color color;
  };

  DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec, Options opts);
  DynamicExecutor(rt::Scheduler& sched, GraphSpec& spec);
  virtual ~DynamicExecutor() = default;

  DynamicExecutor(const DynamicExecutor&) = delete;
  DynamicExecutor& operator=(const DynamicExecutor&) = delete;

  /// Executes the task graph rooted (sunk) at `sink_key`; returns when the
  /// sink and therefore all its transitive predecessors have been computed.
  /// Synchronous convenience over run_root: must not be called from a
  /// worker thread.
  void run(Key sink_key);

  /// The body of run() for a root already adopted by a worker: inserts the
  /// sink and drives the dependence protocol to completion. This is what
  /// api::Runtime submits, so that many executions — each with its own
  /// executor, node map and arenas — can share one scheduler concurrently.
  /// Every spawn is synced before returning, so on return the sink (and
  /// all transitive predecessors) are computed; aborts if not (cycle).
  void run_root(rt::Worker& w, Key sink_key);

  TaskGraphNode* find(Key key) const override { return map_.find(key); }
  rt::Scheduler& scheduler() noexcept { return sched_; }
  GraphSpec& spec() noexcept { return spec_; }

  std::uint64_t nodes_created() const noexcept {
    return nodes_created_.load(std::memory_order_relaxed);
  }
  std::uint64_t nodes_computed() const noexcept {
    return nodes_computed_.load(std::memory_order_relaxed);
  }
  /// Nodes whose compute() was skipped by cooperative cancellation. Nodes
  /// never even created (discovery cut short) are not counted — they were
  /// skipped before they existed.
  std::uint64_t nodes_skipped() const noexcept {
    return nodes_skipped_.load(std::memory_order_relaxed);
  }

  /// True once this execution's cancellation token fired. Monotone for the
  /// duration of one run, which is what makes the skip protocol safe: a
  /// non-skipped node can never observe a skipped predecessor (the
  /// predecessor's skip happened-before our dispatch check).
  bool cancel_requested() const noexcept {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_acquire) != 0;
  }

  // --- Protocol building blocks ------------------------------------------
  // Exposed for the colored subclass's spawn leaves and for white-box
  // tests; not user entry points.
  /// Atomically create-or-get the predecessor `pred_key`, park one of
  /// `parent`'s edge tokens on its successor list (or drop it), and, on the
  /// creating thread, initialize it (SectionII, actions 1-2).
  void try_init_compute(rt::Worker& w, TaskGraphNode* parent, Key pred_key);
  /// init() + predecessor exploration, without waiting for it.
  void init_node_and_compute(rt::Worker& w, TaskGraphNode* u);
  /// compute() + successor notification (SectionII, action 3).
  void compute_and_notify(rt::Worker& w, TaskGraphNode* u);

 protected:
  // --- Locality-aware hooks (overridden by ColoredDynamicExecutor) ------
  /// Spawns exploration of `parent`'s predecessors (leaf: try_init_compute).
  virtual void spawn_preds(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode* parent,
                           PredItem* items, std::size_t n);
  /// Spawns execution of newly ready successors (leaf: compute_and_notify).
  virtual void spawn_ready(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode** ready,
                           std::size_t n);

 private:
  TaskGraphNode* create_node(NodeArena& arena, Key key);
  void release_token(rt::Worker& w, TaskGraphNode* u);

  rt::Scheduler& sched_;
  GraphSpec& spec_;
  Options opts_;
  ConcurrentNodeMap map_;
  /// Every exploration frame of the job; run_root waits on it once.
  rt::TaskGroup explore_;
  std::atomic<std::uint64_t> nodes_created_{0};
  std::atomic<std::uint64_t> nodes_computed_{0};
  std::atomic<std::uint64_t> nodes_skipped_{0};
};

}  // namespace nabbitc::nabbit
