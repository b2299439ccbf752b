// Dynamic (on-demand) task graph execution — Nabbit and NabbitC.
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
// Options::colored picks the spawn shape, and with it the variant. NabbitC
// spawns predecessors and ready successors with the morphing continuations
// of nabbitc/spawn_colors.h, advertising color masks to thieves; vanilla
// Nabbit spawns them in list order with no color advertisement
// (nabbit/spawn_halved.h). The dependence protocol is the same for both, so
// NabbitC changes only spawn *order* and *steal visibility*, exactly as the
// paper prescribes. Compiled-plan replay makes the same choice from
// plan::CompileOptions::colored.
#pragma once

#include <atomic>
#include <cstdint>

#include "nabbit/concurrent_map.h"
#include "nabbit/graph_spec.h"
#include "nabbit/node.h"
#include "rt/scheduler.h"

namespace nabbitc::nabbit {

class DynamicExecutor : public NodeLookup {
 public:
  struct Options {
    /// NabbitC semantics: color-grouped morphing-continuation spawns with
    /// advertised color masks. False = vanilla Nabbit list-order spawning.
    /// api::Runtime::submit derives this from the runtime's variant.
    bool colored = true;
    /// The owning root job, whose cancel word and deadline stop this
    /// execution; null = never cancelled. Checked once per node dispatch
    /// (RootJob::should_skip: one atomic load, plus one clock read when a
    /// deadline is armed). Once the job is cancelled, not-yet-started nodes
    /// are skipped: their compute() never runs, but successor notification
    /// still drains so every spawn syncs and the root returns promptly.
    rt::Scheduler::RootJob* job = nullptr;
  };

  DynamicExecutor(GraphSpec& spec, Options opts);

  DynamicExecutor(const DynamicExecutor&) = delete;
  DynamicExecutor& operator=(const DynamicExecutor&) = delete;

  /// Executes the task graph rooted (sunk) at `sink_key` on a root already
  /// adopted by a worker: inserts the sink and drives the dependence
  /// protocol to completion. This is what api::Runtime submits, so that
  /// many executions — each with its own executor, node map and arenas —
  /// can share one scheduler concurrently. Every spawn is synced before
  /// returning, so on return the sink (and all transitive predecessors) are
  /// computed; aborts if not (cycle).
  void run_root(rt::Worker& w, Key sink_key);

  TaskGraphNode* find(Key key) const override { return map_.find(key); }

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

  /// True once this execution's job was cancelled — by a client, or by a
  /// node dispatch that found the deadline passed (should_skip sets the
  /// word before skipping anything). Monotone for the duration of one run,
  /// which is what makes the skip protocol safe: a non-skipped node can
  /// never observe a skipped predecessor (the predecessor's skip
  /// happened-before our dispatch check). Discovery reads only this word.
  bool cancel_requested() const noexcept {
    return opts_.job != nullptr && opts_.job->cancel_requested();
  }

 private:
  /// One predecessor to explore, with its color precomputed from the spec.
  struct PredItem {
    Key key;
    numa::Color color;
  };
  struct PredLeaf;
  struct ReadyLeaf;

  TaskGraphNode* create_node(NodeArena& arena, Key key);
  /// Atomically create-or-get the predecessor `pred_key`, park one of
  /// `parent`'s edge tokens on its successor list (or drop it), and, on the
  /// creating thread, initialize it (SectionII, actions 1-2).
  void try_init_compute(rt::Worker& w, TaskGraphNode* parent, Key pred_key);
  /// init() + predecessor exploration, without waiting for it.
  void init_node_and_compute(rt::Worker& w, TaskGraphNode* u);
  /// compute() + successor notification (SectionII, action 3).
  void compute_and_notify(rt::Worker& w, TaskGraphNode* u);
  void release_token(rt::Worker& w, TaskGraphNode* u);
  /// Spawns exploration of `parent`'s predecessors (leaf: try_init_compute).
  void spawn_preds(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode* parent,
                   PredItem* items, std::size_t n);
  /// Spawns execution of newly ready successors (leaf: compute_and_notify).
  void spawn_ready(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode** ready,
                   std::size_t n);

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
