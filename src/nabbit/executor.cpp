#include "nabbit/executor.h"

#include "nabbit/spawn_halved.h"
#include "nabbitc/spawn_colors.h"
#include "support/check.h"

namespace nabbitc::nabbit {

DynamicExecutor::DynamicExecutor(GraphSpec& spec, Options opts)
    : spec_(spec), opts_(opts), map_(spec.expected_nodes()) {}

TaskGraphNode* DynamicExecutor::create_node(NodeArena& arena, Key key) {
  TaskGraphNode* n = spec_.create(arena, key);
  n->key_ = key;
  n->color_ = spec_.color_of(key);
  n->status_.store(NodeStatus::kVisited, std::memory_order_relaxed);
  nodes_created_.fetch_add(1, std::memory_order_relaxed);
  return n;
}

void DynamicExecutor::run_root(rt::Worker& w, Key sink_key) {
  auto [node, created] = map_.insert_or_get(
      sink_key, [this](NodeArena& a, Key k) { return create_node(a, k); });
  if (created) init_node_and_compute(w, node);
  explore_.wait(w);
  NABBITC_CHECK_MSG(node->computed() || cancel_requested(),
                    "sink did not complete — task graph has a cycle or a "
                    "predecessor threw");
}

void DynamicExecutor::init_node_and_compute(rt::Worker& w, TaskGraphNode* u) {
  ExecContext ctx(&w, *this);
  u->init(ctx);

  // Cancellation cuts discovery short: u's predecessors are never created
  // (they are "skipped before existing"), so u keeps its lone exploration
  // token and releasing it retires u as a skip.
  const auto& preds = u->preds_;
  const std::size_t n = preds.size();
  if (n == 0 || cancel_requested()) {
    release_token(w, u);
    return;
  }
  // Trade the exploration token for one token per predecessor edge.
  u->join_.fetch_add(static_cast<std::int64_t>(n) - 1, std::memory_order_relaxed);
  auto* items = w.arena().create_array<PredItem>(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = PredItem{preds[i], spec_.color_of(preds[i])};
  }
  spawn_preds(w, explore_, u, items, n);
}

void DynamicExecutor::try_init_compute(rt::Worker& w, TaskGraphNode* parent,
                                       Key pred_key) {
  auto [pred, created] = map_.insert_or_get(
      pred_key, [this](NodeArena& a, Key k) { return create_node(a, k); });
  // Enqueue parent on pred's successor list *before* exploring pred
  // (SectionII action 2 / Figure 1b), moving the edge token there; a
  // just-created node is never closed. If pred already completed, the token
  // drops now. The cell comes from parent's inline pool (arena overflow):
  // no lock, no heap.
  if (pred->computed() ||
      !pred->successors_.try_add(parent,
                                 parent->acquire_successor_cell(w.arena()))) {
    release_token(w, parent);
  }
  // The creating thread initializes pred (SectionII action 1 / Figure 1a).
  if (created) init_node_and_compute(w, pred);
}

void DynamicExecutor::release_token(rt::Worker& w, TaskGraphNode* u) {
  if (u->join_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    compute_and_notify(w, u);
  }
}

void DynamicExecutor::compute_and_notify(rt::Worker& w, TaskGraphNode* u) {
  // One cancellation check per node dispatch; it also expires a passed
  // deadline. Skipped nodes keep status kVisited (they were never computed)
  // but still notify successors below, so join counters drain, every
  // spawned group syncs, and the root returns — the skip cascades through
  // the rest of the graph.
  const bool skip = opts_.job != nullptr && opts_.job->should_skip();
#ifndef NDEBUG
  // Protocol invariant: a node computes only after all predecessors have.
  // (A skipped predecessor implies the cancel word was set before its
  // dispatch check, which happened-before ours — so a non-skipped node
  // cannot see one.)
  if (!skip) {
    for (Key pk : u->preds_) {
      TaskGraphNode* p = map_.find(pk);
      NABBITC_CHECK_MSG(p != nullptr && p->computed(),
                        "dependence violation: node computed before predecessor");
    }
  }
#endif
  if (skip) {
    nodes_skipped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The paper's SectionV-B locality metric counts against true data
    // placement (data_color_of), not the scheduling hint — a bad hint must
    // *show up* as remote accesses.
    std::uint64_t remote_preds = 0;
    for (Key pk : u->preds_) {
      if (!w.color_is_local(spec_.data_color_of(pk))) ++remote_preds;
    }
    w.record_node_execution(spec_.data_color_of(u->key_), u->preds_.size(),
                            remote_preds);

    ExecContext ctx(&w, *this);
    u->compute(ctx);
    u->status_.store(NodeStatus::kComputed, std::memory_order_release);
    nodes_computed_.fetch_add(1, std::memory_order_relaxed);
  }

  // Notify successors (SectionII action 3 / Figure 1c). Closing the list
  // makes later try_add calls fail, so no successor is ever lost. The chain
  // of cells is walked in place; only the ready-array (arena storage) is
  // materialized for the spawn.
  SuccessorCell* chain = u->successors_.close_and_take();
  if (chain == nullptr) return;

  std::size_t len = 0;
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) ++len;
  std::size_t nready = 0;
  auto* ready = w.arena().create_array<TaskGraphNode*>(len);
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) {
    if (c->node->join_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready[nready++] = c->node;
    }
  }
  if (nready == 0) return;

  rt::TaskGroup group;
  spawn_ready(w, group, ready, nready);
  group.wait(w);
}

// ---------------------------------------------------------------------------
// Spawning: NabbitC's color-grouped morphing continuations (advertised color
// masks), or vanilla Nabbit's list-order recursive halving (no masks). The
// leaves are the same for both shapes.

struct DynamicExecutor::PredLeaf {
  DynamicExecutor* ex;
  TaskGraphNode* parent;
  void operator()(rt::Worker& w, const PredItem& item) const {
    ex->try_init_compute(w, parent, item.key);
  }
};

struct DynamicExecutor::ReadyLeaf {
  DynamicExecutor* ex;
  void operator()(rt::Worker& w, TaskGraphNode* node) const {
    ex->compute_and_notify(w, node);
  }
};

void DynamicExecutor::spawn_preds(rt::Worker& w, rt::TaskGroup& g,
                                  TaskGraphNode* parent, PredItem* items,
                                  std::size_t n) {
  if (opts_.colored) {
    spawn_colored(
        w, g, items, n, [](const PredItem& it) { return it.color; },
        PredLeaf{this, parent});
  } else {
    spawn_halved(w, g, items, n, PredLeaf{this, parent});
  }
}

void DynamicExecutor::spawn_ready(rt::Worker& w, rt::TaskGroup& g,
                                  TaskGraphNode** ready, std::size_t n) {
  if (opts_.colored) {
    spawn_colored(
        w, g, ready, n, [](TaskGraphNode* node) { return node->color(); },
        ReadyLeaf{this});
  } else {
    spawn_halved(w, g, ready, n, ReadyLeaf{this});
  }
}

}  // namespace nabbitc::nabbit
