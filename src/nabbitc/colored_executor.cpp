#include "nabbitc/colored_executor.h"

namespace nabbitc::nabbit {

namespace {

/// Leaves bind the executor and (for predecessors) the dependent node.
struct PredLeaf {
  DynamicExecutor* ex;
  TaskGraphNode* parent;
  void operator()(rt::Worker& w, const DynamicExecutor::PredItem& item) const {
    ex->try_init_compute(w, parent, item.key);
  }
};

struct ReadyLeafDynamic {
  DynamicExecutor* ex;
  void operator()(rt::Worker& w, TaskGraphNode* node) const {
    ex->compute_and_notify(w, node);
  }
};

}  // namespace

void ColoredDynamicExecutor::spawn_preds(rt::Worker& w, rt::TaskGroup& g,
                                         TaskGraphNode* parent, PredItem* items,
                                         std::size_t n) {
  spawn_colored(
      w, g, items, n, [](const PredItem& it) { return it.color; },
      PredLeaf{this, parent});
}

void ColoredDynamicExecutor::spawn_ready(rt::Worker& w, rt::TaskGroup& g,
                                         TaskGraphNode** ready, std::size_t n) {
  spawn_colored(
      w, g, ready, n, [](TaskGraphNode* node) { return node->color(); },
      ReadyLeafDynamic{this});
}

}  // namespace nabbitc::nabbit
