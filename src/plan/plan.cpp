// GraphPlan compilation, restore-from-frozen, and PlanInstance lifecycle
// (the cold paths). The replay hot path lives in replay.cpp.
#include "plan/plan.h"

#include <unordered_map>
#include <utility>

#include "api/metrics.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/timing.h"

namespace nabbitc::plan {

// ---------------------------------------------------------------------------
// PlanInstance

PlanInstance::PlanInstance(const GraphPlan& plan)
    : plan_(&plan),
      // The prototype (built during compile, before the layout is measured)
      // uses the default block size; every later instance gets one block
      // sized to the measured payload layout.
      slab_(plan.f_.instance_slab_bytes != 0
                ? plan.f_.instance_slab_bytes + nabbit::NodeSlab::kBlockAlign
                : std::size_t{1} << 16) {
  state_.pooled = this;
  // The submission frame is bound once; replays reuse it verbatim (this is
  // what keeps the steady-state submit path free of heap allocation).
  state_.job.fn = [this](rt::Worker& w) {
    run_root(w);
    state_.t_done_ns = now_ns();
    api::record_completion(state_, plan_->bound_metrics());
  };
}

PlanInstance::~PlanInstance() {
  // Payload slots are placement-constructed into the slab; destroy in
  // place, then the slab releases the block wholesale.
  for (TaskGraphNode* n : nodes_) n->~TaskGraphNode();
}

TaskGraphNode* PlanInstance::make_node(Key key) {
  nabbit::NodeArena arena(slab_);
  GraphSpec& spec = plan_->spec();
  TaskGraphNode* n = spec.create(arena, key);
  NABBITC_CHECK_MSG(n != nullptr, "node factory returned null");
  n->key_ = key;
  n->color_ = spec.color_of(key);
  n->status_.store(nabbit::NodeStatus::kVisited, std::memory_order_relaxed);
  return n;
}

bool PlanInstance::try_build() {
  const GraphPlan& p = *plan_;
  const FrozenPlan& f = p.f_;
  const std::uint32_t n = f.n;
  nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_.push_back(make_node(f.keys[i]));

  // All slots exist, so init() may look predecessors up (unlike on-demand
  // execution, where creation order is arbitrary).
  nabbit::ExecContext ctx(nullptr, *this);
  for (std::uint32_t i = 0; i < n; ++i) {
    TaskGraphNode* u = nodes_[i];
    u->init(ctx);
    // The plan replays a frozen topology; a spec that answers differently
    // would silently desynchronize the join counters. On the compile path
    // a mismatch means a nondeterministic spec; on the restore path it
    // means the frozen arrays describe a different graph than the spec —
    // either way the instance is unusable.
    const auto got = u->predecessors();
    const auto want = p.predecessors(i);
    if (got.size() != want.size()) return false;
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (got[j] != f.keys[want[j]]) return false;
    }
  }
  join_ = std::make_unique<std::atomic<std::int32_t>[]>(n);
  return true;
}

void PlanInstance::reset_for_replay() noexcept {
  // Also the recovery path after a cancelled replay: a partially-executed
  // run leaves a mix of kComputed and kVisited statuses and fully drained
  // join counters (the skip cascade retires every node), so rearming
  // joins + statuses + counts below restores the instance completely.
  const FrozenPlan& f = plan_->f_;
  const std::uint32_t n = f.n;
  for (std::uint32_t i = 0; i < n; ++i) {
    join_[i].store(f.join[i], std::memory_order_relaxed);
    nodes_[i]->status_.store(nabbit::NodeStatus::kVisited,
                             std::memory_order_relaxed);
  }
  computed_.store(0, std::memory_order_relaxed);
  skipped_.store(0, std::memory_order_relaxed);
  state_.t_submit_ns = 0;
  state_.t_done_ns = 0;
}

TaskGraphNode* PlanInstance::find(Key key) const {
  const std::uint32_t i = plan_->index_of(key);
  return i == GraphPlan::kInvalidIndex ? nullptr : nodes_[i];
}

void PlanInstance::recycle() noexcept { plan_->release(this); }

// ---------------------------------------------------------------------------
// GraphPlan

GraphPlan::~GraphPlan() = default;

std::uint32_t GraphPlan::index_of(Key key) const noexcept {
  std::uint64_t h = splitmix64(key) & f_.slot_mask;
  for (;;) {
    const std::uint32_t idx = f_.slot_idx[h];
    if (idx == kInvalidIndex) return kInvalidIndex;
    if (f_.slot_key[h] == key) return idx;
    h = (h + 1) & f_.slot_mask;
  }
}

PlanInstance* GraphPlan::build_instance() const {
  auto inst = std::unique_ptr<PlanInstance>(new PlanInstance(*this));
  NABBITC_CHECK_MSG(inst->try_build(),
                    "GraphSpec is not deterministic: graph structure changed "
                    "between compile and instance build");
  PlanInstance* raw = inst.get();
  {
    std::lock_guard<SpinLock> lk(pool_mu_);
    owned_.push_back(std::move(inst));
  }
  instances_built_.fetch_add(1, std::memory_order_acq_rel);
  return raw;
}

void GraphPlan::acquire_batch(PlanInstance** out, std::size_t n) const {
  std::size_t pooled = 0;
  {
    std::lock_guard<SpinLock> lk(pool_mu_);
    while (pooled < n && free_head_ != nullptr) {
      PlanInstance* inst = free_head_;
      free_head_ = inst->pool_next_;
      out[pooled++] = inst;
    }
  }
  if (pooled != 0) free_count_.fetch_sub(pooled, std::memory_order_relaxed);
  for (std::size_t i = 0; i < pooled; ++i) {
    out[i]->fresh_ = false;  // pure replay: no nodes created this submission
  }
  for (std::size_t i = pooled; i < n; ++i) {
    out[i] = build_instance();  // cold path; fresh_ = true from construction
  }
  for (std::size_t i = 0; i < n; ++i) out[i]->reset_for_replay();
}

void GraphPlan::release(PlanInstance* inst) const noexcept {
  {
    std::lock_guard<SpinLock> lk(pool_mu_);
    inst->pool_next_ = free_head_;
    free_head_ = inst;
  }
  free_count_.fetch_add(1, std::memory_order_relaxed);
}

void GraphPlan::adopt_prototype(std::unique_ptr<PlanInstance> proto,
                                std::size_t reserve_instances) {
  {
    std::lock_guard<SpinLock> lk(pool_mu_);
    proto->pool_next_ = nullptr;
    free_head_ = proto.get();
    owned_.push_back(std::move(proto));
  }
  free_count_.fetch_add(1, std::memory_order_relaxed);
  instances_built_.store(1, std::memory_order_release);
  for (std::size_t i = 1; i < reserve_instances; ++i) {
    release(build_instance());
  }
}

// ---------------------------------------------------------------------------
// compile

namespace {

/// Lookup over the partially discovered graph, for init() during discovery.
/// Semantics match on-demand execution: find() of a not-yet-created node
/// returns null.
struct DiscoveryLookup final : nabbit::NodeLookup {
  DiscoveryLookup(const std::unordered_map<Key, std::uint32_t>* i,
                  const std::vector<TaskGraphNode*>* n)
      : index(i), nodes(n) {}
  const std::unordered_map<Key, std::uint32_t>* index;
  const std::vector<TaskGraphNode*>* nodes;
  TaskGraphNode* find(Key key) const override {
    auto it = index->find(key);
    return it == index->end() ? nullptr : (*nodes)[it->second];
  }
};

/// Successor transpose of a predecessor CSR: row v lists every node that
/// names v as a predecessor, once per edge, in ascending node order: the
/// replay schedule derive_frozen() builds for compile() and restore().
void build_successors(std::uint32_t n, std::span<const std::uint32_t> pred_off,
                      std::span<const std::uint32_t> pred_idx,
                      std::vector<std::uint32_t>& succ_off,
                      std::vector<std::uint32_t>& succ_idx) {
  succ_off.assign(n + 1, 0);
  for (const std::uint32_t p : pred_idx) ++succ_off[p + 1];
  for (std::uint32_t i = 0; i < n; ++i) succ_off[i + 1] += succ_off[i];
  succ_idx.assign(pred_idx.size(), 0);
  std::vector<std::uint32_t> cursor(succ_off.begin(), succ_off.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t e = pred_off[i]; e < pred_off[i + 1]; ++e) {
      succ_idx[cursor[pred_idx[e]]++] = i;
    }
  }
}

/// compile()'s owned backing store for the frozen views: one allocation
/// (shared_ptr'd into FrozenPlan::backing) holding every array. The persist
/// layer substitutes a mapped file for the persisted group here; neither
/// the plan nor the replay path can tell the difference.
struct OwnedStorage {
  std::vector<Key> keys;
  std::vector<std::uint32_t> pred_off;
  std::vector<std::uint32_t> pred_idx;
  DerivedArrays derived;
};

/// restore()'s backing store: the mapped artifact the persisted views
/// alias, kept alive next to the arrays derive_frozen() built for it.
struct RestoredStorage {
  std::shared_ptr<const void> persisted;
  DerivedArrays derived;
};

}  // namespace

std::unique_ptr<GraphPlan> compile(GraphSpec& spec, Key sink,
                                   const CompileOptions& opts) {
  auto plan = std::unique_ptr<GraphPlan>(new GraphPlan(spec, sink, opts));
  auto proto = std::unique_ptr<PlanInstance>(new PlanInstance(*plan));

  // --- discovery: iterative DFS from the sink, creating + init()ing nodes
  // (never computing). Creation order defines the plan index space, so the
  // sink is index 0.
  std::unordered_map<Key, std::uint32_t> index;
  index.reserve(spec.expected_nodes());
  std::vector<TaskGraphNode*>& nodes = proto->nodes_;
  std::vector<std::uint8_t> finished;  // discovered-but-unfinished = on stack
  DiscoveryLookup lookup{&index, &nodes};
  nabbit::ExecContext ctx(nullptr, lookup);

  auto create = [&](Key k) -> std::uint32_t {
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    NABBITC_CHECK_MSG(idx != GraphPlan::kInvalidIndex, "graph too large to compile");
    index.emplace(k, idx);
    TaskGraphNode* node = proto->make_node(k);
    nodes.push_back(node);
    finished.push_back(0);
    node->init(ctx);
    return idx;
  };

  struct Frame {
    std::uint32_t idx;
    std::size_t next_pred;
  };
  std::vector<Frame> stack;
  stack.push_back({create(sink), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto preds = nodes[f.idx]->predecessors();
    if (f.next_pred < preds.size()) {
      const Key pk = preds[f.next_pred++];
      auto it = index.find(pk);
      if (it == index.end()) {
        stack.push_back({create(pk), 0});
      } else {
        // A discovered-but-unfinished predecessor is a DFS ancestor.
        NABBITC_CHECK_MSG(finished[it->second],
                          "cycle detected while compiling task graph");
      }
    } else {
      finished[f.idx] = 1;
      stack.pop_back();
    }
  }

  // --- freeze topology into CSR arrays, in discovery index space.
  const auto n = static_cast<std::uint32_t>(nodes.size());
  auto st = std::make_shared<OwnedStorage>();
  OwnedStorage& s = *st;
  s.keys.resize(n);
  s.pred_off.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.keys[i] = nodes[i]->key();
    const auto npreds = nodes[i]->predecessors().size();
    s.pred_off[i + 1] = s.pred_off[i] + static_cast<std::uint32_t>(npreds);
  }
  s.pred_idx.resize(s.pred_off[n]);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t o = s.pred_off[i];
    for (const Key pk : nodes[i]->predecessors()) {
      s.pred_idx[o++] = index.at(pk);
    }
  }

  // --- publish the views, finalize the prototype as instance #0.
  FrozenPlan f;
  f.n = n;
  f.keys = s.keys;
  f.pred_off = s.pred_off;
  f.pred_idx = s.pred_idx;
  f.instance_slab_bytes = proto->slab_.bytes_allocated();
  // Tiny-graph lowering: plans this small replay through the serial
  // micro-interpreter on the submitting thread (see
  // PlanInstance::run_serial), skipping TaskGroup/spawn entirely.
  f.serial_lower = opts.tiny_lower && n < kTinyGraphMaxNodes;
  // Discovery keys nodes through a map, so no key can repeat.
  const bool derived = derive_frozen(f, &spec, s.derived);
  NABBITC_CHECK_MSG(derived, "discovery produced a duplicate key");
  f.backing = std::move(st);
  plan->f_ = std::move(f);

  proto->join_ = std::make_unique<std::atomic<std::int32_t>[]>(n);
  plan->adopt_prototype(std::move(proto), opts.reserve_instances);
  return plan;
}

// ---------------------------------------------------------------------------
// validate_frozen / derive_frozen / restore

bool validate_frozen(const FrozenPlan& f) {
  const std::uint64_t n = f.n;
  if (n == 0 || n >= GraphPlan::kInvalidIndex) return false;
  if (f.keys.size() != n || f.pred_off.size() != n + 1) return false;
  if (f.pred_off[0] != 0) return false;

  // CSR offsets: monotone rows. A DAG has at least one zero-predecessor
  // node, and that is what guarantees derive_frozen() a non-empty root set.
  bool has_root = false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (f.pred_off[i + 1] < f.pred_off[i]) return false;
    if (f.pred_off[i + 1] == f.pred_off[i]) has_root = true;
  }
  if (!has_root) return false;
  if (f.pred_idx.size() != f.pred_off[n]) return false;
  for (const std::uint32_t v : f.pred_idx) {
    if (v >= n) return false;
  }

  // Serial lowering is only legal for tiny plans (the micro-interpreter
  // uses a fixed-size ready stack); refuse an artifact claiming otherwise.
  if (f.serial_lower && n >= kTinyGraphMaxNodes) return false;
  // Slab sizing is a hint re-measured per instance block, but an absurd
  // value would make the first allocation fail noisily; bound it.
  if (f.instance_slab_bytes > (std::uint64_t{1} << 31)) return false;
  return true;
}

bool derive_frozen(FrozenPlan& f, const GraphSpec* spec, DerivedArrays& d) {
  const std::uint32_t n = f.n;

  // Key lookup: open addressing, linear probing, load <= 0.5 (cap >= 2n is
  // what bounds probe scans and keeps an empty slot in reach of every
  // absent key). Inserting a key twice is the one way persisted arrays
  // can break the table, so the build refuses it.
  std::uint64_t cap = 4;
  while (cap < std::uint64_t{n} * 2) cap <<= 1;
  const std::uint64_t mask = cap - 1;
  d.slot_key.assign(cap, 0);
  d.slot_idx.assign(cap, GraphPlan::kInvalidIndex);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t h = splitmix64(f.keys[i]) & mask;
    while (d.slot_idx[h] != GraphPlan::kInvalidIndex) {
      if (d.slot_key[h] == f.keys[i]) return false;
      h = (h + 1) & mask;
    }
    d.slot_key[h] = f.keys[i];
    d.slot_idx[h] = i;
  }

  // Schedule: per-node join counts (predecessor edges, with multiplicity),
  // the successor transpose, and the zero-join roots.
  build_successors(n, f.pred_off, f.pred_idx, d.succ_off, d.succ_idx);
  d.join.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    d.join[i] = static_cast<std::int32_t>(f.pred_off[i + 1] - f.pred_off[i]);
    if (d.join[i] == 0) d.roots.push_back(i);
  }

  // Colors come from the spec that will run the plan, never from the
  // artifact: RemoteGraphSpec folds wire colors into the serving runtime's
  // worker count, so a plan compiled at another width must be recolored.
  if (spec != nullptr) {
    d.colors.resize(n);
    d.data_colors.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      d.colors[i] = spec->color_of(f.keys[i]);
      d.data_colors[i] = spec->data_color_of(f.keys[i]);
    }
  }

  f.colors = d.colors;
  f.data_colors = d.data_colors;
  f.slot_key = d.slot_key;
  f.slot_idx = d.slot_idx;
  f.slot_mask = mask;
  f.join = d.join;
  f.succ_off = d.succ_off;
  f.succ_idx = d.succ_idx;
  f.roots = d.roots;
  return true;
}

std::unique_ptr<GraphPlan> restore(GraphSpec& spec, Key sink,
                                   const CompileOptions& opts, FrozenPlan f) {
  // Callers are expected to have run validate_frozen() (the blob parser
  // does), but restore() is the last line of defense on an untrusted-input
  // path — re-check rather than trust, and refuse rather than abort.
  if (!validate_frozen(f)) return nullptr;
  if (f.keys[0] != sink) return nullptr;
  auto st = std::make_shared<RestoredStorage>();
  st->persisted = std::move(f.backing);
  if (!derive_frozen(f, &spec, st->derived)) return nullptr;
  f.backing = std::move(st);
  auto plan = std::unique_ptr<GraphPlan>(new GraphPlan(spec, sink, opts));
  plan->f_ = std::move(f);

  // No discovery, no lowering decision: go straight to binding the spec's
  // node factories against the frozen structure. try_build() re-derives
  // the topology from the spec and refuses any disagreement, which is what
  // lets callers hand restore() an artifact of unknown provenance.
  auto proto = std::unique_ptr<PlanInstance>(new PlanInstance(*plan));
  if (!proto->try_build()) return nullptr;
  plan->adopt_prototype(std::move(proto), opts.reserve_instances);
  return plan;
}

}  // namespace nabbitc::plan
