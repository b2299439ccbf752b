// GraphPlan compilation, restore-from-frozen, and PlanInstance lifecycle
// (the cold paths). The replay hot path lives in replay.cpp.
#include "plan/plan.h"

#include <algorithm>
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
  // Join counters are per fused UNIT (the dispatch granularity), not per
  // node — chain fusion is precisely the removal of intra-chain joins.
  join_ = std::make_unique<std::atomic<std::int32_t>[]>(f.fused_n);
  return true;
}

void PlanInstance::reset_for_replay() noexcept {
  // Also the recovery path after a cancelled replay: a partially-executed
  // run leaves a mix of kComputed and kVisited statuses and fully drained
  // join counters (the skip cascade retires every node), so rearming
  // joins + statuses + counts below restores the instance completely.
  const FrozenPlan& f = plan_->f_;
  const std::uint32_t n = f.n;
  for (std::uint32_t u = 0; u < f.fused_n; ++u) {
    join_[u].store(f.unit_join[u], std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
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

PlanInstance* GraphPlan::acquire() const {
  PlanInstance* inst = nullptr;
  {
    std::lock_guard<SpinLock> lk(pool_mu_);
    inst = free_head_;
    if (inst != nullptr) free_head_ = inst->pool_next_;
  }
  if (inst != nullptr) {
    free_count_.fetch_sub(1, std::memory_order_relaxed);
    inst->fresh_ = false;  // pure replay: no nodes created this submission
  } else {
    inst = build_instance();  // cold path; fresh_ = true from construction
  }
  inst->reset_for_replay();
  return inst;
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

/// compile()'s owned backing store for the frozen views: one allocation
/// (shared_ptr'd into FrozenPlan::backing) holding every array. The persist
/// layer substitutes a mapped file for the persisted group here; neither
/// the plan nor the replay path can tell the difference.
struct OwnedStorage {
  std::vector<Key> keys;
  std::vector<std::uint32_t> pred_off;
  std::vector<std::uint32_t> pred_idx;
  std::vector<std::uint32_t> unit_off;
  std::vector<std::uint32_t> unit_nodes;
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

  // --- freeze topology into CSR arrays (discovery index space; the
  // optimization passes below may renumber everything).
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

  // Successor transpose, for the passes' own analysis only (the replay
  // schedule is derive_frozen()'s unit-level transpose).
  std::vector<std::uint32_t> succ_off(n + 1, 0);
  for (const std::uint32_t p : s.pred_idx) ++succ_off[p + 1];
  for (std::uint32_t i = 0; i < n; ++i) succ_off[i + 1] += succ_off[i];
  std::vector<std::uint32_t> succ_idx(s.pred_idx.size());
  {
    std::vector<std::uint32_t> cursor(succ_off.begin(), succ_off.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t e = s.pred_off[i]; e < s.pred_off[i + 1]; ++e) {
        succ_idx[cursor[s.pred_idx[e]]++] = i;
      }
    }
  }

  // --- optimization passes -------------------------------------------------
  const std::uint32_t passes = opts.passes & kPassAll;
  const auto pred_cnt = [&s](std::uint32_t v) {
    return s.pred_off[v + 1] - s.pred_off[v];
  };
  const auto succ_cnt = [&succ_off](std::uint32_t v) {
    return succ_off[v + 1] - succ_off[v];
  };

  // Topological levels (Kahn over the frozen CSR): level[v] = longest root
  // path, the layout pass's primary sort key.
  std::vector<std::uint32_t> level(n, 0);
  {
    std::vector<std::uint32_t> pending(n);
    std::vector<std::uint32_t> queue;
    queue.reserve(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      pending[v] = pred_cnt(v);
      if (pending[v] == 0) queue.push_back(v);
    }
    std::size_t head = 0;
    while (head < queue.size()) {
      const std::uint32_t u = queue[head++];
      for (std::uint32_t e = succ_off[u]; e < succ_off[u + 1]; ++e) {
        const std::uint32_t v = succ_idx[e];
        if (level[v] < level[u] + 1) level[v] = level[u] + 1;
        if (--pending[v] == 0) queue.push_back(v);
      }
    }
    NABBITC_CHECK_MSG(queue.size() == n, "cycle escaped discovery");
  }

  // Pass 1 — chain fusion. A node is chain-interior iff it has exactly one
  // predecessor and that predecessor has exactly one successor; units are
  // the maximal runs of such edges, executed serially by the replay path so
  // the join/dispatch cost is paid once per run. With the pass off, every
  // unit is a singleton.
  std::vector<std::uint8_t> interior(n, 0);
  if ((passes & kPassChainFusion) != 0) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (pred_cnt(v) == 1 && succ_cnt(s.pred_idx[s.pred_off[v]]) == 1) {
        interior[v] = 1;
      }
    }
  }
  std::vector<std::uint32_t> heads;  // unit entry nodes, discovery order
  heads.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!interior[v]) heads.push_back(v);
  }
  const auto fused_n = static_cast<std::uint32_t>(heads.size());
  const auto chain_next = [&](std::uint32_t v) -> std::uint32_t {
    if (succ_cnt(v) == 1) {
      const std::uint32_t w = succ_idx[succ_off[v]];
      if (interior[w]) return w;
    }
    return GraphPlan::kInvalidIndex;
  };

  // Pass 2 — level-ordered layout. Order units level-major (entry node's
  // level, then color, then discovery order) and renumber nodes by (unit
  // rank, position in chain) so notify-time successor scans touch
  // neighbouring cache lines. The sink keeps index 0 (persisted invariant:
  // keys[0] == sink_key). With the pass off, discovery order stands.
  std::vector<std::uint32_t> unit_order(fused_n);
  for (std::uint32_t i = 0; i < fused_n; ++i) unit_order[i] = i;
  std::vector<std::uint32_t> new_of(n);
  for (std::uint32_t v = 0; v < n; ++v) new_of[v] = v;
  if ((passes & kPassLevelOrder) != 0) {
    std::stable_sort(unit_order.begin(), unit_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const std::uint32_t ha = heads[a], hb = heads[b];
                       if (level[ha] != level[hb]) return level[ha] < level[hb];
                       const numa::Color ca = nodes[ha]->color();
                       const numa::Color cb = nodes[hb]->color();
                       if (ca != cb) return ca < cb;
                       return ha < hb;
                     });
    std::uint32_t next = 1;
    for (std::uint32_t r = 0; r < fused_n; ++r) {
      for (std::uint32_t v = heads[unit_order[r]];
           v != GraphPlan::kInvalidIndex; v = chain_next(v)) {
        new_of[v] = (v == 0) ? 0 : next++;
      }
    }
  }

  // Unit membership in the final index space, one CSR row per unit in final
  // unit order (chain members stay in execution order).
  s.unit_off.assign(fused_n + 1, 0);
  s.unit_nodes.reserve(n);
  for (std::uint32_t r = 0; r < fused_n; ++r) {
    for (std::uint32_t v = heads[unit_order[r]]; v != GraphPlan::kInvalidIndex;
         v = chain_next(v)) {
      s.unit_nodes.push_back(new_of[v]);
    }
    s.unit_off[r + 1] = static_cast<std::uint32_t>(s.unit_nodes.size());
  }
  NABBITC_CHECK_MSG(s.unit_nodes.size() == n, "fusion lost nodes");

  // Apply the permutation to the node-space arrays (and the prototype's
  // payload slots).
  if ((passes & kPassLevelOrder) != 0) {
    std::vector<Key> keys(n);
    std::vector<std::uint32_t> pred_off(n + 1, 0);
    std::vector<TaskGraphNode*> perm_nodes(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t nv = new_of[v];
      keys[nv] = s.keys[v];
      pred_off[nv + 1] = pred_cnt(v);
      perm_nodes[nv] = nodes[v];
    }
    for (std::uint32_t i = 0; i < n; ++i) pred_off[i + 1] += pred_off[i];
    std::vector<std::uint32_t> pred_idx(s.pred_idx.size());
    for (std::uint32_t v = 0; v < n; ++v) {
      std::uint32_t o = pred_off[new_of[v]];
      // Predecessor declaration order is preserved (try_build compares it
      // against the spec's answers slot by slot).
      for (std::uint32_t e = s.pred_off[v]; e < s.pred_off[v + 1]; ++e) {
        pred_idx[o++] = new_of[s.pred_idx[e]];
      }
    }
    s.keys = std::move(keys);
    s.pred_off = std::move(pred_off);
    s.pred_idx = std::move(pred_idx);
    nodes = std::move(perm_nodes);
  }

  // --- publish the views, finalize the prototype as instance #0.
  FrozenPlan f;
  f.n = n;
  f.keys = s.keys;
  f.pred_off = s.pred_off;
  f.pred_idx = s.pred_idx;
  f.instance_slab_bytes = proto->slab_.bytes_allocated();
  f.fused_n = fused_n;
  f.passes = passes;
  // Pass 3 — tiny-graph lowering: plans this small replay through the
  // serial micro-interpreter on the submitting thread (see
  // PlanInstance::run_serial), skipping TaskGroup/spawn entirely.
  f.serial_lower = (passes & kPassTinyLower) != 0 && n < kTinyGraphMaxNodes;
  f.unit_off = s.unit_off;
  f.unit_nodes = s.unit_nodes;
  // Discovery keys nodes through a map, so no key can repeat.
  const bool derived = derive_frozen(f, &spec, s.derived);
  NABBITC_CHECK_MSG(derived, "discovery produced a duplicate key");
  f.backing = std::move(st);
  plan->f_ = std::move(f);

  proto->join_ = std::make_unique<std::atomic<std::int32_t>[]>(fused_n);
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
  // node, and such a node heads a zero-join unit (the chain check below
  // gives every later member its one predecessor inside the unit), so this
  // is what guarantees derive_frozen() a non-empty root set.
  bool has_root = false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (f.pred_off[i + 1] < f.pred_off[i]) return false;
    if (f.pred_off[i + 1] == f.pred_off[i]) has_root = true;
  }
  if (!has_root) return false;
  if (f.pred_idx.size() != f.pred_off[n]) return false;
  std::vector<std::uint32_t> out_degree(n, 0);
  for (const std::uint32_t v : f.pred_idx) {
    if (v >= n) return false;
    ++out_degree[v];
  }

  // Fused units: unit_off must partition a permutation of the node set
  // into non-empty runs, and every intra-unit consecutive pair must be a
  // real fanout-1/fanin-1 edge — serial in-unit execution is only legal
  // then.
  const std::uint64_t fn = f.fused_n;
  if (fn == 0 || fn > n) return false;
  if (f.unit_off.size() != fn + 1 || f.unit_nodes.size() != n) return false;
  if (f.unit_off[0] != 0 || f.unit_off[fn] != n) return false;
  std::vector<std::uint8_t> placed(n, 0);
  for (std::uint64_t u = 0; u < fn; ++u) {
    if (f.unit_off[u + 1] <= f.unit_off[u]) return false;  // >= 1 node
    for (std::uint32_t e = f.unit_off[u]; e < f.unit_off[u + 1]; ++e) {
      const std::uint32_t v = f.unit_nodes[e];
      if (v >= n || placed[v]) return false;
      placed[v] = 1;
      if (e > f.unit_off[u]) {
        const std::uint32_t a = f.unit_nodes[e - 1];
        if (f.pred_off[v + 1] - f.pred_off[v] != 1) return false;
        if (f.pred_idx[f.pred_off[v]] != a) return false;
        if (out_degree[a] != 1) return false;
      }
    }
  }
  // (n entries, all distinct, all < n ⇒ unit_nodes is a permutation.)

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
  const std::uint32_t fused_n = f.fused_n;

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

  // Cross-unit schedule: per-unit join counts (with edge multiplicity) and
  // the unit-level successor transpose, in canonical emission order (units
  // in order, members in chain order, pred rows in declaration order).
  std::vector<std::uint32_t> unit_of(n);
  for (std::uint32_t u = 0; u < fused_n; ++u) {
    for (std::uint32_t e = f.unit_off[u]; e < f.unit_off[u + 1]; ++e) {
      unit_of[f.unit_nodes[e]] = u;
    }
  }
  d.unit_join.assign(fused_n, 0);
  d.unit_succ_off.assign(fused_n + 1, 0);
  for (std::uint32_t u = 0; u < fused_n; ++u) {
    for (std::uint32_t e = f.unit_off[u]; e < f.unit_off[u + 1]; ++e) {
      const std::uint32_t v = f.unit_nodes[e];
      for (std::uint32_t pe = f.pred_off[v]; pe < f.pred_off[v + 1]; ++pe) {
        const std::uint32_t pu = unit_of[f.pred_idx[pe]];
        if (pu == u) continue;
        ++d.unit_join[u];
        ++d.unit_succ_off[pu + 1];
      }
    }
  }
  for (std::uint32_t u = 0; u < fused_n; ++u) {
    d.unit_succ_off[u + 1] += d.unit_succ_off[u];
  }
  d.unit_succ_idx.assign(d.unit_succ_off[fused_n], 0);
  {
    std::vector<std::uint32_t> cursor(d.unit_succ_off.begin(),
                                      d.unit_succ_off.end() - 1);
    for (std::uint32_t u = 0; u < fused_n; ++u) {
      for (std::uint32_t e = f.unit_off[u]; e < f.unit_off[u + 1]; ++e) {
        const std::uint32_t v = f.unit_nodes[e];
        for (std::uint32_t pe = f.pred_off[v]; pe < f.pred_off[v + 1]; ++pe) {
          const std::uint32_t pu = unit_of[f.pred_idx[pe]];
          if (pu != u) d.unit_succ_idx[cursor[pu]++] = u;
        }
      }
    }
  }
  for (std::uint32_t u = 0; u < fused_n; ++u) {
    if (d.unit_join[u] == 0) d.unit_roots.push_back(u);
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
    d.unit_colors.resize(fused_n);
    for (std::uint32_t u = 0; u < fused_n; ++u) {
      d.unit_colors[u] = d.colors[f.unit_nodes[f.unit_off[u]]];
    }
  }

  f.colors = d.colors;
  f.data_colors = d.data_colors;
  f.slot_key = d.slot_key;
  f.slot_idx = d.slot_idx;
  f.slot_mask = mask;
  f.unit_join = d.unit_join;
  f.unit_succ_off = d.unit_succ_off;
  f.unit_succ_idx = d.unit_succ_idx;
  f.unit_roots = d.unit_roots;
  f.unit_colors = d.unit_colors;
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

  // No discovery, no passes: go straight to binding the spec's node
  // factories against the frozen structure. try_build() re-derives the
  // topology from the spec and refuses any disagreement, which is what
  // lets callers hand restore() an artifact of unknown provenance.
  auto proto = std::unique_ptr<PlanInstance>(new PlanInstance(*plan));
  if (!proto->try_build()) return nullptr;
  plan->adopt_prototype(std::move(proto), opts.reserve_instances);
  return plan;
}

}  // namespace nabbitc::plan
