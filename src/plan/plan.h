// Compiled graph plans: freeze-once / replay-many submission.
//
// A GraphSpec describes a dynamic task graph; executing one through the
// dynamic executors pays node-map insertion, successor wiring, and coloring
// on every submission. When the SAME graph is served over and over (the
// steady state of a runtime embedded in a server), that construction work is
// pure overhead — the topology never changes.
//
// plan::compile() walks the spec once from the sink (without computing
// anything) and lowers it into an immutable GraphPlan:
//
//   * topology frozen into CSR predecessor index arrays, plus the node
//     successor transpose and join counts the replay dispatches over. Plan
//     indices are discovery order: a DFS from the sink, so the sink is
//     index 0; the roots are replayed in ascending index order;
//   * per-node scheduling colors and true data colors (the NabbitC locality
//     hints) precomputed;
//   * the key -> node-index lookup frozen into an open-addressed table;
//   * node payload layout measured, so every instance's nodes are laid out
//     contiguously in one exactly-sized slab block;
//   * tiny plans (CompileOptions::tiny_lower) marked for serial replay on
//     the submitting thread.
//
// The frozen form is deliberately POD: every array lives behind a
// FrozenPlan of read-only views, so a plan can be serialized to an on-disk
// PlanBlob and later restore()d without recompiling (see src/persist/): the
// persisted arrays are read straight out of the mmap'd file, and the rest
// is re-derived from them by the same code compile() uses.
//
// Replaying the plan acquires a pooled PlanInstance — join counters, node
// payload slots, the reusable root-job submission frame — resets it, and
// drives the dependence protocol over the CSR arrays: no node map, no
// successor-list CAS traffic, and (once the pool is warm) no heap
// allocation at all on the submit path. Results are bitwise-identical to a
// fresh GraphSpec submission; the test suite checksums both.
//
// Contracts:
//   * the GraphSpec must describe the same graph on every call (same
//     predecessors, same colors) — instance construction re-derives the
//     structure and aborts on mismatch;
//   * node init() runs once per instance (at build), compute() once per
//     replay — per-replay state belongs in the data compute() touches;
//   * the spec must outlive the plan, and the plan must outlive every
//     Execution submitted from it;
//   * concurrent replays of one plan get distinct instances (distinct node
//     objects); nodes writing to shared external buffers must be prepared
//     for that, exactly as with concurrent spec submissions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/execution_state.h"
#include "nabbit/graph_spec.h"
#include "nabbit/node.h"
#include "nabbit/node_pool.h"
#include "numa/topology.h"
#include "rt/scheduler.h"
#include "support/spin.h"

namespace nabbitc::obs {
class Histogram;
}  // namespace nabbitc::obs

namespace nabbitc::plan {

using nabbit::GraphSpec;
using nabbit::Key;
using nabbit::TaskGraphNode;

/// Node-count bound under which compile() marks a plan for serial replay
/// (CompileOptions::tiny_lower). Also the hard cap validate_frozen enforces
/// on serial-lowered artifacts (the micro-interpreter's ready stack is
/// sized by it).
inline constexpr std::uint32_t kTinyGraphMaxNodes = 32;

struct CompileOptions {
  /// NabbitC semantics: color-grouped morphing-continuation spawns with
  /// advertised color masks. False = vanilla Nabbit list-order spawning.
  /// api::Runtime::compile derives this from the runtime's variant.
  bool colored = true;
  /// Instances to pre-build at compile time. Replays beyond the warm pool
  /// build more on demand (a heap-allocating cold path); pre-size this to
  /// the expected concurrent-replay depth for allocation-free serving.
  std::size_t reserve_instances = 1;
  /// Tiny-graph lowering: plans with fewer than kTinyGraphMaxNodes nodes
  /// replay through a serial micro-interpreter on the submitting thread,
  /// skipping TaskGroup/spawn machinery entirely. Results are bitwise
  /// identical either way; false keeps a tiny plan on the scheduler path
  /// (A/B benchmarking, the fuzz matrix).
  bool tiny_lower = true;
};

class GraphPlan;

/// The immutable POD guts of a compiled plan, exposed as read-only views
/// plus the type-erased storage that keeps them alive. The first group is
/// what compile() DECIDED (discovery order, tiny-graph lowering) —
/// exactly what a PlanBlob persists (src/persist/), so on load those views
/// point straight into the mapped file. The second group is DERIVED from
/// the first (and the spec) by derive_frozen(), which compile() and
/// restore() both call; it is never persisted. The replay hot path reads
/// through the same views either way.
struct FrozenPlan {
  // --- persisted: compile()'s decisions.
  std::uint32_t n = 0;                        // nodes; index 0 is the sink
  std::span<const Key> keys;                  // plan index -> key
  std::span<const std::uint32_t> pred_off;    // CSR row offsets, size n+1
  std::span<const std::uint32_t> pred_idx;
  /// Payload bytes one instance's nodes need (measured on the prototype).
  std::uint64_t instance_slab_bytes = 0;
  bool serial_lower = false;                  // tiny-graph serial replay

  // --- derived by derive_frozen().
  std::span<const numa::Color> colors;        // scheduling colors
  std::span<const numa::Color> data_colors;   // true data placement
  std::span<const Key> slot_key;               // open-addressed key table
  std::span<const std::uint32_t> slot_idx;     //   (power-of-two, load <= .5)
  std::uint64_t slot_mask = 0;
  std::span<const std::int32_t> join;         // in-edge counts, multiplicity
  std::span<const std::uint32_t> succ_off;    // successor transpose rows
  std::span<const std::uint32_t> succ_idx;
  std::span<const std::uint32_t> roots;       // zero-join nodes, ascending
  /// Keeps whatever the views point into alive — owned vectors, or a
  /// mapped blob plus the derived arrays. plan/ never looks inside; only
  /// destruction order matters.
  std::shared_ptr<const void> backing;
};

/// Owned storage for the arrays derive_frozen() builds.
struct DerivedArrays {
  std::vector<numa::Color> colors;
  std::vector<numa::Color> data_colors;
  std::vector<Key> slot_key;
  std::vector<std::uint32_t> slot_idx;
  std::vector<std::int32_t> join;
  std::vector<std::uint32_t> succ_off;
  std::vector<std::uint32_t> succ_idx;
  std::vector<std::uint32_t> roots;
};

/// Structural validation of UNTRUSTED persisted arrays (the blob-load
/// path): consistent span sizes, monotone CSR offsets, in-range indices, at
/// least one zero-predecessor node, serial lowering only under
/// kTinyGraphMaxNodes.
/// Reads only the persisted group of `f`. Returns false instead of
/// aborting; derive_frozen() and restore() require it to have passed.
bool validate_frozen(const FrozenPlan& f);

/// Builds the derived group of `f` from its persisted group, into `d`,
/// and points f's derived views at it: the key table, the schedule (join
/// counts with edge multiplicity, the successor transpose, the ascending
/// zero-join roots) and, when `spec` is non-null, the scheduling/data colors
/// from spec->color_of/data_color_of. With a null spec (offline inspection)
/// the color views stay empty. Returns false — leaving `f` unusable — when two nodes
/// share a key. The one derivation compile() and restore() share.
bool derive_frozen(FrozenPlan& f, const GraphSpec* spec, DerivedArrays& d);

/// Mutable per-execution state of one plan replay: the node payload slots,
/// the join-counter array, and the embedded submission frame. Instances are
/// pooled by their GraphPlan; embedders never create one directly — they
/// come out of Runtime::submit(const GraphPlan&).
class PlanInstance final : public nabbit::NodeLookup {
 public:
  ~PlanInstance();
  PlanInstance(const PlanInstance&) = delete;
  PlanInstance& operator=(const PlanInstance&) = delete;

  /// Node lookup over this instance's payload slots (ExecContext::find).
  TaskGraphNode* find(Key key) const override;

  std::uint64_t nodes_computed() const noexcept {
    return computed_.load(std::memory_order_acquire);
  }
  /// Nodes whose compute() was skipped by cooperative cancellation this
  /// submission. Every plan node is retired exactly once per replay —
  /// computed or skipped — so computed + skipped == num_nodes on return.
  std::uint64_t nodes_skipped() const noexcept {
    return skipped_.load(std::memory_order_acquire);
  }
  /// True when this instance's nodes were constructed for the current
  /// submission (pool miss); false for a pure replay.
  bool fresh() const noexcept { return fresh_; }

  const GraphPlan& plan() const noexcept { return *plan_; }

  /// The embedded execution state the api::Execution handle points at.
  api::detail::ExecutionState& exec_state() noexcept { return state_; }

  /// Returns this instance to its plan's pool. Called by the Execution
  /// handle once the replay has completed and the handle is released.
  void recycle() noexcept;

  /// Complete inline submission of a serial-lowered plan: runs the whole
  /// replay on the calling thread and marks the embedded job done — the
  /// scheduler is never involved. Called by Runtime::submit after state
  /// setup; the caller must not have published the job anywhere.
  void run_inline();

 private:
  friend class GraphPlan;
  friend std::unique_ptr<GraphPlan> compile(GraphSpec& spec, Key sink,
                                            const CompileOptions& opts);
  friend std::unique_ptr<GraphPlan> restore(GraphSpec& spec, Key sink,
                                            const CompileOptions& opts,
                                            FrozenPlan f);

  explicit PlanInstance(const GraphPlan& plan);

  /// Creates the payload slot for `key` through this instance's slab, with
  /// the same key/color/status setup a fresh execution performs.
  TaskGraphNode* make_node(Key key);
  /// Constructs + init()s every node in plan index order (cold path) and
  /// cross-checks the spec against the plan's frozen structure. Returns
  /// false on mismatch: for build_instance() that is a nondeterministic
  /// spec (a programming error, checked fatal); for restore() it means the
  /// frozen arrays came from a different graph (a stale artifact, rejected
  /// cleanly).
  bool try_build();
  /// Rearms join counters, statuses, and counters for the next replay.
  void reset_for_replay() noexcept;

  // --- replay protocol (replay.cpp) ---------------------------------------
  void run_root(rt::Worker& w);
  void compute_and_notify(rt::Worker& w, std::uint32_t index);
  void spawn_indices(rt::Worker& w, rt::TaskGroup& g, std::uint32_t* indices,
                     std::size_t n);
  /// Computes one node (or, when `skip`, only counts it skipped), counting
  /// locality when `w` is non-null. Shared by the parallel and serial
  /// paths, which each make their own cancellation check.
  void execute_node(rt::Worker* w, std::uint32_t index, bool skip);
  /// The tiny-graph micro-interpreter: drives the whole replay on the
  /// calling thread over the join counters. `w` may be null (inline
  /// submission) — locality counting is skipped then.
  void run_serial(rt::Worker* w);

  const GraphPlan* plan_;
  nabbit::NodeSlab slab_;                    // node payload storage
  std::vector<TaskGraphNode*> nodes_;        // plan index -> payload slot
  std::unique_ptr<std::atomic<std::int32_t>[]> join_;
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> skipped_{0};
  bool fresh_ = true;
  api::detail::ExecutionState state_;
  PlanInstance* pool_next_ = nullptr;  // freelist link, under the plan's lock

  // replay.cpp spawn leaf.
  friend struct PlanComputeLeaf;
};

/// The immutable compiled form of (GraphSpec, sink): frozen topology,
/// colors, key lookup — plus the (mutable, thread-safe) pool of reusable
/// PlanInstances. Compile once with plan::compile or Runtime::compile (or
/// rebuild from a persisted artifact with plan::restore), then submit any
/// number of times, from any thread.
class GraphPlan {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  ~GraphPlan();
  GraphPlan(const GraphPlan&) = delete;
  GraphPlan& operator=(const GraphPlan&) = delete;

  std::uint32_t num_nodes() const noexcept { return f_.n; }
  /// True when replays run through the tiny-graph serial micro-interpreter
  /// (singleton submissions then complete inline on the submitting thread).
  bool serial_lowered() const noexcept { return f_.serial_lower; }
  Key sink() const noexcept { return sink_; }
  bool colored() const noexcept { return opts_.colored; }
  GraphSpec& spec() const noexcept { return *spec_; }

  /// Read-only views of the frozen arrays — the serialization input (see
  /// persist/plan_blob.h) and the replay path's source of truth.
  const FrozenPlan& frozen() const noexcept { return f_; }

  Key key_of(std::uint32_t i) const noexcept { return f_.keys[i]; }
  numa::Color color_of(std::uint32_t i) const noexcept { return f_.colors[i]; }
  numa::Color data_color_of(std::uint32_t i) const noexcept {
    return f_.data_colors[i];
  }
  std::span<const std::uint32_t> predecessors(std::uint32_t i) const noexcept {
    return {f_.pred_idx.data() + f_.pred_off[i],
            f_.pred_off[i + 1] - f_.pred_off[i]};
  }

  /// Frozen key -> plan-index lookup; kInvalidIndex for unknown keys.
  std::uint32_t index_of(Key key) const noexcept;

  /// Instances constructed so far (pool size; grows on concurrent-replay
  /// depth, never shrinks until the plan dies).
  std::size_t instances_built() const noexcept {
    return instances_built_.load(std::memory_order_acquire);
  }
  /// Instances currently on the free list. The pool is quiescent —
  /// every execution's instance recycled — exactly when this equals
  /// instances_built(). Introspection for tests and service stats; an
  /// Execution handle releases its instance only on destruction, which can
  /// lag result delivery, so callers poll this rather than in-flight counts.
  /// O(1): a relaxed counter maintained at freelist push/pop, so the
  /// daemon's per-second metrics scrape never holds the pool lock against
  /// the submit hot path.
  std::size_t instances_free() const noexcept {
    return free_count_.load(std::memory_order_relaxed);
  }

  /// Binds a per-plan submit-to-complete latency histogram (e.g. the
  /// daemon's "submit_complete_ns_plan_<handle>"): every replay completion
  /// additionally records into it. nullptr (the default) means global-only.
  /// Thread-safe against in-flight replays; the histogram must outlive the
  /// plan (registry metrics live for the process, so that is automatic).
  void bind_metrics(obs::Histogram* h) const noexcept {
    metrics_hist_.store(h, std::memory_order_release);
  }
  obs::Histogram* bound_metrics() const noexcept {
    return metrics_hist_.load(std::memory_order_acquire);
  }

  /// Instance checkout, for singleton (n = 1) and batched submission alike:
  /// fills out[0..n) with reset instances, popping as many as possible
  /// under ONE freelist lock acquisition (the amortization the submit_batch
  /// path exists for); any shortfall is built cold (heap-allocating).
  /// Thread-safe. With a pool reserved >= n deep, steady-state cost is one
  /// lock + n resets and zero allocations.
  void acquire_batch(PlanInstance** out, std::size_t n) const;
  /// Returns an instance whose execution has fully completed.
  void release(PlanInstance* inst) const noexcept;

 private:
  friend class PlanInstance;
  friend std::unique_ptr<GraphPlan> compile(GraphSpec& spec, Key sink,
                                            const CompileOptions& opts);
  friend std::unique_ptr<GraphPlan> restore(GraphSpec& spec, Key sink,
                                            const CompileOptions& opts,
                                            FrozenPlan f);

  GraphPlan(GraphSpec& spec, Key sink, const CompileOptions& opts)
      : spec_(&spec), sink_(sink), opts_(opts) {}

  /// Builds and registers a new instance (pool miss / pre-reserve path).
  PlanInstance* build_instance() const;

  /// Adopts a built prototype as instance #0 (tail of compile/restore).
  void adopt_prototype(std::unique_ptr<PlanInstance> proto,
                       std::size_t reserve_instances);

  GraphSpec* spec_;
  Key sink_;
  CompileOptions opts_;

  /// Frozen topology, colors, and key table (plan index space; index 0 is
  /// the sink), as views into f_.backing-owned storage.
  FrozenPlan f_;

  // Instance pool (mutable: submission through a const plan is the point).
  mutable SpinLock pool_mu_;
  mutable PlanInstance* free_head_ = nullptr;
  /// Freelist length mirror, updated at every push/pop (relaxed — an
  /// introspection counter, not a synchronization edge). Lets
  /// instances_free() answer without taking pool_mu_.
  mutable std::atomic<std::size_t> free_count_{0};
  mutable std::vector<std::unique_ptr<PlanInstance>> owned_;
  mutable std::atomic<std::uint64_t> instances_built_{0};
  mutable std::atomic<obs::Histogram*> metrics_hist_{nullptr};
};

/// Lowers (spec, sink) into an immutable GraphPlan: discovers the graph by
/// creating + init()ing nodes from the sink (without computing anything),
/// freezes the CSR topology and colors, and pre-builds
/// opts.reserve_instances instances. Aborts on a cyclic graph. Prefer the
/// api::Runtime::compile wrapper, which derives `opts.colored` from the
/// runtime's variant.
std::unique_ptr<GraphPlan> compile(GraphSpec& spec, Key sink,
                                   const CompileOptions& opts = {});

/// Rebuilds a plan from previously persisted arrays (the persist load
/// path): skips discovery (the lowering decision comes from the artifact),
/// re-derives the schedule, key table and colors with derive_frozen()
/// against THIS spec (so colors follow the loading runtime's width), then
/// builds instances — which re-binds the spec's node factories and
/// cross-checks the spec against the frozen topology. Only f's persisted
/// group is read; its views may point into a mapped blob (f.backing keeps
/// it alive, and the derived arrays are owned next to it). Returns nullptr
/// — never aborts — when validate_frozen() fails, keys[0] != sink, two
/// nodes share a key, or the spec disagrees with the frozen structure (a
/// stale or foreign artifact); callers fall back to compile().
/// Prefer the api::Runtime::restore_plan wrapper, which also refuses an
/// artifact whose recorded options disagree with the runtime's variant.
std::unique_ptr<GraphPlan> restore(GraphSpec& spec, Key sink,
                                   const CompileOptions& opts, FrozenPlan f);

}  // namespace nabbitc::plan
