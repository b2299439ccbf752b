// Benchmark workload interface.
//
// Each of the paper's ten benchmarks (Table I) implements this interface:
// a serial reference, an OpenMP-style loop-scheduled variant, a Nabbit /
// NabbitC task-graph variant, a bitwise-deterministic checksum for
// verification, and per-node costs for the discrete-event simulator. The
// simulator runs the same graph the runtime executes: simulated_dag()
// compiles the workload's GraphSpec and attaches node_cost() to each node.
//
// Determinism contract: every variant performs the same floating-point
// operations in the same per-result order (reductions are block-partial +
// fixed-order combine), so checksums must match *bitwise* across serial,
// loop, and task-graph runs — this is what the test suite asserts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/nabbitc.h"
#include "loop/thread_pool.h"
#include "sim/task_dag.h"

namespace nabbitc::wl {

/// Problem-size presets: kTiny for unit tests (sub-second everywhere),
/// kSmall for default bench runs, kMedium for longer experiments, and
/// kPaper matching the paper's task-graph *shape* (Table I node counts).
/// kPaper is simulator-only for the large workloads: simulated_dag() needs
/// no prepare() and allocates no grid data, but prepare() at paper scale
/// would exceed host memory and refuses to run.
enum class SizePreset : std::uint8_t { kTiny = 0, kSmall = 1, kMedium = 2, kPaper = 3 };

SizePreset preset_from_string(const std::string& s);
const char* preset_name(SizePreset p) noexcept;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Human-readable problem size (Table I's "Problem size" column).
  virtual std::string problem_string() const = 0;
  /// Number of task-graph nodes (Table I's "Task graph nodes" column).
  virtual std::uint64_t num_tasks() const = 0;
  virtual std::uint32_t iterations() const = 0;

  /// Builds input data. Must be called once before any run. `num_colors`
  /// does not affect the data: each spec takes its color count from
  /// make_taskgraph_spec's argument.
  virtual void prepare(std::uint32_t num_colors) = 0;
  /// Restores pre-run output state (inputs are kept). Call between runs.
  virtual void reset() = 0;

  virtual void run_serial() = 0;
  virtual void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) = 0;

  /// Builds the GraphSpec describing this workload's task graph, colored
  /// per `coloring` for `num_colors` workers. Works without prepare() (the
  /// graph's structure never reads the data); executing it needs prepare().
  /// One spec serves any number of
  /// executions — including plan compilation (Runtime::compile), which is
  /// why this is exposed rather than buried in run_taskgraph: callers that
  /// serve the same graph repeatedly compile the spec once and replay.
  /// The spec references this workload; it must not outlive it.
  virtual std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) = 0;
  /// Sink key of the graph described by make_taskgraph_spec.
  virtual nabbit::Key taskgraph_sink() const = 0;

  /// Runs one graph execution on `rt` (the runtime's variant decides
  /// Nabbit vs NabbitC), colored for rt.workers() workers.
  /// Convenience over make_taskgraph_spec + Runtime::run.
  void run_taskgraph(api::Runtime& rt, nabbit::ColoringMode coloring);

  /// Bitwise-deterministic digest of the run's output.
  virtual std::uint64_t checksum() const = 0;

  /// Abstract cost of node `k` for the simulator, proportional to the
  /// node's memory traffic.
  virtual double node_cost(nabbit::Key k) const = 0;
};

/// The task graph the simulator runs: make_taskgraph_spec(num_colors,
/// coloring) compiled into a plan, nodes numbered by ascending
/// Key, each node's work from node_cost(), its data color and scheduling
/// hint from the spec, and its predecessors in declaration order. Needs no
/// prepare().
sim::TaskDag simulated_dag(Workload& w, std::uint32_t num_colors,
                           nabbit::ColoringMode coloring);

/// The paper's benchmark names, in Table I order.
std::vector<std::string> workload_names();

/// Factory. Returns nullptr for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name, SizePreset preset);

}  // namespace nabbitc::wl
