// Shared machinery for the row-blocked iterative stencils (heat, fdtd, life).
//
// The grid is R rows x C cols; tasks are blocks of B consecutive rows; the
// task graph has one node per (iteration, block) with dependences on the
// same and adjacent blocks of the previous iteration — the paper's regular
// benchmarks (Table I: 102400 nodes = 5 iterations x 20480 blocks).
//
// Data distribution follows the paper's coloring strategy: row blocks are
// distributed evenly across colors, and a task's (good) color is the owner
// of the block it writes.
#pragma once

#include <cstdint>
#include <string>

#include "numa/distribution.h"
#include "workloads/workload.h"

namespace nabbitc::wl {

class StencilWorkload : public Workload {
 public:
  struct Dims {
    std::int64_t rows;
    std::int64_t cols;
    std::int64_t block_rows;
    std::uint32_t iters;
  };

  explicit StencilWorkload(Dims dims);

  std::string problem_string() const override;
  std::uint64_t num_tasks() const override;
  std::uint32_t iterations() const override { return dims_.iters; }

  void prepare(std::uint32_t num_colors) override;
  void reset() override;
  void run_serial() override;
  void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) override;
  std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) override;
  nabbit::Key taskgraph_sink() const override;
  double node_cost(nabbit::Key k) const override;

  // --- subclass hooks -----------------------------------------------------
  /// Allocates and fills the initial grids (also used by reset()).
  virtual void init_grids() = 0;
  /// Computes rows [row_lo, row_hi) of iteration `iter` (>= 1), reading the
  /// (iter-1)-parity buffers and writing the iter-parity buffers.
  virtual void compute_block(std::uint32_t iter, std::int64_t row_lo,
                             std::int64_t row_hi) = 0;

  // --- structure accessors (used by the task-graph spec and tests) -------
  const Dims& dims() const noexcept { return dims_; }
  std::uint32_t num_blocks() const noexcept { return num_blocks_; }
  std::int64_t block_lo(std::uint32_t b) const noexcept {
    return static_cast<std::int64_t>(b) * dims_.block_rows;
  }
  std::int64_t block_hi(std::uint32_t b) const noexcept {
    std::int64_t hi = block_lo(b) + dims_.block_rows;
    return hi > dims_.rows ? dims_.rows : hi;
  }
  /// Good color of block b when the blocks are spread over `num_colors`.
  numa::Color block_color(std::uint32_t b, std::uint32_t num_colors) const;

 protected:
  Dims dims_;
  std::uint32_t num_blocks_;
};

}  // namespace nabbitc::wl
