#include "workloads/stencil_base.h"

#include <sstream>

#include "nabbit/types.h"
#include "support/check.h"

namespace nabbitc::wl {

using nabbit::Key;
using nabbit::key_major;
using nabbit::key_minor;
using nabbit::key_pack;

StencilWorkload::StencilWorkload(Dims dims) : dims_(dims) {
  NABBITC_CHECK(dims_.rows > 0 && dims_.cols > 0 && dims_.block_rows > 0);
  NABBITC_CHECK(dims_.iters >= 1);
  num_blocks_ = static_cast<std::uint32_t>((dims_.rows + dims_.block_rows - 1) /
                                           dims_.block_rows);
}

std::string StencilWorkload::problem_string() const {
  std::ostringstream os;
  os << dims_.rows << "x" << dims_.cols << ", B=" << dims_.block_rows << " rows";
  return os.str();
}

std::uint64_t StencilWorkload::num_tasks() const {
  // (iterations x blocks) + the sink.
  return static_cast<std::uint64_t>(dims_.iters) * num_blocks_ + 1;
}

numa::Color StencilWorkload::block_color(std::uint32_t b,
                                         std::uint32_t num_colors) const {
  return numa::BlockDistribution(num_blocks_, num_colors).owner(b);
}

void StencilWorkload::prepare(std::uint32_t num_colors) {
  NABBITC_CHECK(num_colors >= 1);
  NABBITC_CHECK_MSG(dims_.rows * dims_.cols <= (std::int64_t{1} << 28),
                    "grid too large to materialize on this host — paper-scale "
                    "presets are simulator-only");
  init_grids();
}

void StencilWorkload::reset() { init_grids(); }

void StencilWorkload::run_serial() {
  for (std::uint32_t t = 1; t <= dims_.iters; ++t) {
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      compute_block(t, block_lo(b), block_hi(b));
    }
  }
}

void StencilWorkload::run_loop(loop::ThreadPool& pool, loop::Schedule schedule) {
  // One parallel loop over blocks per iteration; the implicit barrier after
  // each loop is exactly the OpenMP structure the paper compares against.
  for (std::uint32_t t = 1; t <= dims_.iters; ++t) {
    pool.parallel_for_chunks(
        0, num_blocks_, schedule, 1,
        [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
          for (std::int64_t b = lo; b < hi; ++b) {
            auto bb = static_cast<std::uint32_t>(b);
            compute_block(t, block_lo(bb), block_hi(bb));
          }
        });
  }
}

namespace {

// Keys: major = iteration (1..iters; iters+1 = sink), minor = block.
class StencilNode final : public nabbit::TaskGraphNode {
 public:
  explicit StencilNode(StencilWorkload* w) : w_(w) {}

  void init(nabbit::ExecContext&) override {
    const std::uint32_t t = key_major(key());
    const std::uint32_t b = key_minor(key());
    if (t > w_->iterations()) {
      // Sink: depends on every block of the last iteration.
      for (std::uint32_t i = 0; i < w_->num_blocks(); ++i) {
        add_predecessor(key_pack(w_->iterations(), i));
      }
      return;
    }
    if (t == 1) return;  // first iteration reads only the initial grid
    if (b > 0) add_predecessor(key_pack(t - 1, b - 1));
    add_predecessor(key_pack(t - 1, b));
    if (b + 1 < w_->num_blocks()) add_predecessor(key_pack(t - 1, b + 1));
  }

  void compute(nabbit::ExecContext&) override {
    const std::uint32_t t = key_major(key());
    if (t > w_->iterations()) return;  // sink is a no-op
    const std::uint32_t b = key_minor(key());
    w_->compute_block(t, w_->block_lo(b), w_->block_hi(b));
  }

 private:
  StencilWorkload* w_;
};

class StencilSpec final : public nabbit::GraphSpec {
 public:
  StencilSpec(StencilWorkload* w, std::uint32_t num_colors,
              nabbit::ColoringMode mode)
      : w_(w), num_colors_(num_colors), mode_(mode) {}

  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<StencilNode>(w_);
  }

  numa::Color color_of(Key k) const override {
    return nabbit::apply_coloring(data_color_of(k), mode_, num_colors_);
  }

  numa::Color data_color_of(Key k) const override {
    std::uint32_t b = key_minor(k);
    if (key_major(k) > w_->iterations()) b = 0;  // sink rides with block 0
    return w_->block_color(b, num_colors_);
  }

  std::size_t expected_nodes() const override { return w_->num_tasks(); }

 private:
  StencilWorkload* w_;
  std::uint32_t num_colors_;
  nabbit::ColoringMode mode_;
};

}  // namespace

std::unique_ptr<nabbit::GraphSpec> StencilWorkload::make_taskgraph_spec(
    std::uint32_t num_colors, nabbit::ColoringMode coloring) {
  return std::make_unique<StencilSpec>(this, num_colors, coloring);
}

nabbit::Key StencilWorkload::taskgraph_sink() const {
  return key_pack(dims_.iters + 1, 0);
}

double StencilWorkload::node_cost(Key k) const {
  if (key_major(k) > dims_.iters) return 1.0;  // sink
  return static_cast<double>(dims_.block_rows) * static_cast<double>(dims_.cols);
}

}  // namespace nabbitc::wl
