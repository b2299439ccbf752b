#include "workloads/pagerank.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <vector>

#include "graph/blocks.h"
#include "graph/generators.h"
#include "nabbit/types.h"
#include "numa/distribution.h"
#include "support/check.h"
#include "workloads/digest.h"

namespace nabbitc::wl {

using nabbit::Key;
using nabbit::key_major;
using nabbit::key_minor;
using nabbit::key_pack;

namespace {

constexpr double kDamping = 0.85;

struct DatasetConfig {
  const char* name;
  std::uint32_t num_blocks;
  std::uint32_t iterations;
  std::uint32_t dep_cap;  // max fine-grained deps before barrier fallback
};

class PageRankWorkload final : public Workload {
 public:
  PageRankWorkload(PageRankDataset dataset, SizePreset preset);

  const char* name() const override { return cfg_.name; }
  std::string problem_string() const override {
    std::ostringstream os;
    os << "nv=" << out_.num_vertices() << ", ne=" << out_.num_edges()
       << ", maxdeg=" << max_out_degree_;
    return os.str();
  }
  std::uint64_t num_tasks() const override {
    // Blocks of iterations 0..iters, plus the final barrier (the sink). The
    // barriers of iterations 0..iters-1 exist only when some block takes
    // the barrier fallback.
    const std::uint64_t barriers = barrier_fallback_ ? cfg_.iterations + 1 : 1;
    return static_cast<std::uint64_t>(cfg_.num_blocks) * (cfg_.iterations + 1) +
           barriers;
  }
  std::uint32_t iterations() const override { return cfg_.iterations; }

  void prepare(std::uint32_t /*num_colors*/) override { reset(); }

  void reset() override {
    const auto nv = static_cast<std::size_t>(out_.num_vertices());
    ranks_[0].assign(nv, 0.0);
    ranks_[1].assign(nv, 0.0);
  }

  void run_serial() override {
    init_all_blocks_serial();
    for (std::uint32_t t = 1; t <= cfg_.iterations; ++t) {
      for (std::uint32_t b = 0; b < cfg_.num_blocks; ++b) compute_block(t, b);
    }
  }

  void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) override {
    pool.parallel_for_chunks(0, cfg_.num_blocks, schedule, 1,
                             [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
                               for (std::int64_t b = lo; b < hi; ++b) {
                                 init_block(static_cast<std::uint32_t>(b));
                               }
                             });
    for (std::uint32_t t = 1; t <= cfg_.iterations; ++t) {
      pool.parallel_for_chunks(
          0, cfg_.num_blocks, schedule, 1,
          [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
            for (std::int64_t b = lo; b < hi; ++b) {
              compute_block(t, static_cast<std::uint32_t>(b));
            }
          });
    }
  }

  std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) override;
  nabbit::Key taskgraph_sink() const override;

  std::uint64_t checksum() const override {
    Digest d;
    d.add_vector(ranks_[cfg_.iterations & 1]);
    return d.value();
  }

  double node_cost(Key k) const override {
    if (key_minor(k) == cfg_.num_blocks) return 0.5;  // barrier
    return key_major(k) == 0 ? 1.0 : block_cost(key_minor(k));
  }

  // --- task bodies ---------------------------------------------------------
  void init_block(std::uint32_t b) {
    const double r0 = 1.0 / static_cast<double>(out_.num_vertices());
    for (auto v = part_.begin_of(b); v < part_.end_of(b); ++v) {
      ranks_[0][static_cast<std::size_t>(v)] = r0;
    }
  }

  void init_all_blocks_serial() {
    for (std::uint32_t b = 0; b < cfg_.num_blocks; ++b) init_block(b);
  }

  void compute_block(std::uint32_t t, std::uint32_t b) {
    const auto& src = ranks_[(t - 1) & 1];
    auto& dst = ranks_[t & 1];
    const double base =
        (1.0 - kDamping) / static_cast<double>(out_.num_vertices());
    for (auto v = part_.begin_of(b); v < part_.end_of(b); ++v) {
      double acc = 0.0;
      for (auto e = in_.edge_begin(v); e < in_.edge_end(v); ++e) {
        const auto u = static_cast<std::size_t>(in_.edge_target(e));
        acc += src[u] * inv_outdeg_[u];
      }
      dst[static_cast<std::size_t>(v)] = base + kDamping * acc;
    }
  }

  // --- structure (used by the graph spec) ----------------------------------
  std::uint32_t num_blocks() const noexcept { return cfg_.num_blocks; }
  std::uint32_t dep_cap() const noexcept { return cfg_.dep_cap; }
  const std::vector<std::uint32_t>& deps_of(std::uint32_t b) const {
    return block_deps_[b];
  }
  double block_cost(std::uint32_t b) const {
    double edges = 0;
    for (auto v = part_.begin_of(b); v < part_.end_of(b); ++v) {
      edges += static_cast<double>(in_.degree(v));
    }
    return 1.0 + edges;  // gather cost is edge-dominated
  }

 private:
  DatasetConfig cfg_;
  graph::Csr out_;  // forward graph (for out-degrees)
  graph::Csr in_;   // transpose (gather source)
  graph::BlockPartition part_;
  std::vector<std::vector<std::uint32_t>> block_deps_;
  std::vector<double> inv_outdeg_;
  std::vector<double> ranks_[2];
  std::int64_t max_out_degree_ = 0;
  bool barrier_fallback_ = false;  // some block has more than dep_cap deps
};

graph::Csr generate_dataset(PageRankDataset dataset, SizePreset preset) {
  // Scales: tiny for tests, small ~1/200 of the crawls, medium ~1/30.
  const int s = static_cast<int>(preset);
  switch (dataset) {
    case PageRankDataset::kUk2002: {
      // 18M vertices, 298M edges, strong URL locality. The paper-shape
      // preset reuses the medium graph: the task graph's node count and
      // dependence structure are set by the block count, not |V|.
      const graph::Vertex nv[] = {4000, 90'000, 600'000, 600'000};
      return graph::make_windowed_random(nv[s], 16, nv[s] / 64 + 1, 0.9, 2002);
    }
    case PageRankDataset::kTwitter2010: {
      // 41M vertices, 1.47G edges, heavy degree skew (R-MAT a=0.57).
      const std::uint32_t scale[] = {12, 17, 20, 20};
      graph::RmatParams p;
      p.scale = scale[s];
      p.avg_degree = 24;
      p.seed = 2010;
      return graph::make_rmat(p);
    }
    case PageRankDataset::kUk200705: {
      // 105M vertices, 3.73G edges: larger, still crawl-local.
      const graph::Vertex nv[] = {6000, 220'000, 1'500'000, 1'500'000};
      return graph::make_windowed_random(nv[s], 12, nv[s] / 48 + 1, 0.85, 2007);
    }
  }
  NABBITC_CHECK(false);
  return {};
}

DatasetConfig dataset_config(PageRankDataset dataset, SizePreset preset) {
  // The paper uses 10 iterations and ~180/410/1050 blocks (task graph nodes
  // / iterations). We keep 10 iterations (3 for tiny) and scale blocks.
  const bool tiny = preset == SizePreset::kTiny;
  const bool paper = preset == SizePreset::kPaper;
  const std::uint32_t iters = tiny ? 3 : 10;
  switch (dataset) {
    case PageRankDataset::kUk2002:
      return {"page-uk-2002", tiny ? 16u : 180u, iters, 24};
    case PageRankDataset::kTwitter2010:
      return {"page-twitter-2010", tiny ? 16u : 410u, iters, 24};
    case PageRankDataset::kUk200705:
      // Paper: 10500 nodes / 10 iterations = 1050 blocks.
      return {"page-uk-2007-05", tiny ? 16u : (paper ? 1050u : 256u), iters, 24};
  }
  NABBITC_CHECK(false);
  return {};
}

PageRankWorkload::PageRankWorkload(PageRankDataset dataset, SizePreset preset)
    : cfg_(dataset_config(dataset, preset)),
      out_(generate_dataset(dataset, preset)),
      in_(out_.transpose()),
      part_(out_.num_vertices(), cfg_.num_blocks) {
  max_out_degree_ = out_.max_degree();
  // A task (t, b) must wait for two block sets at t-1: the gather sources
  // it READS (blocks holding in-neighbours of b's vertices), and the blocks
  // that read b's t-2 ranks — (t, b) overwrites the ranks_[(t) & 1] slots
  // those readers gather from (double buffering), so omitting the reader
  // set is a write-after-read hazard. The two relations are transposes of
  // each other and only coincide for symmetric graphs; degree-skewed
  // datasets (R-MAT / twitter) genuinely diverge. The hazard was latent
  // under the sink-backward dynamic executors' usual orders and surfaced by
  // plan-replay equivalence checksums, which execute root-forward.
  block_deps_ = graph::block_dependencies(in_, part_);
  {
    const auto readers = graph::block_dependencies(out_, part_);
    for (std::uint32_t b = 0; b < cfg_.num_blocks; ++b) {
      auto& d = block_deps_[b];
      std::vector<std::uint32_t> merged;
      merged.reserve(d.size() + readers[b].size());
      std::set_union(d.begin(), d.end(), readers[b].begin(), readers[b].end(),
                     std::back_inserter(merged));
      d = std::move(merged);
      barrier_fallback_ = barrier_fallback_ || d.size() > cfg_.dep_cap;
    }
  }
  inv_outdeg_.resize(static_cast<std::size_t>(out_.num_vertices()));
  for (graph::Vertex v = 0; v < out_.num_vertices(); ++v) {
    const auto d = out_.degree(v);
    inv_outdeg_[static_cast<std::size_t>(v)] =
        d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  }
}

// Keys: major = iteration; minor = block id, or num_blocks for the
// per-iteration barrier node. Iteration 0 = rank initialization.
class PageRankNode final : public nabbit::TaskGraphNode {
 public:
  explicit PageRankNode(PageRankWorkload* w) : w_(w) {}

  void init(nabbit::ExecContext&) override {
    const std::uint32_t t = key_major(key());
    const std::uint32_t b = key_minor(key());
    const std::uint32_t nb = w_->num_blocks();
    if (t == 0) {
      if (b == nb) {  // barrier over the init tasks
        for (std::uint32_t i = 0; i < nb; ++i) add_predecessor(key_pack(0, i));
      }
      return;  // init tasks have no predecessors
    }
    if (b == nb) {  // iteration barrier
      for (std::uint32_t i = 0; i < nb; ++i) add_predecessor(key_pack(t, i));
      return;
    }
    const auto& deps = w_->deps_of(b);
    if (deps.size() > w_->dep_cap()) {
      add_predecessor(key_pack(t - 1, nb));  // barrier fallback
    } else {
      for (std::uint32_t s : deps) add_predecessor(key_pack(t - 1, s));
    }
  }

  void compute(nabbit::ExecContext&) override {
    const std::uint32_t t = key_major(key());
    const std::uint32_t b = key_minor(key());
    if (b == w_->num_blocks()) return;  // barrier is a no-op
    if (t == 0) {
      w_->init_block(b);
    } else {
      w_->compute_block(t, b);
    }
  }

 private:
  PageRankWorkload* w_;
};

class PageRankSpec final : public nabbit::GraphSpec {
 public:
  PageRankSpec(PageRankWorkload* w, std::uint32_t num_colors,
               nabbit::ColoringMode mode)
      : w_(w), blocks_(w->num_blocks(), num_colors), mode_(mode) {}

  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<PageRankNode>(w_);
  }
  numa::Color color_of(Key k) const override {
    return nabbit::apply_coloring(data_color_of(k), mode_, blocks_.num_colors());
  }

  numa::Color data_color_of(Key k) const override {
    std::uint32_t b = key_minor(k);
    if (b == w_->num_blocks()) b = 0;  // barrier rides with block 0
    return blocks_.owner(b);
  }
  std::size_t expected_nodes() const override { return w_->num_tasks(); }

 private:
  PageRankWorkload* w_;
  numa::BlockDistribution blocks_;
  nabbit::ColoringMode mode_;
};

std::unique_ptr<nabbit::GraphSpec> PageRankWorkload::make_taskgraph_spec(
    std::uint32_t num_colors, nabbit::ColoringMode coloring) {
  return std::make_unique<PageRankSpec>(this, num_colors, coloring);
}

nabbit::Key PageRankWorkload::taskgraph_sink() const {
  return key_pack(cfg_.iterations, cfg_.num_blocks);  // final barrier = sink
}

}  // namespace

std::unique_ptr<Workload> make_pagerank(PageRankDataset dataset, SizePreset preset) {
  return std::make_unique<PageRankWorkload>(dataset, preset);
}

}  // namespace nabbitc::wl
