#include "workloads/cg.h"

#include <sstream>
#include <vector>

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

// Phases within an iteration (encoded in the key's minor field).
enum Phase : std::uint32_t {
  kSetup = 0,    // iteration 0 only: r = b, p = r, rr partials
  kMatvec = 1,   // q_b = A_b p
  kDotPq = 2,    // partial_pq[b]
  kAlpha = 3,    // alpha = rr / sum(partial_pq)
  kAxpy = 4,     // x += alpha p ; r -= alpha q
  kDotRr = 5,    // partial_rr[b]
  kRrReduce = 6, // rr' = sum(partial_rr); beta = rr'/rr
  kPUpdate = 7,  // p = r + beta p
};

constexpr std::uint32_t kPhaseShift = 16;
constexpr Key make_key(std::uint32_t iter, std::uint32_t phase, std::uint32_t b) {
  return key_pack(iter, (phase << kPhaseShift) | b);
}
constexpr std::uint32_t key_phase(Key k) { return key_minor(k) >> kPhaseShift; }
constexpr std::uint32_t key_block(Key k) {
  return key_minor(k) & ((1u << kPhaseShift) - 1);
}

struct CgConfig {
  graph::Vertex n;
  std::int64_t nnz_per_row;
  std::uint32_t blocks;
  std::uint32_t iterations;
};

CgConfig cg_config(SizePreset preset) {
  switch (preset) {
    case SizePreset::kTiny:
      return {2000, 8, 4, 3};
    case SizePreset::kSmall:
      // ~300 task-graph nodes, like the paper's cg configuration.
      return {60'000, 16, 12, 5};
    case SizePreset::kMedium:
      return {300'000, 24, 16, 8};
    case SizePreset::kPaper:
      // The paper's cg task graph has ~300 nodes; the small configuration
      // already matches that shape (the matrix dimension only scales node
      // costs uniformly, which the simulator normalizes away).
      return {60'000, 16, 12, 5};
  }
  return {60'000, 16, 12, 5};
}

class CgWorkload final : public Workload {
 public:
  explicit CgWorkload(SizePreset preset)
      : cfg_(cg_config(preset)),
        pattern_(graph::make_spd_pattern(cfg_.n, cfg_.nnz_per_row, 42)) {
    build_matrix();
  }

  const char* name() const override { return "cg"; }
  std::string problem_string() const override {
    std::ostringstream os;
    os << "NA=" << cfg_.n << ", NNZ~" << cfg_.nnz_per_row << "/row, K="
       << cfg_.iterations;
    return os.str();
  }
  std::uint64_t num_tasks() const override {
    // setup blocks + rr0 reduce + per iteration: 4 block phases + 2 reduces,
    // + a p-update phase in every iteration but the last.
    return cfg_.blocks + 1 +
           static_cast<std::uint64_t>(cfg_.iterations) * (4 * cfg_.blocks + 2) +
           static_cast<std::uint64_t>(cfg_.iterations - 1) * cfg_.blocks;
  }
  std::uint32_t iterations() const override { return cfg_.iterations; }

  void prepare(std::uint32_t /*num_colors*/) override { reset(); }

  void reset() override {
    const auto n = static_cast<std::size_t>(cfg_.n);
    x_.assign(n, 0.0);
    r_.assign(n, 0.0);
    p_.assign(n, 0.0);
    q_.assign(n, 0.0);
    partial_pq_.assign(cfg_.blocks, 0.0);
    partial_rr_.assign(cfg_.blocks, 0.0);
    rr_.assign(cfg_.iterations + 1, 0.0);
    alpha_.assign(cfg_.iterations + 1, 0.0);
    beta_.assign(cfg_.iterations + 1, 0.0);
  }

  // --- task bodies ---------------------------------------------------------
  std::int64_t row_lo(std::uint32_t b) const {
    return static_cast<std::int64_t>(b) * ((cfg_.n + cfg_.blocks - 1) / cfg_.blocks);
  }
  std::int64_t row_hi(std::uint32_t b) const {
    return std::min<std::int64_t>(cfg_.n, row_lo(b + 1));
  }

  void do_setup(std::uint32_t b) {
    double acc = 0.0;
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      r_[ii] = rhs(i);
      p_[ii] = r_[ii];
      acc += r_[ii] * r_[ii];
    }
    partial_rr_[b] = acc;
  }

  void do_rr_reduce(std::uint32_t t) {
    double acc = 0.0;
    for (std::uint32_t b = 0; b < cfg_.blocks; ++b) acc += partial_rr_[b];
    rr_[t] = acc;
    if (t > 0) beta_[t] = rr_[t - 1] != 0.0 ? rr_[t] / rr_[t - 1] : 0.0;
  }

  void do_matvec(std::uint32_t b) {
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      double acc = diag_[ii] * p_[ii];
      for (auto e = pattern_.edge_begin(i); e < pattern_.edge_end(i); ++e) {
        acc += vals_[static_cast<std::size_t>(e)] *
               p_[static_cast<std::size_t>(pattern_.edge_target(e))];
      }
      q_[ii] = acc;
    }
  }

  void do_dot_pq(std::uint32_t b) {
    double acc = 0.0;
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      acc += p_[ii] * q_[ii];
    }
    partial_pq_[b] = acc;
  }

  void do_alpha(std::uint32_t t) {
    double pq = 0.0;
    for (std::uint32_t b = 0; b < cfg_.blocks; ++b) pq += partial_pq_[b];
    alpha_[t] = pq != 0.0 ? rr_[t - 1] / pq : 0.0;
  }

  void do_axpy(std::uint32_t t, std::uint32_t b) {
    const double a = alpha_[t];
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      x_[ii] += a * p_[ii];
      r_[ii] -= a * q_[ii];
    }
  }

  void do_dot_rr(std::uint32_t b) {
    double acc = 0.0;
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      acc += r_[ii] * r_[ii];
    }
    partial_rr_[b] = acc;
  }

  void do_p_update(std::uint32_t t, std::uint32_t b) {
    const double bb = beta_[t];
    for (auto i = row_lo(b); i < row_hi(b); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      p_[ii] = r_[ii] + bb * p_[ii];
    }
  }

  void run_phase(std::uint32_t t, std::uint32_t phase, std::uint32_t b) {
    switch (phase) {
      case kSetup:
        do_setup(b);
        break;
      case kMatvec:
        do_matvec(b);
        break;
      case kDotPq:
        do_dot_pq(b);
        break;
      case kAlpha:
        do_alpha(t);
        break;
      case kAxpy:
        do_axpy(t, b);
        break;
      case kDotRr:
        do_dot_rr(b);
        break;
      case kRrReduce:
        do_rr_reduce(t);
        break;
      case kPUpdate:
        do_p_update(t, b);
        break;
      default:
        NABBITC_CHECK(false);
    }
  }

  // --- runs ------------------------------------------------------------------
  void run_serial() override {
    for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_setup(b);
    do_rr_reduce(0);
    for (std::uint32_t t = 1; t <= cfg_.iterations; ++t) {
      for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_matvec(b);
      for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_dot_pq(b);
      do_alpha(t);
      for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_axpy(t, b);
      for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_dot_rr(b);
      do_rr_reduce(t);
      if (t < cfg_.iterations) {
        for (std::uint32_t b = 0; b < cfg_.blocks; ++b) do_p_update(t, b);
      }
    }
  }

  void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) override {
    auto for_blocks = [&](auto&& body) {
      pool.parallel_for_chunks(0, cfg_.blocks, schedule, 1,
                               [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
                                 for (std::int64_t b = lo; b < hi; ++b) {
                                   body(static_cast<std::uint32_t>(b));
                                 }
                               });
    };
    for_blocks([&](std::uint32_t b) { do_setup(b); });
    do_rr_reduce(0);
    for (std::uint32_t t = 1; t <= cfg_.iterations; ++t) {
      for_blocks([&](std::uint32_t b) { do_matvec(b); });
      for_blocks([&](std::uint32_t b) { do_dot_pq(b); });
      do_alpha(t);
      for_blocks([&](std::uint32_t b) { do_axpy(t, b); });
      for_blocks([&](std::uint32_t b) { do_dot_rr(b); });
      do_rr_reduce(t);
      if (t < cfg_.iterations) {
        for_blocks([&](std::uint32_t b) { do_p_update(t, b); });
      }
    }
  }

  std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) override;
  nabbit::Key taskgraph_sink() const override;

  std::uint64_t checksum() const override {
    Digest d;
    d.add_vector(x_);
    d.add_vector(rr_);
    return d.value();
  }

  double node_cost(Key k) const override {
    return phase_cost(key_phase(k), key_block(k));
  }

  // --- structure -------------------------------------------------------------
  std::uint32_t num_blocks() const noexcept { return cfg_.blocks; }
  double phase_cost(std::uint32_t phase, std::uint32_t b) const {
    const double rows = static_cast<double>(row_hi(b) - row_lo(b));
    switch (phase) {
      case kMatvec:
        return rows * static_cast<double>(cfg_.nnz_per_row + 1);
      case kAlpha:
      case kRrReduce:
        return static_cast<double>(cfg_.blocks);
      default:
        return rows;
    }
  }

 private:
  friend class CgNode;

  double rhs(std::int64_t i) const noexcept {
    auto h = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return 0.5 + static_cast<double>(h % 1000) / 1000.0;
  }

  void build_matrix() {
    const auto n = static_cast<std::size_t>(cfg_.n);
    vals_.resize(static_cast<std::size_t>(pattern_.num_edges()));
    diag_.assign(n, 1.0);
    for (graph::Vertex i = 0; i < cfg_.n; ++i) {
      double rowsum = 0.0;
      for (auto e = pattern_.edge_begin(i); e < pattern_.edge_end(i); ++e) {
        const auto j = pattern_.edge_target(e);
        // Symmetric deterministic off-diagonal value in (-1, 0).
        const auto lo = i < j ? i : j, hi = i < j ? j : i;
        auto h = static_cast<std::uint64_t>(lo) * 1000003ULL +
                 static_cast<std::uint64_t>(hi);
        h ^= h >> 31;
        const double v = -0.25 - 0.5 * static_cast<double>(h % 997) / 997.0;
        vals_[static_cast<std::size_t>(e)] = v;
        rowsum += -v;
      }
      diag_[static_cast<std::size_t>(i)] = rowsum + 1.0;  // diagonally dominant
    }
  }

  CgConfig cfg_;
  graph::Csr pattern_;
  std::vector<double> vals_, diag_;
  std::vector<double> x_, r_, p_, q_;
  std::vector<double> partial_pq_, partial_rr_;
  std::vector<double> rr_, alpha_, beta_;
};

class CgNode final : public nabbit::TaskGraphNode {
 public:
  explicit CgNode(CgWorkload* w) : w_(w) {}

  void init(nabbit::ExecContext&) override {
    const std::uint32_t t = key_major(key());
    const std::uint32_t phase = key_phase(key());
    const std::uint32_t nb = w_->num_blocks();
    switch (phase) {
      case kSetup:
        break;  // sources
      case kMatvec:
        // Reads the whole p vector: depends on every p-update (or setup) of
        // the previous iteration. The matrix is unstructured, so this is a
        // genuinely dense dependence (few nodes, little locality — the
        // paper's observation for cg).
        for (std::uint32_t b = 0; b < nb; ++b) {
          add_predecessor(t == 1 ? make_key(0, kSetup, b)
                                 : make_key(t - 1, kPUpdate, b));
        }
        break;
      case kDotPq:
        add_predecessor(make_key(t, kMatvec, key_block(key())));
        break;
      case kAlpha:
        for (std::uint32_t b = 0; b < nb; ++b) add_predecessor(make_key(t, kDotPq, b));
        add_predecessor(make_key(t - 1, kRrReduce, 0));
        break;
      case kAxpy:
        add_predecessor(make_key(t, kAlpha, 0));
        break;
      case kDotRr:
        add_predecessor(make_key(t, kAxpy, key_block(key())));
        break;
      case kRrReduce:
        if (t == 0) {
          for (std::uint32_t b = 0; b < nb; ++b) {
            add_predecessor(make_key(0, kSetup, b));
          }
        } else {
          for (std::uint32_t b = 0; b < nb; ++b) {
            add_predecessor(make_key(t, kDotRr, b));
          }
        }
        break;
      case kPUpdate:
        add_predecessor(make_key(t, kRrReduce, 0));
        break;
      default:
        NABBITC_CHECK(false);
    }
  }

  void compute(nabbit::ExecContext&) override {
    w_->run_phase(key_major(key()), key_phase(key()), key_block(key()));
  }

 private:
  CgWorkload* w_;
};

class CgSpec final : public nabbit::GraphSpec {
 public:
  CgSpec(CgWorkload* w, std::uint32_t num_colors, nabbit::ColoringMode mode)
      : w_(w), blocks_(w->num_blocks(), num_colors), mode_(mode) {}

  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<CgNode>(w_);
  }
  numa::Color color_of(Key k) const override {
    return nabbit::apply_coloring(data_color_of(k), mode_, blocks_.num_colors());
  }

  // The reduces (block field 0) ride with block 0.
  numa::Color data_color_of(Key k) const override {
    return blocks_.owner(key_block(k));
  }
  std::size_t expected_nodes() const override { return w_->num_tasks(); }

 private:
  CgWorkload* w_;
  numa::BlockDistribution blocks_;
  nabbit::ColoringMode mode_;
};

std::unique_ptr<nabbit::GraphSpec> CgWorkload::make_taskgraph_spec(
    std::uint32_t num_colors, nabbit::ColoringMode coloring) {
  return std::make_unique<CgSpec>(this, num_colors, coloring);
}

nabbit::Key CgWorkload::taskgraph_sink() const {
  return make_key(cfg_.iterations, kRrReduce, 0);
}

}  // namespace

std::unique_ptr<Workload> make_cg(SizePreset preset) {
  return std::make_unique<CgWorkload>(preset);
}

}  // namespace nabbitc::wl
