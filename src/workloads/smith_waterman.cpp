#include "workloads/smith_waterman.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "nabbit/types.h"
#include "numa/distribution.h"
#include "support/check.h"
#include "support/rng.h"
#include "workloads/digest.h"

namespace nabbitc::wl {

using nabbit::Key;
using nabbit::key_major;
using nabbit::key_minor;
using nabbit::key_pack;

namespace {

constexpr std::int32_t kMatch = 3;
constexpr std::int32_t kMismatch = -1;
constexpr std::int32_t kNegInf = INT32_MIN / 4;

std::int32_t score(std::uint8_t a, std::uint8_t b) noexcept {
  return a == b ? kMatch : kMismatch;
}

std::vector<std::uint8_t> random_sequence(std::int64_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 19);
  std::vector<std::uint8_t> s(static_cast<std::size_t>(n));
  for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(4));
  return s;
}

// -------------------------------------------------------------------------
// Shared wavefront scaffolding: serial / loop / task-graph / costs over a
// blocks grid where (bi, bj) depends on left, top (and optionally diag).

class WavefrontWorkload : public Workload {
 public:
  WavefrontWorkload(std::int64_t n, std::int64_t m, std::int64_t block,
                    bool diag_dep)
      : n_(n), m_(m), block_(block), diag_dep_(diag_dep) {
    NABBITC_CHECK(n_ > 0 && m_ > 0 && block_ > 0);
    nbi_ = static_cast<std::uint32_t>((n_ + block_ - 1) / block_);
    nbj_ = static_cast<std::uint32_t>((m_ + block_ - 1) / block_);
  }

  std::string problem_string() const override {
    std::ostringstream os;
    os << "n=m=" << n_ << ", B=" << block_ << "x" << block_;
    return os.str();
  }
  std::uint64_t num_tasks() const override {
    return static_cast<std::uint64_t>(nbi_) * nbj_;
  }
  std::uint32_t iterations() const override { return 1; }

  void prepare(std::uint32_t /*num_colors*/) override { init_data(); }
  void reset() override { init_data(); }

  void run_serial() override {
    for (std::uint32_t bi = 0; bi < nbi_; ++bi) {
      for (std::uint32_t bj = 0; bj < nbj_; ++bj) compute_block(bi, bj);
    }
  }

  void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) override {
    // The paper's OpenMP implementation: one parallel loop per antidiagonal
    // with an implicit barrier between diagonals.
    for (std::uint32_t d = 0; d < nbi_ + nbj_ - 1; ++d) {
      const std::uint32_t bi_lo = d >= nbj_ ? d - nbj_ + 1 : 0;
      const std::uint32_t bi_hi = std::min(d, nbi_ - 1);
      pool.parallel_for_chunks(
          bi_lo, static_cast<std::int64_t>(bi_hi) + 1, schedule, 1,
          [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
            for (std::int64_t bi = lo; bi < hi; ++bi) {
              compute_block(static_cast<std::uint32_t>(bi),
                            d - static_cast<std::uint32_t>(bi));
            }
          });
    }
  }

  std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) override;
  nabbit::Key taskgraph_sink() const override;

  double node_cost(nabbit::Key k) const override {
    return block_cost(key_major(k), key_minor(k));
  }

  // --- structure ----------------------------------------------------------
  std::uint32_t nbi() const noexcept { return nbi_; }
  std::uint32_t nbj() const noexcept { return nbj_; }
  bool diag_dep() const noexcept { return diag_dep_; }

  /// Computes one block; must be safe to call concurrently for independent
  /// blocks once its dependences are satisfied.
  virtual void compute_block(std::uint32_t bi, std::uint32_t bj) = 0;

 protected:
  virtual void init_data() = 0;
  virtual double block_cost(std::uint32_t bi, std::uint32_t bj) const = 0;

  std::int64_t cell_lo_i(std::uint32_t bi) const noexcept { return bi * block_ + 1; }
  std::int64_t cell_hi_i(std::uint32_t bi) const noexcept {
    return std::min<std::int64_t>(n_, (bi + 1) * static_cast<std::int64_t>(block_)) + 1;
  }
  std::int64_t cell_lo_j(std::uint32_t bj) const noexcept { return bj * block_ + 1; }
  std::int64_t cell_hi_j(std::uint32_t bj) const noexcept {
    return std::min<std::int64_t>(m_, (bj + 1) * static_cast<std::int64_t>(block_)) + 1;
  }

  std::int64_t n_, m_, block_;
  bool diag_dep_;
  std::uint32_t nbi_, nbj_;
};

class WavefrontNode final : public nabbit::TaskGraphNode {
 public:
  explicit WavefrontNode(WavefrontWorkload* w) : w_(w) {}

  void init(nabbit::ExecContext&) override {
    const std::uint32_t bi = key_major(key()), bj = key_minor(key());
    if (bj > 0) add_predecessor(key_pack(bi, bj - 1));
    if (bi > 0) add_predecessor(key_pack(bi - 1, bj));
    if (w_->diag_dep() && bi > 0 && bj > 0) add_predecessor(key_pack(bi - 1, bj - 1));
  }

  void compute(nabbit::ExecContext&) override {
    w_->compute_block(key_major(key()), key_minor(key()));
  }

 private:
  WavefrontWorkload* w_;
};

class WavefrontSpec final : public nabbit::GraphSpec {
 public:
  WavefrontSpec(WavefrontWorkload* w, std::uint32_t num_colors,
                nabbit::ColoringMode mode)
      : w_(w), rows_(w->nbi(), num_colors), mode_(mode) {}

  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<WavefrontNode>(w_);
  }
  numa::Color color_of(Key k) const override {
    return nabbit::apply_coloring(data_color_of(k), mode_, rows_.num_colors());
  }

  // A block's data lives with its row of blocks.
  numa::Color data_color_of(Key k) const override {
    return rows_.owner(key_major(k));
  }
  std::size_t expected_nodes() const override { return w_->num_tasks(); }

 private:
  WavefrontWorkload* w_;
  numa::BlockDistribution rows_;
  nabbit::ColoringMode mode_;
};

std::unique_ptr<nabbit::GraphSpec> WavefrontWorkload::make_taskgraph_spec(
    std::uint32_t num_colors, nabbit::ColoringMode coloring) {
  return std::make_unique<WavefrontSpec>(this, num_colors, coloring);
}

nabbit::Key WavefrontWorkload::taskgraph_sink() const {
  // The bottom-right block is the unique sink of the wavefront.
  return key_pack(nbi_ - 1, nbj_ - 1);
}

// -------------------------------------------------------------------- sw n^3

class SwCubicWorkload final : public WavefrontWorkload {
 public:
  SwCubicWorkload(std::int64_t n, std::int64_t m, std::int64_t block)
      : WavefrontWorkload(n, m, block, /*diag_dep=*/false) {}

  const char* name() const override { return "sw"; }

  void compute_block(std::uint32_t bi, std::uint32_t bj) override {
    const std::int64_t w = m_ + 1;
    for (std::int64_t i = cell_lo_i(bi); i < cell_hi_i(bi); ++i) {
      for (std::int64_t j = cell_lo_j(bj); j < cell_hi_j(bj); ++j) {
        std::int32_t best = 0;
        best = std::max(best, h_[(i - 1) * w + j - 1] + score(a_[i - 1], b_[j - 1]));
        // General (concave, non-affine) gap penalty: the row/column scans
        // cannot be carried incrementally, giving the O(n^3) total.
        for (std::int64_t k = 0; k < j; ++k) {
          best = std::max(best, h_[i * w + k] - gap_[j - k]);
        }
        for (std::int64_t k = 0; k < i; ++k) {
          best = std::max(best, h_[k * w + j] - gap_[i - k]);
        }
        h_[i * w + j] = best;
      }
    }
  }

  std::uint64_t checksum() const override {
    Digest d;
    d.add_vector(h_);
    return d.value();
  }

 protected:
  void init_data() override {
    a_ = random_sequence(n_, 101);
    b_ = random_sequence(m_, 202);
    h_.assign(static_cast<std::size_t>((n_ + 1) * (m_ + 1)), 0);
    const std::int64_t maxlen = std::max(n_, m_) + 1;
    gap_.resize(static_cast<std::size_t>(maxlen));
    for (std::int64_t k = 0; k < maxlen; ++k) {
      // Concave: g(k) = 2 + k + floor(sqrt(k)). Increasing and sub-additive
      // enough to defeat the affine-gap O(1) recurrence.
      gap_[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(
          2 + k + static_cast<std::int64_t>(std::sqrt(static_cast<double>(k))));
    }
  }

  double block_cost(std::uint32_t bi, std::uint32_t bj) const override {
    // Each cell scans i + j previous entries.
    double cells = static_cast<double>(cell_hi_i(bi) - cell_lo_i(bi)) *
                   static_cast<double>(cell_hi_j(bj) - cell_lo_j(bj));
    double mid = static_cast<double>(cell_lo_i(bi) + cell_hi_i(bi)) / 2.0 +
                 static_cast<double>(cell_lo_j(bj) + cell_hi_j(bj)) / 2.0;
    return cells * mid;
  }

 private:
  std::vector<std::uint8_t> a_, b_;
  std::vector<std::int32_t> h_;
  std::vector<std::int32_t> gap_;
};

// ------------------------------------------------------------------- sw n^2

class SwAffineWorkload final : public WavefrontWorkload {
 public:
  SwAffineWorkload(std::int64_t n, std::int64_t m, std::int64_t block)
      : WavefrontWorkload(n, m, block, /*diag_dep=*/true) {}

  const char* name() const override { return "swn2"; }

  void compute_block(std::uint32_t bi, std::uint32_t bj) override {
    const std::int64_t ilo = cell_lo_i(bi), ihi = cell_hi_i(bi);
    const std::int64_t jlo = cell_lo_j(bj), jhi = cell_hi_j(bj);
    const std::int64_t bw = jhi - jlo, bh = ihi - ilo;
    constexpr std::int32_t kOpen = 2, kExtend = 1;

    // Scratch: one H row above the current one plus running E (per column
    // handled row-wise) — we keep a full (bh+1) x (bw+1) H tile and F row
    // carried down, E carried right.
    std::vector<std::int32_t> h((bh + 1) * (bw + 1), 0);
    std::vector<std::int32_t> f(bw + 1, kNegInf);
    auto H = [&](std::int64_t r, std::int64_t c) -> std::int32_t& {
      return h[r * (bw + 1) + c];
    };

    // Halo row 0 / col 0 from neighbor boundaries.
    H(0, 0) = (bi > 0 && bj > 0) ? corner_[(bi - 1) * nbj_ + (bj - 1)] : 0;
    for (std::int64_t c = 1; c <= bw; ++c) {
      H(0, c) = bi > 0 ? bot_h_[((bi - 1) * nbj_ + bj) * block_ + (c - 1)] : 0;
      f[c] = bi > 0 ? bot_f_[((bi - 1) * nbj_ + bj) * block_ + (c - 1)] : kNegInf;
    }
    for (std::int64_t r = 1; r <= bh; ++r) {
      H(r, 0) = bj > 0 ? right_h_[(bi * nbj_ + (bj - 1)) * block_ + (r - 1)] : 0;
    }

    for (std::int64_t r = 1; r <= bh; ++r) {
      const std::int64_t i = ilo + r - 1;
      std::int32_t e = bj > 0 ? right_e_[(bi * nbj_ + (bj - 1)) * block_ + (r - 1)]
                              : kNegInf;
      for (std::int64_t c = 1; c <= bw; ++c) {
        const std::int64_t j = jlo + c - 1;
        e = std::max(e, H(r, c - 1) - kOpen) - kExtend;
        f[c] = std::max(f[c], H(r - 1, c) - kOpen) - kExtend;
        std::int32_t best = std::max(
            0, H(r - 1, c - 1) + score(a_[i - 1], b_[j - 1]));
        best = std::max({best, e, f[c]});
        H(r, c) = best;
        block_max_[bi * nbj_ + bj] = std::max(block_max_[bi * nbj_ + bj], best);
      }
      right_e_[(bi * nbj_ + bj) * block_ + (r - 1)] = e;
      right_h_[(bi * nbj_ + bj) * block_ + (r - 1)] = H(r, bw);
    }
    for (std::int64_t c = 1; c <= bw; ++c) {
      bot_h_[(bi * nbj_ + bj) * block_ + (c - 1)] = H(bh, c);
      bot_f_[(bi * nbj_ + bj) * block_ + (c - 1)] = f[c];
    }
    corner_[bi * nbj_ + bj] = H(bh, bw);
  }

  std::uint64_t checksum() const override {
    Digest d;
    d.add_vector(bot_h_);
    d.add_vector(right_h_);
    d.add_vector(corner_);
    d.add_vector(block_max_);
    return d.value();
  }

 protected:
  void init_data() override {
    a_ = random_sequence(n_, 303);
    b_ = random_sequence(m_, 404);
    const std::size_t nb = static_cast<std::size_t>(nbi_) * nbj_;
    bot_h_.assign(nb * block_, 0);
    bot_f_.assign(nb * block_, kNegInf);
    right_h_.assign(nb * block_, 0);
    right_e_.assign(nb * block_, kNegInf);
    corner_.assign(nb, 0);
    block_max_.assign(nb, 0);
  }

  double block_cost(std::uint32_t bi, std::uint32_t bj) const override {
    return static_cast<double>(cell_hi_i(bi) - cell_lo_i(bi)) *
           static_cast<double>(cell_hi_j(bj) - cell_lo_j(bj));
  }

 private:
  std::vector<std::uint8_t> a_, b_;
  // Per-block boundary storage (O(n^2 / B) total).
  std::vector<std::int32_t> bot_h_, bot_f_, right_h_, right_e_;
  std::vector<std::int32_t> corner_;
  std::vector<std::int32_t> block_max_;
};

}  // namespace

std::unique_ptr<Workload> make_sw(SizePreset preset) {
  switch (preset) {
    case SizePreset::kTiny:
      return std::make_unique<SwCubicWorkload>(128, 128, 16);
    case SizePreset::kSmall:
      return std::make_unique<SwCubicWorkload>(512, 512, 32);
    case SizePreset::kMedium:
      return std::make_unique<SwCubicWorkload>(1024, 1024, 32);
    case SizePreset::kPaper:
      // Table I: n = m = 5120, B = 32x32, 25600 nodes (simulator-only).
      return std::make_unique<SwCubicWorkload>(5120, 5120, 32);
  }
  return nullptr;
}

std::unique_ptr<Workload> make_swn2(SizePreset preset) {
  switch (preset) {
    case SizePreset::kTiny:
      return std::make_unique<SwAffineWorkload>(512, 512, 64);
    case SizePreset::kSmall:
      return std::make_unique<SwAffineWorkload>(4096, 4096, 128);
    case SizePreset::kMedium:
      return std::make_unique<SwAffineWorkload>(8192, 8192, 128);
    case SizePreset::kPaper:
      // Table I: n = m = 131072, B = 1024x1024, 16384 nodes (simulator-only).
      return std::make_unique<SwAffineWorkload>(131072, 131072, 1024);
  }
  return nullptr;
}

}  // namespace nabbitc::wl
