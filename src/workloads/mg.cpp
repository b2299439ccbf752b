#include "workloads/mg.h"

#include <algorithm>
#include <sstream>
#include <vector>

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

struct MgConfig {
  std::int64_t n;        // finest grid edge (power of two)
  std::uint32_t levels;  // n >> (levels-1) >= 4
  std::int64_t slab;     // z-slab thickness at the finest level
  std::uint32_t smooth_sweeps;
  std::uint32_t coarse_sweeps;
};

MgConfig mg_config(SizePreset preset) {
  switch (preset) {
    case SizePreset::kTiny:
      return {16, 2, 4, 1, 2};
    case SizePreset::kSmall:
      return {64, 4, 4, 2, 4};
    case SizePreset::kMedium:
      return {128, 5, 4, 2, 4};
    case SizePreset::kPaper:
      // Table I shape: 2048^3 grid, ~16k task-graph nodes (simulator-only).
      return {2048, 9, 2, 2, 4};
  }
  return {64, 4, 4, 2, 4};
}

enum class MgOp : std::uint8_t { kSmooth, kRestrict, kProlong };

/// One phase of the V-cycle: an operation on one level, over that level's
/// z-slabs, with fixed source/destination smoothing buffers.
struct MgPhase {
  MgOp op;
  std::uint32_t level;       // level the phase's blocks live on
  std::uint32_t num_blocks;  // z-slab count at that level
  std::uint8_t src_buf;      // smoothing: read buffer index
  std::uint8_t dst_buf;      // smoothing: write buffer index
};

class MgWorkload final : public Workload {
 public:
  explicit MgWorkload(SizePreset preset) : cfg_(mg_config(preset)) {
    NABBITC_CHECK((cfg_.n >> (cfg_.levels - 1)) >= 4);
    build_structure();
  }

  const char* name() const override { return "mg"; }
  std::string problem_string() const override {
    std::ostringstream os;
    os << "n=" << cfg_.n << "^3, levels=" << cfg_.levels;
    return os.str();
  }
  std::uint64_t num_tasks() const override {
    std::uint64_t total = 1;  // sink
    for (const auto& ph : phases_) total += ph.num_blocks;
    return total;
  }
  std::uint32_t iterations() const override { return 1; }

  void prepare(std::uint32_t /*num_colors*/) override {
    NABBITC_CHECK_MSG(level_cells(0) <= (std::size_t{1} << 25),
                      "grid too large to materialize on this host — paper-scale "
                      "presets are simulator-only");
    reset();
  }

  void reset() override {
    for (std::uint32_t l = 0; l < cfg_.levels; ++l) {
      const std::size_t cells = level_cells(l);
      u_[0][l].assign(cells, 0.0);
      u_[1][l].assign(cells, 0.0);
      f_[l].assign(cells, 0.0);
    }
    // Deterministic right-hand side on the finest level.
    const std::int64_t n = cfg_.n;
    for (std::int64_t z = 0; z < n; ++z) {
      for (std::int64_t y = 0; y < n; ++y) {
        for (std::int64_t x = 0; x < n; ++x) {
          auto h = static_cast<std::uint64_t>((z * n + y) * n + x) *
                   0x9e3779b97f4a7c15ULL;
          h ^= h >> 33;
          f_[0][idx(0, z, y, x)] =
              static_cast<double>(h % 2000) / 1000.0 - 1.0;
        }
      }
    }
  }

  void run_serial() override {
    for (std::uint32_t p = 0; p < phases_.size(); ++p) {
      for (std::uint32_t b = 0; b < phases_[p].num_blocks; ++b) run_block(p, b);
    }
  }

  void run_loop(loop::ThreadPool& pool, loop::Schedule schedule) override {
    for (std::uint32_t p = 0; p < phases_.size(); ++p) {
      pool.parallel_for_chunks(
          0, phases_[p].num_blocks, schedule, 1,
          [&](std::uint32_t, std::int64_t lo, std::int64_t hi) {
            for (std::int64_t b = lo; b < hi; ++b) {
              run_block(p, static_cast<std::uint32_t>(b));
            }
          });
    }
  }

  std::unique_ptr<nabbit::GraphSpec> make_taskgraph_spec(
      std::uint32_t num_colors, nabbit::ColoringMode coloring) override;
  nabbit::Key taskgraph_sink() const override;

  std::uint64_t checksum() const override {
    Digest d;
    d.add_vector(u_[final_buf_][0]);
    return d.value();
  }

  double node_cost(Key k) const override {
    if (key_major(k) == num_phases()) return 1.0;  // sink
    return block_cost(key_major(k), key_minor(k));
  }

  // --- structure ------------------------------------------------------------
  std::uint32_t num_phases() const noexcept {
    return static_cast<std::uint32_t>(phases_.size());
  }
  const MgPhase& phase(std::uint32_t p) const { return phases_[p]; }

  /// Good color: slabs of a phase distributed evenly across colors.
  numa::Color block_owner(std::uint32_t p, std::uint32_t b,
                          std::uint32_t num_colors) const {
    return numa::BlockDistribution(phases_[p].num_blocks, num_colors).owner(b);
  }

  /// Blocks of phase p-1 that phase p's block b depends on (z-overlap with
  /// halo 1, rescaled between levels).
  void dep_blocks(std::uint32_t p, std::uint32_t b, std::uint32_t* lo,
                  std::uint32_t* hi) const {
    const MgPhase& cur = phases_[p];
    const MgPhase& prev = phases_[p - 1];
    const std::int64_t nz_cur = level_n(cur.level);
    const std::int64_t nz_prev = level_n(prev.level);
    std::int64_t zlo = slab_lo(cur.level, b) - 1;
    std::int64_t zhi = slab_hi(cur.level, b);  // inclusive z range end + halo
    // Map to the previous phase's level coordinates.
    zlo = zlo * nz_prev / nz_cur;
    zhi = (zhi + 1) * nz_prev / nz_cur;
    const std::int64_t slab_prev = slab_of(prev.level);
    std::int64_t blo = zlo / slab_prev;
    std::int64_t bhi = zhi / slab_prev + 1;
    blo = std::clamp<std::int64_t>(blo, 0, prev.num_blocks - 1);
    bhi = std::clamp<std::int64_t>(bhi, 1, prev.num_blocks);
    *lo = static_cast<std::uint32_t>(blo);
    *hi = static_cast<std::uint32_t>(bhi);
  }

  double block_cost(std::uint32_t p, std::uint32_t b) const {
    const MgPhase& ph = phases_[p];
    const std::int64_t n = level_n(ph.level);
    return static_cast<double>((slab_hi(ph.level, b) - slab_lo(ph.level, b)) * n * n);
  }

  void run_block(std::uint32_t p, std::uint32_t b) {
    const MgPhase& ph = phases_[p];
    switch (ph.op) {
      case MgOp::kSmooth:
        smooth_slab(ph.level, ph.src_buf, ph.dst_buf, slab_lo(ph.level, b),
                    slab_hi(ph.level, b));
        break;
      case MgOp::kRestrict:
        restrict_slab(ph.level, ph.src_buf, slab_lo(ph.level, b),
                      slab_hi(ph.level, b));
        break;
      case MgOp::kProlong:
        prolong_slab(ph.level, ph.src_buf, ph.dst_buf, slab_lo(ph.level, b),
                     slab_hi(ph.level, b));
        break;
    }
  }

 private:
  std::int64_t level_n(std::uint32_t l) const noexcept { return cfg_.n >> l; }
  std::size_t level_cells(std::uint32_t l) const noexcept {
    const std::int64_t n = level_n(l);
    return static_cast<std::size_t>(n * n * n);
  }
  std::int64_t slab_of(std::uint32_t l) const noexcept {
    // Halve the slab with the grid, but never below 2 planes.
    std::int64_t s = cfg_.slab >> l;
    return s < 2 ? 2 : s;
  }
  std::uint32_t blocks_of(std::uint32_t l) const noexcept {
    const std::int64_t n = level_n(l), s = slab_of(l);
    return static_cast<std::uint32_t>((n + s - 1) / s);
  }
  std::int64_t slab_lo(std::uint32_t l, std::uint32_t b) const noexcept {
    return static_cast<std::int64_t>(b) * slab_of(l);
  }
  std::int64_t slab_hi(std::uint32_t l, std::uint32_t b) const noexcept {
    return std::min(level_n(l), slab_lo(l, b) + slab_of(l));
  }
  std::size_t idx(std::uint32_t l, std::int64_t z, std::int64_t y,
                  std::int64_t x) const noexcept {
    const std::int64_t n = level_n(l);
    return static_cast<std::size_t>((z * n + y) * n + x);
  }

  void build_structure() {
    u_[0].resize(cfg_.levels);
    u_[1].resize(cfg_.levels);
    f_.resize(cfg_.levels);
    // Buffer parity per level tracks how many smoothing sweeps each level
    // has seen; deterministic, computed once.
    std::vector<std::uint8_t> cur(cfg_.levels, 0);
    auto add_smooth = [&](std::uint32_t l, std::uint32_t sweeps) {
      for (std::uint32_t s = 0; s < sweeps; ++s) {
        phases_.push_back(
            MgPhase{MgOp::kSmooth, l, blocks_of(l), cur[l],
                    static_cast<std::uint8_t>(1 - cur[l])});
        cur[l] = 1 - cur[l];
      }
    };
    // Down sweep.
    for (std::uint32_t l = 0; l + 1 < cfg_.levels; ++l) {
      add_smooth(l, cfg_.smooth_sweeps);
      // Restriction reads level l's current u and writes level l+1's f and
      // clears both u buffers of level l+1; blocks live on level l+1.
      phases_.push_back(MgPhase{MgOp::kRestrict, l + 1, blocks_of(l + 1),
                                cur[l], 0});
      cur[l + 1] = 0;
    }
    // Coarse solve.
    add_smooth(cfg_.levels - 1, cfg_.coarse_sweeps);
    // Up sweep.
    for (std::uint32_t l = cfg_.levels - 1; l-- > 0;) {
      // Prolongation adds level l+1's current u into level l's current u
      // in place; blocks live on level l.
      phases_.push_back(
          MgPhase{MgOp::kProlong, l, blocks_of(l), cur[l + 1], cur[l]});
      add_smooth(l, cfg_.smooth_sweeps);
    }
    final_buf_ = cur[0];
  }

  void smooth_slab(std::uint32_t l, std::uint8_t sb, std::uint8_t db,
                   std::int64_t zlo, std::int64_t zhi) {
    const std::int64_t n = level_n(l);
    const auto& src = u_[sb][l];
    auto& dst = u_[db][l];
    const auto& f = f_[l];
    auto at = [&](const std::vector<double>& g, std::int64_t z, std::int64_t y,
                  std::int64_t x) -> double {
      if (z < 0 || y < 0 || x < 0 || z >= n || y >= n || x >= n) return 0.0;
      return g[idx(l, z, y, x)];
    };
    for (std::int64_t z = zlo; z < zhi; ++z) {
      for (std::int64_t y = 0; y < n; ++y) {
        for (std::int64_t x = 0; x < n; ++x) {
          const double nb = at(src, z - 1, y, x) + at(src, z + 1, y, x) +
                            at(src, z, y - 1, x) + at(src, z, y + 1, x) +
                            at(src, z, y, x - 1) + at(src, z, y, x + 1);
          dst[idx(l, z, y, x)] = (f[idx(l, z, y, x)] + nb) / 6.0;
        }
      }
    }
  }

  /// Blocks live on the *coarse* level `lc`; reads fine level lc-1.
  void restrict_slab(std::uint32_t lc, std::uint8_t fine_buf, std::int64_t zlo,
                     std::int64_t zhi) {
    const std::uint32_t lf = lc - 1;
    const std::int64_t nc = level_n(lc);
    const auto& uf = u_[fine_buf][lf];
    const auto& ff = f_[lf];
    auto lap = [&](std::int64_t z, std::int64_t y, std::int64_t x) -> double {
      const std::int64_t n = level_n(lf);
      auto at = [&](std::int64_t zz, std::int64_t yy, std::int64_t xx) -> double {
        if (zz < 0 || yy < 0 || xx < 0 || zz >= n || yy >= n || xx >= n) return 0.0;
        return uf[idx(lf, zz, yy, xx)];
      };
      return 6.0 * at(z, y, x) - at(z - 1, y, x) - at(z + 1, y, x) -
             at(z, y - 1, x) - at(z, y + 1, x) - at(z, y, x - 1) - at(z, y, x + 1);
    };
    for (std::int64_t z = zlo; z < zhi; ++z) {
      for (std::int64_t y = 0; y < nc; ++y) {
        for (std::int64_t x = 0; x < nc; ++x) {
          // Full-weighting over the 2x2x2 fine children of residual r = f - Au.
          double acc = 0.0;
          for (int dz = 0; dz < 2; ++dz) {
            for (int dy = 0; dy < 2; ++dy) {
              for (int dx = 0; dx < 2; ++dx) {
                const std::int64_t fz = 2 * z + dz, fy = 2 * y + dy,
                                   fx = 2 * x + dx;
                acc += ff[idx(lf, fz, fy, fx)] - lap(fz, fy, fx);
              }
            }
          }
          f_[lc][idx(lc, z, y, x)] = acc / 8.0;
          u_[0][lc][idx(lc, z, y, x)] = 0.0;
          u_[1][lc][idx(lc, z, y, x)] = 0.0;
        }
      }
    }
  }

  /// Blocks live on the *fine* level `lf`; reads coarse level lf+1.
  void prolong_slab(std::uint32_t lf, std::uint8_t coarse_buf,
                    std::uint8_t fine_buf, std::int64_t zlo, std::int64_t zhi) {
    const std::int64_t n = level_n(lf);
    const auto& uc = u_[coarse_buf][lf + 1];
    auto& uf = u_[fine_buf][lf];
    for (std::int64_t z = zlo; z < zhi; ++z) {
      for (std::int64_t y = 0; y < n; ++y) {
        for (std::int64_t x = 0; x < n; ++x) {
          uf[idx(lf, z, y, x)] += uc[idx(lf + 1, z / 2, y / 2, x / 2)];
        }
      }
    }
  }

  MgConfig cfg_;
  std::vector<MgPhase> phases_;
  std::vector<std::vector<double>> u_[2];  // [buf][level]
  std::vector<std::vector<double>> f_;     // [level]
  std::uint8_t final_buf_ = 0;
};

// Keys: major = phase index (num_phases = sink), minor = block.
class MgNode final : public nabbit::TaskGraphNode {
 public:
  explicit MgNode(MgWorkload* w) : w_(w) {}

  void init(nabbit::ExecContext&) override {
    const std::uint32_t p = key_major(key());
    const std::uint32_t b = key_minor(key());
    if (p == w_->num_phases()) {  // sink over the last phase
      const std::uint32_t last = w_->num_phases() - 1;
      for (std::uint32_t i = 0; i < w_->phase(last).num_blocks; ++i) {
        add_predecessor(key_pack(last, i));
      }
      return;
    }
    if (p == 0) return;
    std::uint32_t lo, hi;
    w_->dep_blocks(p, b, &lo, &hi);
    for (std::uint32_t i = lo; i < hi; ++i) add_predecessor(key_pack(p - 1, i));
  }

  void compute(nabbit::ExecContext&) override {
    const std::uint32_t p = key_major(key());
    if (p == w_->num_phases()) return;
    w_->run_block(p, key_minor(key()));
  }

 private:
  MgWorkload* w_;
};

class MgSpec final : public nabbit::GraphSpec {
 public:
  MgSpec(MgWorkload* w, std::uint32_t num_colors, nabbit::ColoringMode mode)
      : w_(w), num_colors_(num_colors), mode_(mode) {}

  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<MgNode>(w_);
  }
  numa::Color color_of(Key k) const override {
    return nabbit::apply_coloring(data_color_of(k), mode_, num_colors_);
  }

  numa::Color data_color_of(Key k) const override {
    std::uint32_t p = key_major(k), b = key_minor(k);
    if (p == w_->num_phases()) {
      p = w_->num_phases() - 1;
      b = 0;
    }
    return w_->block_owner(p, b, num_colors_);
  }
  std::size_t expected_nodes() const override { return w_->num_tasks(); }

 private:
  MgWorkload* w_;
  std::uint32_t num_colors_;
  nabbit::ColoringMode mode_;
};

std::unique_ptr<nabbit::GraphSpec> MgWorkload::make_taskgraph_spec(
    std::uint32_t num_colors, nabbit::ColoringMode coloring) {
  return std::make_unique<MgSpec>(this, num_colors, coloring);
}

nabbit::Key MgWorkload::taskgraph_sink() const {
  return key_pack(num_phases(), 0);
}

}  // namespace

std::unique_ptr<Workload> make_mg(SizePreset preset) {
  return std::make_unique<MgWorkload>(preset);
}

}  // namespace nabbitc::wl
