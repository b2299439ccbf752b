// Pure math of the benchmark: percentiles, the rate ladder, span self time.
// Kept free of I/O so math_test.cpp can pin every rule the reported numbers
// depend on. Percentiles are the repository's own nearest-rank function.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/stats.h"

namespace e2ebench {

/// Nearest-rank percentile of a copy of `v` (nabbitc's
/// nearest_rank_percentile: index ceil(p*n)-1 of the sorted samples).
/// Returns 0 for an empty sample set.
inline double nearest_rank(std::vector<double> v, double p) {
  return nabbitc::nearest_rank_percentile(v, p);
}

/// Samples ranked strictly above the nearest-rank p-th percentile of n
/// samples: n - ceil(p*n), the same rank nearest_rank() takes.
inline std::size_t beyond_count(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// Smallest sample count for which at least `beyond` samples fall above the
/// nearest-rank p-th percentile (1000 for p = 0.99, beyond = 10).
inline std::size_t samples_needed(double p, std::size_t beyond) {
  std::size_t n = beyond;
  while (beyond_count(n, p) < beyond) ++n;
  return n;
}

/// Median as Python's statistics.median gives it (mean of the two middle
/// values for even n).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// p99 that one burst cannot decide: `ordered` (samples in arrival order)
/// is cut into as many consecutive windows as hold at least `need` samples
/// each (at least one window), and the result is the median of the
/// windows' nearest-rank p99s. With need = samples_needed(0.99, 10) every
/// window's p99 has >= 10 samples beyond it.
inline double windowed_p99(const std::vector<double>& ordered, std::size_t need) {
  const std::size_t n = ordered.size();
  const std::size_t windows = std::max<std::size_t>(1, n / std::max<std::size_t>(1, need));
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    p99s.push_back(nearest_rank(
        std::vector<double>(ordered.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
                            ordered.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows)),
        0.99));
  }
  return median(p99s);
}

/// One rung of the offered-rate ladder. A rung is met only when every
/// condition holds: the latency percentile meets the limit, no request
/// failed, nothing older than the limit is still outstanding at the end
/// (no growing backlog), and the load generator sent on time.
struct StepOutcome {
  double rate = 0;          // offered rate, requests/s
  double p99_ms = 0;        // nearest-rank p99 of due -> result
  double late_p99_ms = 0;   // nearest-rank p99 of send - due
  std::uint64_t failed = 0;
  std::uint64_t backlog = 0;
};

struct StepLimits {
  double p99_limit_ms = 0;
  double late_limit_ms = 0;
};

inline bool step_met(const StepOutcome& s, const StepLimits& lim) {
  return s.failed == 0 && s.backlog == 0 && s.p99_ms <= lim.p99_limit_ms &&
         s.late_p99_ms <= lim.late_limit_ms;
}

/// Finds the highest offered rate that meets the limits. Rates double
/// upward from `start` until a rung fails (halving downward instead when
/// the start itself fails), then the bracket [highest met, lowest unmet] is
/// split geometrically, at `split` of its log-width, until hi/lo <= 1 +
/// resolution. Reaching `generator_max` with every rung met ends the search
/// as generator-bound: the server was never the limit, and the result says
/// so. A split drawn from the run's seed keeps the result from landing on
/// the same grid point in every run.
class RateLadder {
 public:
  RateLadder(double start, double resolution, double generator_max,
             double floor_rate, double split = 0.5)
      : next_(std::min(start, generator_max)),
        resolution_(resolution),
        generator_max_(generator_max),
        floor_(floor_rate),
        split_(split) {}

  bool done() const { return done_; }
  double next_rate() const { return next_; }
  /// Highest met rate (0 when none met down to the floor).
  double max_rate() const { return lo_; }
  bool generator_bound() const { return generator_bound_; }
  std::size_t steps() const { return steps_; }

  void record(bool met) {
    ++steps_;
    const double r = next_;
    if (met) {
      lo_ = std::max(lo_, r);
    } else {
      hi_ = hi_ == 0 ? r : std::min(hi_, r);
    }
    if (hi_ == 0) {  // still climbing
      if (r >= generator_max_) {
        generator_bound_ = true;
        done_ = true;
        return;
      }
      next_ = std::min(r * 2.0, generator_max_);
      return;
    }
    if (lo_ == 0) {  // nothing met yet: descend
      if (r / 2.0 < floor_) {
        done_ = true;
        return;
      }
      next_ = r / 2.0;
      return;
    }
    if (hi_ / lo_ <= 1.0 + resolution_) {
      done_ = true;
      return;
    }
    next_ = lo_ * std::pow(hi_ / lo_, split_);
  }

 private:
  double next_;
  double resolution_;
  double generator_max_;
  double floor_;
  double split_;
  double lo_ = 0;
  double hi_ = 0;
  bool generator_bound_ = false;
  bool done_ = false;
  std::size_t steps_ = 0;
};

/// A recorded span: [start, end) in ns; parent is an index into the same
/// vector or -1 for a root.
struct Span {
  std::uint32_t name = 0;
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and child
/// time outside the parent's interval is ignored).
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end > s.start ? s.end - s.start : 0;
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start, s.start);
      const std::uint64_t b = std::min(spans[c].end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

}  // namespace e2ebench
