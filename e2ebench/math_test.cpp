// Self-tests of the benchmark's math (bench_math.h). Plain asserts-as-
// checks so they run in every build type:
//
//   cmake --build .bench_build --target e2ebench_math_test
//   .bench_build/e2ebench_math_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(x) check((x), #x, __LINE__)

using e2ebench::beyond_count;
using e2ebench::nearest_rank;
using e2ebench::RateLadder;
using e2ebench::samples_needed;
using e2ebench::self_times;
using e2ebench::Span;
using e2ebench::step_met;
using e2ebench::StepLimits;
using e2ebench::StepOutcome;

void nearest_rank_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(nearest_rank(v, 0.50) == 50);
  CHECK(nearest_rank(v, 0.99) == 99);
  CHECK(nearest_rank(v, 1.00) == 100);
  CHECK(nearest_rank(v, 0.001) == 1);
  // Small sets: rank ceil(p*n), never interpolated.
  CHECK(nearest_rank({7, 3, 5}, 0.5) == 5);
  CHECK(nearest_rank({1, 2, 3, 4}, 0.5) == 2);
  CHECK(nearest_rank({1, 2, 3, 4}, 0.51) == 3);
  CHECK(nearest_rank({42}, 0.99) == 42);
  CHECK(nearest_rank({}, 0.5) == 0);
  // The percentiles the benchmark reports, p50 and p99, land on rank
  // ceil(p*n) in exact integer arithmetic for every n up to 3000, and
  // nearest_rank is the repository's nearest_rank_percentile.
  std::vector<double> w;
  bool exact = true, same = true;
  for (std::size_t n = 1; n <= 3000; ++n) {
    w.push_back(static_cast<double>(n));  // w = 1..n
    exact = exact && nearest_rank(w, 0.50) == static_cast<double>((n + 1) / 2) &&
            nearest_rank(w, 0.99) == static_cast<double>((99 * n + 99) / 100);
    std::vector<double> copy = w;
    same = same && nabbitc::nearest_rank_percentile(copy, 0.99) ==
                       nearest_rank(w, 0.99);
  }
  CHECK(exact);
  CHECK(same);
}

void ten_beyond_selection() {
  CHECK(beyond_count(1000, 0.99) == 10);
  CHECK(beyond_count(999, 0.99) == 9);
  CHECK(beyond_count(100, 0.99) == 1);
  CHECK(beyond_count(0, 0.99) == 0);
  CHECK(samples_needed(0.99, 10) == 1000);
  CHECK(samples_needed(0.999, 10) == 10000);
  CHECK(samples_needed(0.5, 10) == 20);
  // Windows: 2500 samples with need 1000 -> 2 windows of 1250. A burst of
  // 30 slow samples decides the whole-run p99 but only the first window's;
  // the median of {burst p99, quiet p99} sits between them.
  std::vector<double> ordered(2500, 1.0);
  for (int i = 0; i < 30; ++i) ordered[100 + i] = 50.0;
  CHECK(e2ebench::windowed_p99(ordered, 1000) == 25.5);
  CHECK(nearest_rank(ordered, 0.99) == 50.0);
  // Fewer samples than one window still yields one window (plain p99).
  std::vector<double> few{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(e2ebench::windowed_p99(few, 1000) == 10);
  // Every window keeps >= need samples: 2999 samples -> 2 windows.
  std::vector<double> seq;
  for (int i = 1; i <= 2999; ++i) seq.push_back(i);
  CHECK(e2ebench::windowed_p99(seq, 1000) ==
        0.5 * (nearest_rank({seq.begin(), seq.begin() + 1499}, 0.99) +
               nearest_rank({seq.begin() + 1499, seq.end()}, 0.99)));
}

/// Runs a ladder against a server whose true capacity is `cap`.
RateLadder climb(double start, double cap, double gen_max, double split = 0.5) {
  RateLadder l(start, 0.03, gen_max, 1.0, split);
  int guard = 0;
  while (!l.done() && ++guard < 100) l.record(l.next_rate() <= cap);
  return l;
}

void ladder_brackets_capacity() {
  // Climb, then bisect to within the resolution, never above capacity.
  const RateLadder up = climb(36, 84, 20000);
  CHECK(up.done());
  CHECK(up.max_rate() <= 84);
  CHECK(up.max_rate() >= 84 / 1.03);
  CHECK(!up.generator_bound());
  // A failing start descends first, then bisects.
  const RateLadder down = climb(400, 150, 40000);
  CHECK(down.max_rate() <= 150);
  CHECK(down.max_rate() >= 150 / 1.03);
  // Capacity above the generator's ceiling: declared generator-bound,
  // reported at the ceiling.
  const RateLadder gen = climb(36, 1e9, 20000);
  CHECK(gen.generator_bound());
  CHECK(gen.max_rate() == 20000);
  // Nothing met down to the floor: no rate.
  const RateLadder none = climb(36, 0.5, 20000);
  CHECK(none.done());
  CHECK(none.max_rate() == 0);
  // Bisection keeps every step within the metric's resolution.
  CHECK(up.steps() < 12);
  // Any split the runs draw (0.35..0.65) brackets the capacity as tightly,
  // and different splits end on different rates.
  bool tight = true;
  for (double split = 0.35; split <= 0.65; split += 0.01) {
    const RateLadder s = climb(36, 92.5, 20000, split);
    tight = tight && s.done() && s.max_rate() <= 92.5 &&
            s.max_rate() >= 92.5 / 1.03 && s.steps() < 14;
  }
  CHECK(tight);
  CHECK(climb(36, 92.5, 20000, 0.4).max_rate() !=
        climb(36, 92.5, 20000, 0.6).max_rate());
}

void late_step_is_unmet() {
  const StepLimits lim{100.0, 50.0};
  StepOutcome ok{50, 60.0, 1.0, 0, 0};
  CHECK(step_met(ok, lim));
  StepOutcome late = ok;
  late.late_p99_ms = 51.0;  // the generator fell behind its schedule
  CHECK(!step_met(late, lim));
  StepOutcome slow = ok;
  slow.p99_ms = 100.5;
  CHECK(!step_met(slow, lim));
  StepOutcome backlog = ok;
  backlog.backlog = 1;
  CHECK(!step_met(backlog, lim));
  StepOutcome failed = ok;
  failed.failed = 1;  // a refused request misses any limit
  CHECK(!step_met(failed, lim));
}

void span_self_time() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) sticks out of the root -> only [90,100) counts.
  std::vector<Span> s{
      {0, 1, -1, 0, 100},
      {1, 1, 0, 10, 30},
      {1, 1, 0, 20, 50},
      {2, 1, 0, 90, 120},
      {3, 1, 1, 12, 18},  // grandchild: charged to its parent only
  };
  const std::vector<std::uint64_t> self = self_times(s);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  // A child covering the whole parent leaves no self time.
  const std::vector<std::uint64_t> z = self_times({{0, 1, -1, 5, 9}, {1, 1, 0, 0, 20}});
  CHECK(z[0] == 0);
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  ten_beyond_selection();
  ladder_brackets_capacity();
  late_step_is_unmet();
  span_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2ebench math: all checks passed\n");
  return 0;
}
