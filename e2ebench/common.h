// Shared types of the e2ebench program: command-line arguments, the
// result report, and small helpers every workload uses.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/rng.h"
#include "support/timing.h"

namespace e2ebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  // path of nabbitc-serve
  std::string workdir;       // scratch directory inside the checkout
  std::string trace_file;    // where a traced run writes its spans
  double p99_limit_ms = 0;   // latency limit of the rate ladder
  bool generator_check = false;  // ladders against StubServer, no daemon
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints. `metrics` go into the final JSON line; `notes`
/// (self-checks, sample counts, failure share) are printed on the line
/// before it, in every run, so a noisy run can be explained afterwards.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  std::vector<double> gen_late_ms;  // per frame: how late the generator sent

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
};

/// Deterministic stream of 64-bit values derived from (seed, stream).
class SeedStream {
 public:
  SeedStream(std::uint64_t seed, std::uint64_t stream)
      : state_(nabbitc::splitmix64(seed ^ nabbitc::splitmix64(stream))) {}
  std::uint64_t next() { return nabbitc::splitmix64(state_++); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Sleeps until the now_ns() instant `t` (CLOCK_MONOTONIC, the clock
/// behind std::chrono::steady_clock on Linux).
inline void sleep_until_ns(std::uint64_t t) {
  if (nabbitc::now_ns() >= t) return;
  timespec ts{static_cast<time_t>(t / 1'000'000'000ull),
              static_cast<long>(t % 1'000'000'000ull)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Time of a fixed single-thread integer loop (20M FNV-1a steps), in ms.
inline double cpu_probe_ms() {
  const std::uint64_t t = nabbitc::now_ns();
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t i = 0; i < 20'000'000u; ++i) {
    h ^= i;
    h *= 1099511628211ull;
  }
  volatile std::uint64_t sink = h;
  (void)sink;
  return static_cast<double>(nabbitc::now_ns() - t) / 1e6;
}

/// Time of a fixed single-thread memory sweep (8 passes of read-modify-
/// write over 64 MiB, far beyond any cache), in ms: memory bandwidth left
/// to this machine, which a host's other tenants share.
inline double mem_probe_ms() {
  std::vector<std::uint64_t> buf(std::size_t{8} << 20, 1);
  const std::uint64_t t = nabbitc::now_ns();
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t& x : buf) x = x * 3 + 1;
  }
  volatile std::uint64_t sink = buf[buf.size() / 2];
  (void)sink;
  return static_cast<double>(nabbitc::now_ns() - t) / 1e6;
}

inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

int run_serve_workload(const Args& args, Report& report);
int run_generator_check(const Args& args, Report& report);
int run_paper_dynamic(const Args& args, Report& report);

}  // namespace e2ebench
