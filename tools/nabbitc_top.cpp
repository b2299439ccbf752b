// nabbitc-top: live terminal dashboard for a running nabbitc-serve.
//
// Polls the METRICS frame at a fixed interval and renders per-interval
// rates and latency quantiles — the `top`-equivalent for a graph-service
// daemon. Counters and histogram buckets are cumulative on the server, so
// each row is the DELTA between two consecutive scrapes: RPS is
// delta(net_completed_total) / interval, and the p50/p99 columns come from
// wrapping the bucket-count delta in an obs::HistSnapshot, which makes the
// quantile math identical to the server's own exposition.
//
//   nabbitc-top connect=/tmp/nabbitc.sock
//   nabbitc-top connect_tcp=PORT interval_ms=500 iters=10
//
// iters=N exits after N rows (CI runs a bounded dashboard; interactive use
// leaves it 0 = run until ^C). Rows go to stdout; errors to stderr.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "obs/histogram.h"
#include "support/config.h"

namespace {

using namespace nabbitc;

/// One scrape, indexed for delta math.
struct Scrape {
  std::uint64_t t_ns = 0;
  net::MetricsMsg m;

  std::uint64_t value(const char* name) const {
    const net::MetricEntry* e = m.find(name);
    return e != nullptr ? e->value : 0;
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bucket-count delta between two scrapes of one histogram, as a snapshot
/// so quantile() works on just this interval's samples.
obs::HistSnapshot hist_delta(const Scrape& cur, const Scrape& prev,
                             const char* name) {
  obs::HistSnapshot d;
  const net::MetricEntry* c = cur.m.find(name);
  if (c == nullptr) return d;
  const net::MetricEntry* p = prev.m.find(name);
  const std::size_t n = std::min(c->buckets.size(), d.buckets.size());
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t before =
        (p != nullptr && b < p->buckets.size()) ? p->buckets[b] : 0;
    d.buckets[b] = c->buckets[b] >= before ? c->buckets[b] - before : 0;
  }
  return d;
}

int run(const Config& cfg) {
  const std::string unix_path = cfg.get("connect", "");
  const auto tcp_port =
      static_cast<std::uint16_t>(cfg.get_int("connect_tcp", 0));
  const long interval_ms = cfg.get_int("interval_ms", 1000);
  const long iters = cfg.get_int("iters", 0);

  net::Client client;
  const bool ok = !unix_path.empty() ? client.connect_unix(unix_path)
                                     : client.connect_tcp(tcp_port);
  if (!ok) {
    std::fprintf(stderr, "nabbitc-top: connect failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }

  Scrape prev;
  bool have_prev = false;
  long rows = 0;
  for (;;) {
    const auto m = client.metrics();
    if (!m) {
      std::fprintf(stderr, "nabbitc-top: metrics failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    Scrape cur;
    cur.t_ns = now_ns();
    cur.m = *m;

    // The first scrape only establishes the baseline; rows start after it.
    if (have_prev) {
      const double dt_s = static_cast<double>(cur.t_ns - prev.t_ns) / 1e9;
      const double rps =
          dt_s > 0 ? static_cast<double>(cur.value("net_completed_total") -
                                         prev.value("net_completed_total")) /
                         dt_s
                   : 0.0;
      const obs::HistSnapshot lat =
          hist_delta(cur, prev, "submit_complete_ns");
      const obs::HistSnapshot wait = hist_delta(cur, prev, "queue_wait_ns");
      const std::uint64_t hits = cur.value("persist_cache_mem_hits_total") +
                                 cur.value("persist_cache_disk_hits_total");
      const std::uint64_t misses = cur.value("persist_cache_misses_total");
      const double hit_pct =
          hits + misses > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0;
      const double arena_mb =
          static_cast<double>(cur.value("rt_arena_bytes")) /
          (1024.0 * 1024.0);

      if (rows % 10 == 0) {
        std::printf("%10s %10s %10s %10s %8s %10s %8s %9s\n", "rps",
                    "p50_us", "p99_us", "wait_p99", "inflight", "lanes",
                    "cache%", "arena_mb");
      }
      char lanes[32];
      std::snprintf(
          lanes, sizeof(lanes), "%llu/%llu/%llu",
          static_cast<unsigned long long>(cur.value("sched_lane_depth_0")),
          static_cast<unsigned long long>(cur.value("sched_lane_depth_1")),
          static_cast<unsigned long long>(cur.value("sched_lane_depth_2")));
      std::printf(
          "%10.1f %10.1f %10.1f %10.1f %8llu %10s %8.1f %9.2f\n", rps,
          lat.quantile(0.5) / 1e3, lat.quantile(0.99) / 1e3,
          wait.quantile(0.99) / 1e3,
          static_cast<unsigned long long>(cur.value("net_inflight")), lanes,
          hit_pct, arena_mb);
      std::fflush(stdout);
      ++rows;
      if (iters > 0 && rows >= iters) break;
    }
    prev = std::move(cur);
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: nabbitc-top connect=PATH | connect_tcp=PORT "
               "[interval_ms=N] [iters=N]\n"
               "iters=0 (default) runs until interrupted\n");
  return 2;
}

constexpr const char* kKeys[] = {"connect", "connect_tcp", "interval_ms",
                                "iters"};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const Config cfg = Config::from_args(argc, argv, &positional);
  if (!positional.empty()) return usage();
  for (const auto& [key, value] : cfg.entries()) {
    (void)value;
    bool known = false;
    for (const char* k : kKeys) known = known || key == k;
    if (!known) {
      std::fprintf(stderr, "nabbitc-top: unknown flag '%s'\n", key.c_str());
      return usage();
    }
  }
  if (cfg.get("connect", "").empty() && !cfg.has("connect_tcp")) {
    return usage();
  }
  return run(cfg);
}
