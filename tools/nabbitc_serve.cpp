// nabbitc-serve: the graph-service daemon (and its own smoke client).
//
// Server mode (default) owns one nabbitc::Runtime and serves the
// net/protocol.h frame protocol until SIGINT/SIGTERM, then drains (or
// cancels) in-flight work and exits 0:
//
//   nabbitc-serve unix=/tmp/nabbitc.sock workers=4
//   nabbitc-serve tcp=1 port=0 workers=8 variant=nabbitc drain=1
//
// Client mode (connect=...) exercises a running daemon end to end —
// register a wavefront graph, submit across all three priority lanes, and
// verify every RESULT against the client-side reference evaluation. Exit 0
// only if every accepted submission completes with the exact expected
// result; this is what ci.sh's serve-smoke runs.
//
//   nabbitc-serve connect=/tmp/nabbitc.sock submits=24 side=8
//   nabbitc-serve connect_tcp=PORT submits=24 side=8
//
// Flags are support/config.h key=value pairs (NABBITC_* env overrides).
// Unknown or malformed flags are rejected with usage + exit 2 — a daemon
// whose operator typos --plan-cashe= must refuse to boot, not silently run
// cacheless.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "api/variant.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "rt/status.h"
#include "support/config.h"

namespace {

/// Rebuilds registry-shaped samples from a METRICS reply so the client can
/// reuse obs::render_text — the daemon and the one-shot scrape print the
/// exact same exposition format.
std::vector<nabbitc::obs::Sample> samples_of(
    const nabbitc::net::MetricsMsg& m) {
  std::vector<nabbitc::obs::Sample> out;
  out.reserve(m.entries.size());
  for (const nabbitc::net::MetricEntry& e : m.entries) {
    nabbitc::obs::Sample s;
    s.name = e.name;
    s.kind = static_cast<nabbitc::obs::MetricKind>(e.kind);
    s.value = e.value;
    const std::size_t n =
        std::min(e.buckets.size(), s.hist.buckets.size());
    for (std::size_t b = 0; b < n; ++b) s.hist.buckets[b] = e.buckets[b];
    out.push_back(std::move(s));
  }
  return out;
}

// SIGINT/SIGTERM -> one eventfd notify; the main thread polls it.
// Everything in the handler is async-signal-safe.
nabbitc::net::WakeFd g_signal_wake;

void on_signal(int) { g_signal_wake.notify(); }

int run_server(const nabbitc::Config& cfg) {
  nabbitc::net::ServerOptions opts;
  opts.runtime.workers =
      static_cast<std::uint32_t>(cfg.get_int("workers", 0));
  opts.runtime.variant =
      nabbitc::api::parse_variant(cfg.get("variant", "nabbitc"));
  opts.unix_path = cfg.get("unix", "");
  opts.tcp = cfg.get_bool("tcp", false) || cfg.has("port");
  opts.tcp_port = static_cast<std::uint16_t>(cfg.get_int("port", 0));
  opts.max_sessions =
      static_cast<std::uint32_t>(cfg.get_int("max_sessions", 64));
  opts.max_inflight_per_session = static_cast<std::uint32_t>(
      cfg.get_int("max_inflight_per_session", 16));
  opts.max_inflight_global =
      static_cast<std::uint32_t>(cfg.get_int("max_inflight_global", 256));
  opts.reserve_instances =
      static_cast<std::size_t>(cfg.get_int("reserve_instances", 4));
  opts.drain_on_shutdown = cfg.get_bool("drain", true);
  opts.plan_cache_dir = cfg.get("plan_cache", "");
  opts.warm_start = cfg.get_bool("warm_start", true);

  std::string err;
  if (!g_signal_wake.open(&err)) {
    std::fprintf(stderr, "nabbitc-serve: %s\n", err.c_str());
    return 1;
  }
  nabbitc::net::Server server(std::move(opts));
  if (!server.start(&err)) {
    std::fprintf(stderr, "nabbitc-serve: %s\n", err.c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Operational log lines go to stderr: stdout stays reserved for machine
  // output (the client modes' exposition), matching nabbitc-top's parsing
  // expectations.
  std::fprintf(stderr,
               "nabbitc-serve: listening (%s%s%s) workers=%u variant=%s\n",
               server.unix_path().empty() ? "" : server.unix_path().c_str(),
               (!server.unix_path().empty() && server.options().tcp) ? ", "
                                                                     : "",
               server.options().tcp
                   ? ("tcp:" + std::to_string(server.tcp_port())).c_str()
                   : "",
               server.runtime().workers(),
               nabbitc::api::variant_name(server.runtime().variant()));
  if (!server.options().plan_cache_dir.empty()) {
    std::fprintf(stderr,
                 "nabbitc-serve: plan cache %s (%llu plans warm-loaded)\n",
                 server.options().plan_cache_dir.c_str(),
                 static_cast<unsigned long long>(server.plans_loaded()));
  }
  std::fflush(stderr);

  // Park until a signal arrives (poll_readable(-1) blocks indefinitely).
  // With metrics_log_interval=SECS, wake every interval and emit one
  // compact metrics line — the poor-operator's dashboard when nothing is
  // scraping METRICS.
  const long log_interval_s = cfg.get_int("metrics_log_interval", 0);
  const int park_ms =
      log_interval_s > 0 ? static_cast<int>(log_interval_s * 1000) : -1;
  for (;;) {
    const int r =
        nabbitc::net::poll_readable(g_signal_wake.fd.get(), park_ms);
    if (r > 0) break;  // signal
    if (r < 0) continue;  // EINTR
    const nabbitc::net::ServerStats s = server.stats();
    nabbitc::obs::HistSnapshot lat;
    for (const nabbitc::obs::Sample& smp : nabbitc::obs::registry().snapshot()) {
      if (smp.name == "submit_complete_ns") {
        lat = smp.hist;
        break;
      }
    }
    std::fprintf(stderr,
                 "nabbitc-serve: metrics submitted=%llu completed=%llu "
                 "inflight=%llu busy=%llu p50_us=%.1f p99_us=%.1f "
                 "arena=%llu\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.in_flight),
                 static_cast<unsigned long long>(s.rejected_busy),
                 lat.quantile(0.5) / 1e3, lat.quantile(0.99) / 1e3,
                 static_cast<unsigned long long>(s.arena_bytes));
    std::fflush(stderr);
  }
  g_signal_wake.drain();

  std::fprintf(stderr, "nabbitc-serve: shutting down (%s)\n",
               server.options().drain_on_shutdown ? "drain" : "cancel");
  server.stop();

  const nabbitc::net::ServerStats s = server.stats();
  std::fprintf(
      stderr,
      "nabbitc-serve: done. submitted=%llu completed=%llu cancelled=%llu "
      "deadline=%llu busy=%llu proto_errors=%llu sessions=%llu\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.rejected_busy),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.sessions_opened));
  return 0;
}

int run_client(const nabbitc::Config& cfg) {
  const std::string unix_path = cfg.get("connect", "");
  const auto tcp_port =
      static_cast<std::uint16_t>(cfg.get_int("connect_tcp", 0));
  const auto submits = static_cast<std::uint32_t>(cfg.get_int("submits", 24));
  const auto side = static_cast<std::uint32_t>(cfg.get_int("side", 8));
  const auto spin_ns =
      static_cast<std::uint32_t>(cfg.get_int("spin_ns", 0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  // -1 = don't check. The cache-smoke CI leg passes 0 on a warm restart
  // (the whole point of persistence) and 1 on the cold boot.
  const std::int64_t expect_plans_compiled =
      cfg.get_int("expect_plans_compiled", -1);

  nabbitc::net::Client client;
  const bool ok = !unix_path.empty() ? client.connect_unix(unix_path)
                                     : client.connect_tcp(tcp_port);
  if (!ok) {
    std::fprintf(stderr, "client: connect failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }

  // One-shot introspection modes: scrape and print, nothing else. stdout
  // carries only the machine-parseable payload.
  if (cfg.get_bool("metrics", false)) {
    const auto m = client.metrics();
    if (!m) {
      std::fprintf(stderr, "client: metrics failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    std::string text;
    nabbitc::obs::render_text(samples_of(*m), text);
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (cfg.get_bool("slow", false)) {
    const auto s = client.slow();
    if (!s) {
      std::fprintf(stderr, "client: slow failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    for (const nabbitc::net::SlowEntryMsg& e : s->entries) {
      // Stage offsets are relative to decode; 0 stamps (stage skipped or
      // metrics disabled at the time) print as '-'.
      auto off = [&](std::uint64_t t) {
        return (t != 0 && e.t_decode_ns != 0 && t >= e.t_decode_ns)
                   ? static_cast<long long>(t - e.t_decode_ns)
                   : -1;
      };
      std::printf(
          "slow exec=%llu state=%u latency_ns=%llu admit=%lld submit=%lld "
          "dispatch=%lld complete=%lld reply=%lld name=%s\n",
          static_cast<unsigned long long>(e.exec_id), e.state,
          static_cast<unsigned long long>(e.latency_ns), off(e.t_admit_ns),
          off(e.t_submit_ns), off(e.t_dispatch_ns), off(e.t_complete_ns),
          off(e.t_reply_ns), e.name.c_str());
    }
    return 0;
  }

  const nabbitc::net::WireGraph g =
      nabbitc::net::make_wavefront_wire_graph(side, seed, spin_ns);
  const auto reg = client.register_graph(g);
  if (!reg) {
    std::fprintf(stderr, "client: register failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }
  const std::uint64_t expect_sink = nabbitc::net::expected_sink_value(g);

  std::uint32_t completed = 0;
  std::uint32_t busy = 0;
  for (std::uint32_t i = 0; i < submits; ++i) {
    const auto prio = static_cast<nabbitc::api::Priority>(i % 3);
    const std::uint64_t payload = nabbitc::splitmix64(seed + i);
    const auto sub =
        client.submit(reg->handle, payload, prio, /*deadline_rel_ns=*/0,
                      "serve-smoke");
    if (!sub) {
      std::fprintf(stderr, "client: submit failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    if (!sub->accepted) {
      // BUSY pushback is valid protocol behaviour; retry-less smoke just
      // counts it and moves on.
      ++busy;
      continue;
    }
    const auto res = client.wait_result(sub->exec_id);
    if (!res) {
      std::fprintf(stderr, "client: wait_result failed: %s\n",
                   client.last_error().c_str());
      return 1;
    }
    if (res->state !=
        static_cast<std::uint8_t>(nabbitc::api::ExecStatus::kCompleted)) {
      std::fprintf(stderr, "client: execution %llu not completed (state %s)\n",
                   static_cast<unsigned long long>(sub->exec_id),
                   nabbitc::rt::exec_status_name(
                       static_cast<nabbitc::api::ExecStatus>(res->state)));
      return 1;
    }
    if (res->sink_value != expect_sink ||
        res->result != nabbitc::net::wire_result(expect_sink, payload)) {
      std::fprintf(stderr, "client: WRONG RESULT for execution %llu\n",
                   static_cast<unsigned long long>(sub->exec_id));
      return 1;
    }
    ++completed;
  }

  const auto m = client.metrics();
  if (!m) {
    std::fprintf(stderr, "client: metrics failed: %s\n",
                 client.last_error().c_str());
    return 1;
  }
  const auto value = [&](const char* name) -> unsigned long long {
    const nabbitc::net::MetricEntry* e = m->find(name);
    return e != nullptr ? e->value : 0;
  };
  const unsigned long long compiled = value("net_plans_compiled_total");
  if (expect_plans_compiled >= 0 &&
      (m->find("net_plans_compiled_total") == nullptr ||
       compiled != static_cast<unsigned long long>(expect_plans_compiled))) {
    std::fprintf(stderr,
                 "client: server compiled %llu plans, expected %lld "
                 "(plan cache not working?)\n",
                 compiled, static_cast<long long>(expect_plans_compiled));
    return 1;
  }
  std::printf(
      "client: ok. completed=%u busy=%u server{specs=%llu plans=%llu "
      "loaded=%llu persisted=%llu submitted=%llu completed=%llu arena=%llu}\n",
      completed, busy, value("net_registered_specs"), compiled,
      value("net_plans_loaded_total"), value("net_plans_persisted_total"),
      value("net_submitted_total"), value("net_completed_total"),
      value("rt_arena_bytes"));
  return completed > 0 ? 0 : 1;
}

}  // namespace

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nabbitc-serve unix=PATH | tcp=1 [port=N] [workers=N] "
               "[variant=nabbitc] [drain=0|1]\n"
               "                     [plan_cache=DIR] [warm_start=0|1] "
               "[max_sessions=N]\n"
               "                     [max_inflight_per_session=N] "
               "[max_inflight_global=N] [reserve_instances=N]\n"
               "                     [metrics_log_interval=SECS]\n"
               "       nabbitc-serve connect=PATH | connect_tcp=PORT "
               "[submits=N] [side=N] [spin_ns=N] [seed=N]\n"
               "                     [expect_plans_compiled=N] [metrics=1] "
               "[slow=1]\n"
               "flags also accept --key=value / --key-with-dashes=value "
               "spellings\n");
  return 2;
}

constexpr const char* kServerKeys[] = {
    "workers",     "variant",
    "unix",        "tcp",
    "port",        "max_sessions",
    "max_inflight_per_session", "max_inflight_global",
    "reserve_instances",        "drain",
    "plan_cache",  "warm_start",
    "metrics_log_interval"};
constexpr const char* kClientKeys[] = {
    "connect", "connect_tcp", "submits", "side", "spin_ns", "seed",
    "expect_plans_compiled", "metrics", "slow"};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const nabbitc::Config cfg = nabbitc::Config::from_args(argc, argv, &positional);
  // Anything that isn't key=value is a malformed flag (there are no
  // positional operands), and an unknown key is a typo: refuse both.
  // Silently ignoring `--plan-cashe=DIR` would run a daemon the operator
  // believes is persistent, cacheless.
  for (const std::string& arg : positional) {
    std::fprintf(stderr, "nabbitc-serve: malformed flag '%s' (want key=value)\n",
                 arg.c_str());
    return usage();
  }
  const bool client = cfg.has("connect") || cfg.has("connect_tcp");
  for (const auto& [key, value] : cfg.entries()) {
    (void)value;
    bool known = false;
    if (client) {
      for (const char* k : kClientKeys) known = known || key == k;
    } else {
      for (const char* k : kServerKeys) known = known || key == k;
    }
    if (!known) {
      std::fprintf(stderr, "nabbitc-serve: unknown %s flag '%s'\n",
                   client ? "client" : "server", key.c_str());
      return usage();
    }
  }
  if (client) return run_client(cfg);
  if (cfg.get("unix", "").empty() && !cfg.get_bool("tcp", false) &&
      !cfg.has("port")) {
    std::fprintf(stderr, "nabbitc-serve: no listener configured\n");
    return usage();
  }
  return run_server(cfg);
}
