// The graph service end to end: N concurrent clients over TCP loopback
// against an in-process nabbitc-serve core.
//
// Every client registers the SAME wavefront graph (content-addressed, so
// the server compiles exactly one GraphPlan shared by all sessions) and
// runs a closed loop: keep `window` submissions in flight, collect RESULT
// pushes, verify each one bit for bit against the client-side reference
// evaluation, resubmit. Reported:
//
//   * rps_sustained — completed submissions per second across all clients
//     over the measured window (the service's replay throughput including
//     the socket round trip);
//   * submit_result_p50/p95/p99_ns — per-submission submit -> RESULT
//     latency over every client's samples;
//   * plans_compiled — server-side compile count (must be 1: one graph,
//     many sessions, compiled exactly once);
//   * busy_rejections — admission-control pushback observed (the closed
//     loop sizes itself under the caps, so normally 0);
//   * arena_bytes_after — server frame memory after the run settles.
//
// Usage (key=value args, NABBITC_* env overrides):
//   bench_net [preset=tiny|default] [clients=N] [window=N] [side=N]
//             [workers=N] [secs=N] [batch=N] [variant=nabbit|nabbitc]
//             [out=BENCH_net.json]
//
// batch=N (N > 1) switches clients to kSubmitBatch window refills: one
// frame (one syscall each way) carries up to N submissions.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/variant.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "persist/mmap_file.h"
#include "support/config.h"
#include "support/stats.h"
#include "support/timing.h"

using namespace nabbitc;
using namespace nabbitc::net;

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> g_metrics;

void report(const std::string& name, double value, const char* unit) {
  g_metrics.push_back({name, value, unit});
  std::printf("%-24s %16.2f %s\n", name.c_str(), value, unit);
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

/// One client's closed loop: `window` in flight, verify every RESULT.
struct ClientResult {
  std::vector<double> latencies_ns;  // submit -> RESULT round trips
  std::uint64_t completed = 0;
  std::uint64_t busy = 0;
  std::uint64_t handle = 0;
  bool ok = false;
  std::string error;
};

void run_client(std::uint16_t port, const WireGraph& g, std::uint32_t window,
                std::uint32_t batch, std::uint64_t seed,
                const std::atomic<bool>& stop, ClientResult& out) {
  Client c;
  if (!c.connect_tcp(port)) {
    out.error = "connect: " + c.last_error();
    return;
  }
  const auto reg = c.register_graph(g);
  if (!reg) {
    out.error = "register: " + c.last_error();
    return;
  }
  out.handle = reg->handle;
  const std::uint64_t expect_sink = expected_sink_value(g);

  struct Pending {
    std::uint64_t exec_id;
    std::uint64_t payload;
    std::uint64_t t0;
  };
  std::vector<Pending> pending;
  pending.reserve(window);
  std::uint64_t next_payload = seed;

  const auto submit_one = [&]() -> bool {
    const std::uint64_t payload = next_payload++;
    const auto s = c.submit(reg->handle, payload, api::Priority::kNormal);
    if (!s) {
      out.error = "submit: " + c.last_error();
      return false;
    }
    if (!s->accepted) {
      ++out.busy;  // pushback, not failure; the loop just runs narrower
      return true;
    }
    pending.push_back({s->exec_id, payload, now_ns()});
    return true;
  };

  // Batch mode: top the window up with ONE kSubmitBatch frame (one syscall
  // each way for k submissions). A rejected suffix counts as busy pushback,
  // exactly like a singleton BUSY.
  const auto submit_many = [&](std::uint32_t k) -> bool {
    std::vector<Client::BatchItem> items(k);
    for (auto& it : items) it.payload = next_payload++;
    const std::uint64_t t0 = now_ns();
    const auto b = c.submit_batch(reg->handle, items);
    if (!b) {
      out.error = "submit_batch: " + c.last_error();
      return false;
    }
    out.busy += b->rejected;
    for (std::size_t i = 0; i < b->exec_ids.size(); ++i) {
      pending.push_back({b->exec_ids[i], items[i].payload, t0});
    }
    return true;
  };

  const auto reap_one = [&]() -> bool {
    const Pending p = pending.front();
    pending.erase(pending.begin());
    const auto r = c.wait_result(p.exec_id, /*timeout_ms=*/30'000);
    if (!r) {
      out.error = "wait_result: " + c.last_error();
      return false;
    }
    if (r->state != static_cast<std::uint8_t>(api::ExecStatus::kCompleted) ||
        r->sink_value != expect_sink ||
        r->result != wire_result(expect_sink, p.payload)) {
      out.error = "WRONG RESULT";
      return false;
    }
    out.latencies_ns.push_back(static_cast<double>(now_ns() - p.t0));
    ++out.completed;
    return true;
  };

  while (!stop.load(std::memory_order_relaxed)) {
    while (pending.size() < window && !stop.load(std::memory_order_relaxed)) {
      const auto room = static_cast<std::uint32_t>(window - pending.size());
      if (batch > 1 && room > 1) {
        if (!submit_many(std::min(batch, room))) return;
      } else {
        if (!submit_one()) return;
      }
    }
    if (pending.empty()) continue;  // every submit hit BUSY; retry
    if (!reap_one()) return;
  }
  while (!pending.empty()) {
    if (!reap_one()) return;
  }
  out.ok = true;
}

// ------------------------------------------------------ plan-cache phase
//
// Cold vs warm REGISTER latency: boot a daemon on a plan-cache directory,
// register `regs` DISTINCT graphs over one connection, and time each
// REGISTER round trip. The cold pass compiles (and persists) every plan;
// the warm pass — a fresh daemon on the same directory, warm_start off so
// the load cost lands on the REGISTER itself — restores every plan from
// disk. The gap is the per-graph warm-start win the cache buys.
double registration_phase(const std::string& cache_dir, std::uint32_t regs,
                          std::uint32_t reg_nodes, std::uint32_t workers,
                          api::Variant variant,
                          std::uint64_t expect_compiled) {
  ServerOptions so;
  so.runtime.workers = workers;
  so.runtime.variant = variant;
  so.tcp = true;
  so.tcp_port = 0;
  so.plan_cache_dir = cache_dir;
  so.warm_start = false;  // time the loads inside REGISTER, not start()
  Server server(std::move(so));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "FAILED to start cache-phase server: %s\n",
                 err.c_str());
    std::exit(1);
  }
  Client c;
  check(c.connect_tcp(server.tcp_port()), "cache-phase connect");
  const std::uint64_t t0 = now_ns();
  for (std::uint32_t i = 0; i < regs; ++i) {
    const WireGraph g = make_random_wire_graph(0xCAFEu + i, reg_nodes);
    const auto reg = c.register_graph(g);
    check(reg.has_value(), "cache-phase register");
  }
  const double per_reg_ns =
      static_cast<double>(now_ns() - t0) / static_cast<double>(regs);
  const ServerStats stats = server.stats();
  check(stats.plans_compiled == expect_compiled,
        "cache-phase compile count (plan cache not working?)");
  server.stop();
  return per_reg_ns;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const std::string preset = cfg.get("preset", "default");
  const bool tiny = preset == "tiny";
  const std::string out = cfg.get("out", "BENCH_net.json");
  const auto clients =
      static_cast<std::uint32_t>(cfg.get_int("clients", tiny ? 4 : 8));
  const auto window =
      static_cast<std::uint32_t>(cfg.get_int("window", tiny ? 2 : 4));
  const auto side = static_cast<std::uint32_t>(cfg.get_int("side", tiny ? 8 : 16));
  const auto workers = static_cast<std::uint32_t>(cfg.get_int("workers", 2));
  // batch > 1: clients refill their window with kSubmitBatch frames instead
  // of per-submission kSubmit frames.
  const auto batch = static_cast<std::uint32_t>(cfg.get_int("batch", 1));
  const double secs = static_cast<double>(cfg.get_int("secs", tiny ? 2 : 5));
  api::Variant variant = api::parse_variant(cfg.get("variant", "nabbitc"));

  ServerOptions so;
  so.runtime.workers = workers;
  so.runtime.variant = variant;
  so.tcp = true;
  so.tcp_port = 0;  // ephemeral
  so.max_sessions = clients + 4;
  so.max_inflight_per_session = window + 4;
  so.max_inflight_global = clients * window + 8;
  so.reserve_instances = clients * window;  // allocation-free steady state
  Server server(std::move(so));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "FAILED to start server: %s\n", err.c_str());
    return 1;
  }

  std::printf("NabbitC net bench: variant=%s workers=%u clients=%u window=%u "
              "batch=%u graph=%ux%u secs=%.0f (tcp:%u)\n\n",
              api::variant_name(variant), server.runtime().workers(), clients,
              window, batch, side, side, secs, server.tcp_port());
  check(clients >= 4, "bench requires >= 4 concurrent clients");

  const WireGraph g = make_wavefront_wire_graph(side, /*seed=*/0xbe7c0de);

  std::atomic<bool> stop{false};
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t i = 0; i < clients; ++i) {
    threads.emplace_back(run_client, server.tcp_port(), std::cref(g), window,
                         batch, 0x1000ull * (i + 1), std::cref(stop),
                         std::ref(results[i]));
  }

  const std::uint64_t t_start = now_ns();
  const auto deadline =
      t_start + static_cast<std::uint64_t>(secs * 1e9);
  while (now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed_s = static_cast<double>(now_ns() - t_start) * 1e-9;

  std::vector<double> all;
  std::uint64_t completed = 0, busy = 0;
  for (std::uint32_t i = 0; i < clients; ++i) {
    check(results[i].ok,
          results[i].ok ? "" : ("client failed: " + results[i].error).c_str());
    check(results[i].completed > 0, "client completed no submissions");
    check(results[i].handle == results[0].handle,
          "clients disagree on the content-addressed handle");
    all.insert(all.end(), results[i].latencies_ns.begin(),
               results[i].latencies_ns.end());
    completed += results[i].completed;
    busy += results[i].busy;
  }

  server.runtime().wait_idle();
  const ServerStats stats = server.stats();
  check(stats.plans_compiled == 1, "shared graph compiled more than once");
  check(stats.completed >= completed, "server completed < client-verified");

  report("clients", static_cast<double>(clients), "sessions");
  report("rps_sustained", static_cast<double>(completed) / elapsed_s,
         "graphs/s");
  report("submit_result_p50_ns", nearest_rank_percentile(all, 0.50), "ns");
  report("submit_result_p95_ns", nearest_rank_percentile(all, 0.95), "ns");
  report("submit_result_p99_ns", nearest_rank_percentile(all, 0.99), "ns");
  report("plans_compiled", static_cast<double>(stats.plans_compiled), "plans");
  report("busy_rejections", static_cast<double>(busy), "rejections");
  report("arena_bytes_after", static_cast<double>(stats.arena_bytes), "bytes");

  server.stop();

  // Cold-vs-warm REGISTER: same graphs, fresh daemons, shared cache dir.
  {
    char tmpl[] = "/tmp/nbb-cache-XXXXXX";
    const char* cache_dir = ::mkdtemp(tmpl);
    check(cache_dir != nullptr, "mkdtemp for plan cache");
    const std::uint32_t regs = tiny ? 8 : 16;
    const std::uint32_t reg_nodes = tiny ? 128 : 256;
    const double cold_ns = registration_phase(cache_dir, regs, reg_nodes,
                                              workers, variant,
                                              /*expect_compiled=*/regs);
    const double warm_ns = registration_phase(cache_dir, regs, reg_nodes,
                                              workers, variant,
                                              /*expect_compiled=*/0);
    report("register_cold_ns", cold_ns, "ns");
    report("register_warm_ns", warm_ns, "ns");
    for (const std::string& name : persist::list_dir(cache_dir)) {
      persist::remove_file(std::string(cache_dir) + "/" + name);
    }
    ::rmdir(cache_dir);
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"net\",\n");
  std::fprintf(f, "  \"variant\": \"%s\",\n", api::variant_name(variant));
  std::fprintf(f, "  \"workers\": %u,\n", workers);
  std::fprintf(f, "  \"window\": %u,\n", window);
  std::fprintf(f, "  \"batch\": %u,\n", batch);
  std::fprintf(f, "  \"nodes_per_graph\": %llu,\n",
               static_cast<unsigned long long>(std::uint64_t{side} * side));
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"value\": %.4f, \"unit\": \"%s\"}%s\n",
                 g_metrics[i].name.c_str(), g_metrics[i].value,
                 g_metrics[i].unit, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[bench] wrote %zu metrics -> %s\n", g_metrics.size(), out.c_str());
  return 0;
}
