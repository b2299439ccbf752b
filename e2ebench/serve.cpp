// The daemon workloads: serve_tiny_tcp and serve_wavefront_unix.
//
// Each run starts the real nabbitc-serve binary (2 workers) several times
// to time set-up, then drives the last instance open loop from one thread
// per connection: requests are due on a fixed, seed-jittered schedule and
// each is timed from when it was due to when its RESULT arrived, so a
// stall also charges the requests queued behind it. Every RESULT is
// checked bit for bit against the client-side reference evaluation.
//
// Untraced runs report the end-to-end metrics: a latency phase at a fixed
// light rate, then a rate ladder for max_rate_rps. The traced segment (one
// of the three a traced run makes, see main.cpp) repeats the latency phase
// untraced and traced (the difference is the tracing overhead), records
// spans around every client call, and reads the daemon's own metrics (the
// METRICS frame) before and after. Per-layer metrics that both daemon
// workloads measure carry the workload as a suffix (".tiny", ".wavefront").
#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "bench_math.h"
#include "common.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/remote_graph.h"
#include "obs/histogram.h"
#include "persist/plan_blob.h"
#include "persist/plan_cache.h"
#include "plan/plan.h"
#include "proc.h"
#include "spans.h"
#include "stub_server.h"

namespace e2ebench {
namespace {

using nabbitc::now_ns;
using nabbitc::net::Client;
using nabbitc::net::WireGraph;

constexpr std::uint64_t kMs = 1'000'000ull;

struct ServeConfig {
  bool tcp = false;
  std::uint32_t conns = 2;
  std::uint32_t batch = 1;      // items per frame; 1 = SUBMIT singletons
  WireGraph graph;
  std::uint32_t max_plan_nodes = 0;  // 0 = no check
  double light_rps = 0;         // latency-phase offered rate, items/s
  double lat_share = 0;         // share of --seconds for the latency phase
  double step_secs = 0;         // duration of one ladder rung
  // Highest rate the ladder offers; reaching it with every rung met ends
  // the ladder as generator-bound. Kept well below the generator's own
  // ceiling against a server that answers at once (--generator-check).
  double generator_max_rps = 0;
  std::uint32_t setups = 5;
  // Items per connection in the set-up burst, all submitted before any
  // result is awaited; 0 = two SUBMIT singletons per connection.
  std::uint32_t warm_burst = 0;
};

ServeConfig config_for(const Args& args) {
  ServeConfig c;
  SeedStream s(args.seed, 1);
  if (args.workload == "serve_tiny_tcp") {
    c.tcp = true;
    c.batch = 1;
    // < 32 nodes: the plan is lowered to the inline serial interpreter.
    c.graph = nabbitc::net::make_random_wire_graph(s.next(), 16);
    c.max_plan_nodes = 31;
    c.light_rps = 36;  // 55.6 ms per connection: above the 40 ms ACK delay
    c.lat_share = 0.8;
    c.step_secs = 1.0;
    c.generator_max_rps = 20000;
  } else {
    c.tcp = false;
    c.batch = 4;
    c.graph = nabbitc::net::make_wavefront_wire_graph(32, s.next(),
                                                      /*node_spin_ns=*/600);
    c.light_rps = 960;
    c.lat_share = 0.5;
    c.step_secs = 1.5;
    c.setups = 9;
    // 2 x 16 executions in flight at once: the daemon's plan-instance pool
    // grows, by its own policy, to a fixed size at set-up, so its peak RSS
    // does not depend on how deep a host hiccup pushes the open-loop phase.
    c.warm_burst = 16;
    c.generator_max_rps = 40000;
  }
  return c;
}

/// One running server (the daemon, or the stub of --generator-check) plus
/// its connected, registered clients.
struct Service {
  Daemon daemon;
  std::uint16_t tcp_port = 0;
  std::vector<std::unique_ptr<Client>> clients;
  std::uint64_t handle = 0;
  std::uint64_t expect_sink = 0;
};

std::string socket_path(const Args& args) { return args.workdir + "/s.sock"; }

bool connect(Client& c, const ServeConfig& cfg, const Service& svc,
             const Args& args) {
  return cfg.tcp ? c.connect_tcp(svc.tcp_port)
                 : c.connect_unix(socket_path(args));
}

/// Connects cfg.conns clients to a listening server and REGISTERs the
/// workload's graph on each. Returns false with *err on any failure.
bool connect_all(const Args& args, const ServeConfig& cfg, Service& svc,
                 std::string* err) {
  svc.expect_sink = nabbitc::net::expected_sink_value(cfg.graph);
  for (std::uint32_t i = 0; i < cfg.conns; ++i) {
    auto c = std::make_unique<Client>();
    if (!connect(*c, cfg, svc, args)) {
      *err = "connect: " + c->last_error();
      return false;
    }
    const auto reg = c->register_graph(cfg.graph);
    if (!reg) {
      *err = "register: " + c->last_error();
      return false;
    }
    if (i > 0 && reg->handle != svc.handle) {
      *err = "connections disagree on the content-addressed handle";
      return false;
    }
    if (cfg.max_plan_nodes != 0 && reg->plan_nodes > cfg.max_plan_nodes) {
      *err = "tiny graph is not tiny";
      return false;
    }
    svc.handle = reg->handle;
    svc.clients.push_back(std::move(c));
  }
  return true;
}

/// Full set-up: spawn, listen, connect, REGISTER (compile or plan-cache
/// load), verified warm-up. Returns false with *err on any failure.
bool bring_up(const Args& args, const ServeConfig& cfg, Service& svc,
              Report& report, std::string* err) {
  std::vector<std::string> flags = {
      "workers=2", "plan_cache=" + args.workdir + "/plans",
      "max_inflight_per_session=256", "max_inflight_global=1024"};
  if (cfg.tcp) {
    flags.push_back("tcp=1");
    flags.push_back("port=0");
  } else {
    flags.push_back("unix=" + socket_path(args));
  }
  if (!svc.daemon.start(args.serve_binary, flags, err)) return false;
  svc.tcp_port = svc.daemon.tcp_port();
  if (!connect_all(args, cfg, svc, err)) return false;
  // Warm-up: every connection submits all its items (payloads 0..warm-1)
  // before any result is awaited; each result is verified.
  const std::uint32_t warm = cfg.warm_burst == 0 ? 2 : cfg.warm_burst;
  std::vector<std::vector<std::uint64_t>> ids(svc.clients.size());
  for (std::size_t c = 0; c < svc.clients.size(); ++c) {
    Client& cl = *svc.clients[c];
    report.attempted += warm;
    if (cfg.warm_burst == 0) {
      for (std::uint64_t i = 0; i < warm; ++i) {
        const auto s = cl.submit(svc.handle, i, nabbitc::api::Priority::kNormal);
        if (s && s->accepted) ids[c].push_back(s->exec_id);
      }
    } else {
      std::vector<Client::BatchItem> items(warm);
      for (std::uint64_t i = 0; i < warm; ++i) items[i].payload = i;
      const auto b = cl.submit_batch(svc.handle, items, 10000);
      if (b) ids[c] = b->exec_ids;  // the admitted prefix
    }
    report.failed += warm - ids[c].size();
  }
  for (std::size_t c = 0; c < svc.clients.size(); ++c) {
    for (std::size_t i = 0; i < ids[c].size(); ++i) {
      const auto r = svc.clients[c]->wait_result(ids[c][i], 10000);
      if (!r || r->sink_value != svc.expect_sink ||
          r->result != nabbitc::net::wire_result(svc.expect_sink, i)) {
        ++report.failed;
        if (r) report.correct = false;
      }
    }
  }
  return true;
}

/// Outcome of one open-loop phase at a fixed offered rate.
struct Phase {
  std::vector<double> lat_ms;     // per item: due -> RESULT
  std::vector<std::uint64_t> due; // per item, parallel to lat_ms
  std::vector<double> late_ms;    // per frame: send - due
  std::vector<double> submit_us;  // per frame: Client::submit / submit_batch
  std::vector<double> wait_us;    // per item: SUBMITTED -> RESULT
  std::vector<double> request_self_us;  // root-span self time (traced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t backlog = 0;
  bool overload = false;

  void merge(const Phase& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(lat_ms, o.lat_ms);
    due.insert(due.end(), o.due.begin(), o.due.end());
    cat(late_ms, o.late_ms);
    cat(submit_us, o.submit_us);
    cat(wait_us, o.wait_us);
    cat(request_self_us, o.request_self_us);
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    backlog += o.backlog;
    overload = overload || o.overload;
  }
};

struct SpanNames {
  std::uint32_t request, submit, wait;
};

struct PhaseParams {
  double rate = 0;
  double secs = 0;
  std::uint64_t stream = 0;        // seed stream of this phase's schedule
  double limit_ms = 0;             // for the backlog test
  std::size_t max_outstanding = 0; // 0 = never abort early
};

/// One connection's open loop. Writes only into `out`.
void conn_loop(Client& cl, const ServeConfig& cfg, const Service& svc,
               const Args& args, const PhaseParams& pp, std::uint32_t conn,
               std::uint64_t t_begin, std::atomic<bool>& abort,
               SpanLog::Buffer* buf, const SpanNames& sn, Phase& out) {
  struct Pending {
    std::uint64_t exec_id, payload, due, t_ack;
    std::int64_t root;
  };
  std::deque<Pending> pending;
  SeedStream rng(args.seed, pp.stream * 64 + conn);
  const double interval_ns = 1e9 * cfg.conns * cfg.batch / pp.rate;
  const std::uint64_t t_end = t_begin + static_cast<std::uint64_t>(pp.secs * 1e9);
  const auto t0 = static_cast<double>(t_begin) + interval_ns * conn / cfg.conns;
  std::uint64_t next_payload = rng.next();
  std::vector<Client::BatchItem> items(cfg.batch);

  const auto complete = [&](const Pending& p,
                            const nabbitc::net::ResultMsg& r, std::uint64_t t) {
    if (r.state != static_cast<std::uint8_t>(nabbitc::api::ExecStatus::kCompleted) ||
        r.sink_value != svc.expect_sink ||
        r.result != nabbitc::net::wire_result(svc.expect_sink, p.payload)) {
      ++out.mismatched;
      ++out.failed;
    }
    out.lat_ms.push_back(ns_to_ms(t - p.due));
    out.due.push_back(p.due);
    out.wait_us.push_back(ns_to_us(t - p.t_ack));
    if (buf != nullptr) {
      end_span(buf, p.root, t);
      add_span(buf, {sn.wait, p.exec_id, p.root, p.t_ack, t});
    }
  };
  // Results the client stashed while awaiting another reply.
  const auto sweep = [&](std::uint64_t t) {
    for (auto it = pending.begin();
         it != pending.end() && cl.pending_results() != 0;) {
      const auto r = cl.wait_result(it->exec_id, 0);
      if (r) {
        complete(*it, *r, t);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };
  const auto timed_out = [&] {
    return cl.last_error().rfind("timed out", 0) == 0;
  };
  // Collects results until `until`, leaving ~1.5 ms to sleep precisely.
  // Closer to `until` only results already read are taken: at intervals
  // under 1.5 ms the RESULTs are read while the next submit awaits its
  // reply, and swept right after it.
  const auto harvest = [&](std::uint64_t until) {
    while (!pending.empty() && cl.connected()) {
      const std::uint64_t now = now_ns();
      if (now + 3 * kMs / 2 >= until) {
        sweep(now);
        break;
      }
      const int ms = static_cast<int>((until - now) / kMs) - 1;
      const auto r = cl.wait_result(pending.front().exec_id, ms);
      const std::uint64_t t = now_ns();
      if (r) {
        complete(pending.front(), *r, t);
        pending.pop_front();
        sweep(t);
      } else if (!timed_out()) {
        // ERROR frame or a dropped connection: the request failed.
        ++out.failed;
        pending.pop_front();
      }
    }
  };

  for (std::uint64_t k = 0;; ++k) {
    const auto due = static_cast<std::uint64_t>(
        t0 + (static_cast<double>(k) + 0.05 * rng.unit()) * interval_ns);
    if (due >= t_end || abort.load(std::memory_order_relaxed)) break;
    harvest(due);
    if (!cl.connected()) break;
    if (pp.max_outstanding != 0 &&
        (pending.size() > pp.max_outstanding ||
         (!pending.empty() &&
          ns_to_ms(now_ns() - pending.front().due) > 4 * pp.limit_ms))) {
      out.overload = true;
      abort.store(true, std::memory_order_relaxed);
      break;
    }
    sleep_until_ns(due);
    const std::uint64_t t_send = now_ns();
    out.late_ms.push_back(ns_to_ms(t_send - due));
    out.attempted += cfg.batch;
    std::vector<std::uint64_t> ids;
    std::uint64_t first_payload = next_payload;
    if (cfg.batch == 1) {
      const auto s = cl.submit(svc.handle, next_payload++,
                               nabbitc::api::Priority::kNormal, 0, {}, 10000);
      if (s && s->accepted) ids.push_back(s->exec_id);
      if (s && !s->accepted) ++out.failed;  // BUSY
      if (!s) ++out.failed;                 // ERROR frame or timeout
    } else {
      for (auto& it : items) it.payload = next_payload++;
      const auto b = cl.submit_batch(svc.handle, items, 10000);
      if (b) {
        ids = b->exec_ids;
        out.failed += b->rejected;  // BUSY suffix
      } else {
        out.failed += cfg.batch;
      }
    }
    const std::uint64_t t_ack = now_ns();
    out.submit_us.push_back(ns_to_us(t_ack - t_send));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::int64_t root =
          add_span(buf, {sn.request, ids[i], -1, due, 0});
      add_span(buf, {sn.submit, ids[i], root, t_send, t_ack});
      pending.push_back({ids[i], first_payload + i, due, t_ack, root});
    }
    sweep(t_ack);
  }
  // Backlog: anything still outstanding at the end of the phase that is
  // already older than the latency limit.
  harvest(t_end);
  const std::uint64_t t_stop = std::max(now_ns(), t_end);
  for (const Pending& p : pending) {
    if (ns_to_ms(t_stop - p.due) > pp.limit_ms) ++out.backlog;
  }
  // Drain with a generous timeout; anything still missing then failed.
  const std::uint64_t drain_until = now_ns() + 10'000 * kMs;
  while (!pending.empty() && cl.connected() && now_ns() < drain_until) {
    const auto r = cl.wait_result(pending.front().exec_id, 100);
    const std::uint64_t t = now_ns();
    if (r) {
      complete(pending.front(), *r, t);
      pending.pop_front();
      sweep(t);
    } else if (!timed_out()) {
      ++out.failed;
      pending.pop_front();
    }
  }
  out.failed += pending.size();
}

Phase run_phase(Service& svc, const ServeConfig& cfg, const Args& args,
                const PhaseParams& pp, SpanLog& log, const SpanNames& sn) {
  std::atomic<bool> abort{false};
  std::vector<Phase> per(cfg.conns);
  std::vector<SpanLog::Buffer*> bufs(cfg.conns);
  for (auto& b : bufs) b = log.new_buffer();
  const std::uint64_t t_begin = now_ns() + 5 * kMs;
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < cfg.conns; ++c) {
    threads.emplace_back([&, c] {
      conn_loop(*svc.clients[c], cfg, svc, args, pp, c, t_begin, abort,
                bufs[c], sn, per[c]);
    });
  }
  for (auto& t : threads) t.join();
  Phase all;
  for (const Phase& p : per) all.merge(p);
  // Root-span self time: what the benchmark itself added around the calls.
  for (SpanLog::Buffer* b : bufs) {
    if (b == nullptr) continue;
    const std::vector<std::uint64_t> self = self_times(b->spans);
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      if (b->spans[i].name == sn.request) {
        all.request_self_us.push_back(ns_to_us(self[i]));
      }
    }
  }
  return all;
}

/// Where the ladder splits a bracket, drawn from the seed: 0.35..0.65.
double ladder_split(const Args& args) {
  return 0.35 + 0.3 * SeedStream(args.seed, 9).unit();
}

/// Runs `ladder` to its end, one fixed-rate rung of cfg.step_secs at a time.
void climb(RateLadder& ladder, Service& svc, const ServeConfig& cfg,
           const Args& args, const StepLimits& lim, SpanLog& log,
           const SpanNames& sn, Report& report) {
  std::uint64_t stream = 100;
  while (!ladder.done() && ladder.steps() < 40) {
    const double rate = ladder.next_rate();
    // An overloaded rung stops offering load at 128 outstanding requests,
    // below the daemon's per-session cap of 256, so overload shows as an
    // unmet rung rather than as BUSY replies.
    const Phase st = run_phase(svc, cfg, args,
                               {rate, cfg.step_secs, stream++, lim.p99_limit_ms, 128},
                               log, sn);
    report.attempted += st.attempted;
    report.failed += st.failed;
    if (st.mismatched != 0) report.correct = false;
    const StepOutcome o{rate, nearest_rank(st.lat_ms, 0.99),
                        nearest_rank(st.late_ms, 0.99), st.failed,
                        st.backlog + (st.overload ? 1 : 0)};
    std::fprintf(stderr,
                 "e2ebench: rung %.1f rps p99=%.3f ms late_p99=%.3f ms "
                 "failed=%llu backlog=%llu -> %s\n",
                 rate, o.p99_ms, o.late_p99_ms,
                 static_cast<unsigned long long>(o.failed),
                 static_cast<unsigned long long>(o.backlog),
                 step_met(o, lim) ? "met" : "unmet");
    ladder.record(step_met(o, lim));
  }
}

/// windowed_p99 over the phase's latencies in due-time order.
double phase_p99(const Phase& p, std::size_t need) {
  std::vector<std::size_t> idx(p.lat_ms.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return p.due[a] < p.due[b]; });
  std::vector<double> ordered;
  for (const std::size_t i : idx) ordered.push_back(p.lat_ms[i]);
  return windowed_p99(ordered, need);
}

/// Name -> entry view of a METRICS reply.
using Scrape = std::map<std::string, nabbitc::net::MetricEntry>;

std::optional<Scrape> scrape(Client& c) {
  const auto m = c.metrics(10000);
  if (!m) return std::nullopt;
  Scrape out;
  for (const auto& e : m->entries) out[e.name] = e;
  return out;
}

std::uint64_t counter_delta(const Scrape& a, const Scrape& b,
                            const std::string& name) {
  const auto ia = a.find(name), ib = b.find(name);
  const std::uint64_t va = ia == a.end() ? 0 : ia->second.value;
  const std::uint64_t vb = ib == b.end() ? 0 : ib->second.value;
  return vb >= va ? vb - va : 0;
}

nabbitc::obs::HistSnapshot hist_delta(const Scrape* a, const Scrape& b,
                                      const std::string& name) {
  nabbitc::obs::HistSnapshot h;
  const auto ib = b.find(name);
  if (ib == b.end()) return h;
  for (std::size_t i = 0; i < ib->second.buckets.size() && i < h.buckets.size(); ++i) {
    h.buckets[i] = ib->second.buckets[i];
  }
  if (a != nullptr) {
    const auto ia = a->find(name);
    if (ia != a->end()) {
      for (std::size_t i = 0; i < ia->second.buckets.size() && i < h.buckets.size(); ++i) {
        h.buckets[i] -= std::min(h.buckets[i], ia->second.buckets[i]);
      }
    }
  }
  return h;
}

double hist_p50_us(const nabbitc::obs::HistSnapshot& h) {
  return h.count() == 0 ? 0.0 : h.quantile(0.5) / 1e3;
}

/// In-process probes of the plan and persist layers on fresh wire graphs
/// of the wavefront's size: compile, blob store (write + fsync + rename),
/// and REGISTER over the daemon's socket (compile + store server-side).
void plan_persist_probes(const Args& args, const ServeConfig& cfg, Service& svc,
                         Report& report) {
  const std::uint32_t n = static_cast<std::uint32_t>(cfg.graph.nodes.size());
  SeedStream s(args.seed, 7);
  std::vector<double> compile_ms, store_ms, register_ms, replay_us;
  nabbitc::api::RuntimeOptions ro;
  ro.workers = 2;
  nabbitc::api::Runtime rt(ro);
  nabbitc::persist::PlanCacheDir dir(args.workdir + "/probe-plans");
  dir.ensure_dir();
  for (int i = 0; i < 12; ++i) {
    WireGraph g = nabbitc::net::make_random_wire_graph(s.next(), n, 0);
    nabbitc::net::WireWriter w;
    nabbitc::net::encode_register(g, w);
    const std::vector<std::uint8_t> spec_bytes(w.data(), w.data() + w.size());
    const std::uint64_t hash = nabbitc::net::wire_graph_hash(g);
    nabbitc::net::RemoteGraphSpec spec(g, rt.workers());
    std::uint64_t t = now_ns();
    auto plan = rt.compile(spec, g.sink());
    compile_ms.push_back(ns_to_ms(now_ns() - t));
    const auto blob = nabbitc::persist::serialize_plan(*plan, spec_bytes, hash);
    t = now_ns();
    if (!dir.store(hash, blob)) ++report.failed;
    store_ms.push_back(ns_to_ms(now_ns() - t));
    ++report.attempted;
    // The server-side write path: a fresh graph over REGISTER.
    WireGraph g2 = nabbitc::net::make_random_wire_graph(s.next(), n, 0);
    t = now_ns();
    const auto reg = svc.clients[0]->register_graph(g2);
    register_ms.push_back(ns_to_ms(now_ns() - t));
    ++report.attempted;
    if (!reg || reg->shared != 0) ++report.failed;
  }
  // Replay floor: the wavefront's own graph, in process, checked against
  // the reference sink value.
  nabbitc::net::RemoteGraphSpec wspec(cfg.graph, rt.workers());
  auto wplan = rt.compile(wspec, cfg.graph.sink());
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t t = now_ns();
    nabbitc::api::Execution e = rt.run(*wplan);
    replay_us.push_back(ns_to_us(now_ns() - t));
    const auto* node =
        static_cast<const nabbitc::net::ServeNode*>(e.find(cfg.graph.sink()));
    ++report.attempted;
    if (node == nullptr || node->value != svc.expect_sink) {
      ++report.failed;
      report.correct = false;
    }
  }
  report.add("plan.compile_ms", nearest_rank(compile_ms, 0.5), "ms");
  report.add("plan.replay_us", nearest_rank(replay_us, 0.5), "us");
  report.add("persist.store_ms", nearest_rank(store_ms, 0.5), "ms");
  report.add("net.register_ms", nearest_rank(register_ms, 0.5), "ms");
}

}  // namespace

int run_generator_check(const Args& args, Report& report) {
  const ServeConfig cfg = config_for(args);
  StubServer stub;
  Service svc;
  std::string err;
  if (!(cfg.tcp ? stub.start_tcp(&err) : stub.start_unix(socket_path(args), &err))) {
    std::fprintf(stderr, "e2ebench: stub server: %s\n", err.c_str());
    return 1;
  }
  svc.tcp_port = stub.tcp_port();
  if (!connect_all(args, cfg, svc, &err)) {
    std::fprintf(stderr, "e2ebench: %s\n", err.c_str());
    return 1;
  }
  SpanLog off(false);
  const SpanNames sn{};
  const StepLimits lim{args.p99_limit_ms, args.p99_limit_ms / 2};
  // The workload's own ladder must end generator-bound: any rung it finds
  // unmet against the daemon is then the daemon's doing.
  RateLadder own(cfg.light_rps, 0.03, cfg.generator_max_rps, cfg.light_rps / 64,
                 ladder_split(args));
  climb(own, svc, cfg, args, lim, off, sn, report);
  // The generator's own ceiling: the same ladder with no cap.
  RateLadder uncapped(cfg.light_rps, 0.03, 1e9, cfg.light_rps / 64,
                      ladder_split(args));
  climb(uncapped, svc, cfg, args, lim, off, sn, report);
  report.add("generator_max_rps", cfg.generator_max_rps, "1/s");
  report.add("generator_ceiling_rps", uncapped.max_rate(), "1/s");
  report.add("generator_bound", own.generator_bound() ? 1 : 0, "bool");
  if (!own.generator_bound()) report.correct = false;
  for (auto& c : svc.clients) c->close();
  stub.stop();
  return 0;
}

int run_serve_workload(const Args& args, Report& report) {
  const ServeConfig cfg = config_for(args);
  SpanLog log(args.trace);
  const SpanNames sn{log.name_id("request"),
                     log.name_id(cfg.batch == 1 ? "net.submit" : "net.submit_batch"),
                     log.name_id("net.wait_result")};

  const double limit = args.p99_limit_ms;
  const double late_limit = limit / 2;
  const std::size_t need = samples_needed(0.99, 10);
  auto account = [&](const Phase& p) {
    report.attempted += p.attempted;
    report.failed += p.failed;
    if (p.mismatched != 0) report.correct = false;
    report.gen_late_ms.insert(report.gen_late_ms.end(), p.late_ms.begin(),
                              p.late_ms.end());
  };

  // Set-up, several times. In an untraced run the last kMeasured daemon
  // instances each serve an equal share of the latency phase and the
  // samples are pooled, so one instance's thread placement does not decide
  // the run; the last instance also serves the ladder (or the traced run).
  constexpr std::uint32_t kMeasured = 3;
  std::vector<double> setup_s;
  std::vector<double> rss;
  std::unique_ptr<Service> svc;
  Phase lat;
  std::optional<Scrape> setup_scrape;
  for (std::uint32_t i = 0; i < cfg.setups; ++i) {
    svc.reset();  // stops the previous daemon (not timed)
    svc = std::make_unique<Service>();
    std::string err;
    const std::uint64_t t = now_ns();
    if (!bring_up(args, cfg, *svc, report, &err)) {
      std::fprintf(stderr, "e2ebench: set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    setup_scrape = scrape(*svc->clients[0]);
    if (!setup_scrape) {
      std::fprintf(stderr, "e2ebench: METRICS failed\n");
      return 1;
    }
    if (args.trace || i + kMeasured < cfg.setups) continue;
    const Phase part = run_phase(
        *svc, cfg, args,
        {cfg.light_rps, args.seconds * cfg.lat_share / kMeasured, 1 + i, limit, 0},
        log, sn);
    account(part);
    lat.merge(part);
    // Peak RSS of the daemon at the workload's own rate, read before the
    // ladder drives it into overload.
    rss.push_back(peak_rss_mb(svc->daemon.pid_str()));
  }

  if (!args.trace) {
    const StepOutcome light{cfg.light_rps, nearest_rank(lat.lat_ms, 0.99),
                            nearest_rank(lat.late_ms, 0.99), lat.failed,
                            lat.backlog};
    // Rate ladder, starting from the light rate's own verdict.
    RateLadder ladder(cfg.light_rps, 0.03, cfg.generator_max_rps,
                      cfg.light_rps / 64, ladder_split(args));
    ladder.record(step_met(light, {limit, late_limit}));
    climb(ladder, *svc, cfg, args, {limit, late_limit}, log, sn, report);
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", nearest_rank(lat.lat_ms, 0.50), "ms");
    // p99 is a note, not an end-to-end metric: every workload must report
    // every end-to-end metric, and neither paper_dynamic (a few hundred
    // rounds per run) nor the wavefront (about 4 ms on a quiet host, twice
    // that whenever the hypervisor steals more than ~1% of the CPU) gives a
    // p99 steady enough to bound.
    report.note("p99_ms", phase_p99(lat, need), "ms");
    report.note("p99_whole_ms", nearest_rank(lat.lat_ms, 0.99), "ms");
    report.add("max_rate_rps", ladder.max_rate(), "1/s");
    report.add("rss_mb", median(rss), "MB");
    report.note("latency_samples", static_cast<double>(lat.lat_ms.size()), "count");
    report.note("latency_samples_needed", static_cast<double>(need), "count");
    report.note("samples_beyond_p99",
                static_cast<double>(beyond_count(lat.lat_ms.size(), 0.99)), "count");
    report.note("ladder_steps", static_cast<double>(ladder.steps()), "count");
    report.note("generator_bound", ladder.generator_bound() ? 1 : 0, "bool");
  } else {
    // Untraced then traced latency phase at the same rate and length.
    const double secs = args.seconds * 0.4;
    SpanLog off(false);
    const Phase base =
        run_phase(*svc, cfg, args, {cfg.light_rps, secs, 1, limit, 0}, off, sn);
    account(base);
    std::vector<double> scrape_us;
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t t = now_ns();
      if (!scrape(*svc->clients[0])) ++report.failed;
      scrape_us.push_back(ns_to_us(now_ns() - t));
    }
    const auto m0 = scrape(*svc->clients[0]);
    const std::uint64_t cpu0 = cpu_ns(svc->daemon.pid_str());
    const Phase traced =
        run_phase(*svc, cfg, args, {cfg.light_rps, secs, 1, limit, 0}, log, sn);
    account(traced);
    const std::uint64_t cpu1 = cpu_ns(svc->daemon.pid_str());
    const auto m1 = scrape(*svc->clients[0]);
    if (!m0 || !m1) {
      std::fprintf(stderr, "e2ebench: METRICS failed\n");
      return 1;
    }
    const double done = static_cast<double>(
        std::max<std::uint64_t>(1, counter_delta(*m0, *m1, "net_completed_total")));
    const double submitted = static_cast<double>(
        counter_delta(*m0, *m1, "net_submitted_total"));
    const double busy = static_cast<double>(
        counter_delta(*m0, *m1, "net_busy_rejections_total"));
    const std::string sfx = cfg.tcp ? ".tiny" : ".wavefront";
    report.add("net.submit_ack_us" + sfx, nearest_rank(traced.submit_us, 0.5), "us");
    // Mean, not p50: per connection the Nagle stall settles on either the
    // SUBMITTED or the RESULT write, so the p50 over two connections flips
    // between the modes from run to run.
    double wait_sum = 0;
    for (const double w : traced.wait_us) wait_sum += w;
    report.add("net.result_wait_us" + sfx,
               wait_sum / static_cast<double>(std::max<std::size_t>(1, traced.wait_us.size())),
               "us");
    report.add("net.dispatch_us" + sfx,
               hist_p50_us(hist_delta(&*m0, *m1, "net_dispatch_ns")), "us");
    report.add("net.reply_write_us" + sfx,
               hist_p50_us(hist_delta(&*m0, *m1, "net_reply_ns")), "us");
    report.add("net.bytes_per_req" + sfx,
               static_cast<double>(counter_delta(*m0, *m1, "net_bytes_in_total") +
                                   counter_delta(*m0, *m1, "net_bytes_out_total")) /
                   done,
               "B");
    report.add("api.exec_us" + sfx,
               hist_p50_us(hist_delta(&*m0, *m1, "submit_complete_ns")), "us");
    report.add("rt.cpu_ms_per_req" + sfx, ns_to_ms(cpu1 - cpu0) / done, "ms");
    // BUSY replies are failures of the run, so the light rate never sees
    // one: the share is a note, not a per-layer metric.
    report.note("net.busy_frac" + sfx, busy / std::max(1.0, submitted + busy),
                "frac");
    report.add("bench.request_self_us" + sfx,
               nearest_rank(traced.request_self_us, 0.5), "us");
    const double p50_off = nearest_rank(base.lat_ms, 0.5);
    const double p50_on = nearest_rank(traced.lat_ms, 0.5);
    report.add("bench.trace_overhead_frac" + sfx,
               p50_off > 0 ? (p50_on - p50_off) / p50_off : 0.0, "frac");
    if (!cfg.tcp) {
      // The tiny graph runs inline: it never queues, parks a worker or
      // loads more than one plan, so these come from the wavefront alone.
      report.add("api.queue_wait_us",
                 hist_p50_us(hist_delta(&*m0, *m1, "queue_wait_ns")), "us");
      report.add("rt.park_us", hist_p50_us(hist_delta(&*m0, *m1, "sched_park_ns")),
                 "us");
      report.add("obs.scrape_us", nearest_rank(scrape_us, 0.5), "us");
      report.add("persist.load_us",
                 hist_p50_us(hist_delta(nullptr, *setup_scrape, "persist_cache_load_ns")),
                 "us");
      // Fixed by construction (every set-up after the first finds the
      // plan in the cache), so it is a note, not a per-layer metric.
      const double hits = static_cast<double>(
          counter_delta({}, *setup_scrape, "persist_cache_mem_hits_total") +
          counter_delta({}, *setup_scrape, "persist_cache_disk_hits_total"));
      const double misses = static_cast<double>(
          counter_delta({}, *setup_scrape, "persist_cache_misses_total"));
      report.note("persist.cache_hit_frac", hits / std::max(1.0, hits + misses),
                  "frac");
      plan_persist_probes(args, cfg, *svc, report);
    }
    if (!log.write_chrome_trace(args.trace_file)) ++report.failed;
    std::fprintf(stderr, "e2ebench: spans written to %s\n", args.trace_file.c_str());
  }

  for (auto& c : svc->clients) c->close();
  const int rc = svc->daemon.stop();
  if (rc != 0) {
    std::fprintf(stderr, "e2ebench: daemon exited with %d\n", rc);
    report.correct = false;
  }
  return 0;
}

}  // namespace e2ebench
