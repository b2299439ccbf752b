// Runtime micro-benchmarks: the primitive costs behind the paper's overhead
// analysis — deque operations, colored-steal checks, spawn/sync, node
// creation, successor registration — plus end-to-end dynamic-executor node
// throughput, the metric every hot-path perf PR is judged on.
//
// Self-contained (no google-benchmark): each micro-bench is calibrated to a
// target wall time, repeated, and the best repeat is reported. Results are
// written to a machine-readable JSON file so CI and future PRs can diff
// them (see README "Performance").
//
// Usage (key=value args, NABBITC_* env overrides):
//   bench_micro_runtime [preset=tiny|default] [out=BENCH_micro.json]
//                       [repeats=N] [filter=substring]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "nabbit/concurrent_map.h"
#include "nabbit/node.h"
#include "nabbit/successor_list.h"
#include "net/protocol.h"
#include "net/remote_graph.h"
#include "obs/metrics.h"
#include "persist/plan_blob.h"
#include "rt/arena.h"
#include "rt/color_mask.h"
#include "rt/deque.h"
#include "rt/submit_ring.h"
#include "support/config.h"
#include "support/hash.h"
#include "support/small_vec.h"
#include "support/timing.h"

using namespace nabbitc;
using nabbit::Key;

namespace {

struct BenchParams {
  double target_seconds = 0.2;  // per calibrated repeat
  int repeats = 3;
  std::uint64_t map_keys = 1 << 17;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> g_metrics;

void report(const std::string& name, double value, const char* unit) {
  g_metrics.push_back({name, value, unit});
  std::printf("%-28s %12.2f %s\n", name.c_str(), value, unit);
}

/// Calibrates `fn(iters)` to roughly target_seconds, runs `repeats` timed
/// repeats, and returns the best ns/op.
template <typename Fn>
double best_ns_per_op(const BenchParams& p, Fn&& fn, std::uint64_t start_iters = 1024) {
  std::uint64_t iters = start_iters;
  for (;;) {
    Timer t;
    fn(iters);
    const double s = t.seconds();
    if (s >= p.target_seconds / 4 || iters > (1ull << 30)) break;
    const double scale = s > 1e-9 ? (p.target_seconds / s) : 16.0;
    iters = static_cast<std::uint64_t>(
        static_cast<double>(iters) * (scale > 16.0 ? 16.0 : scale)) + 1;
  }
  double best = 1e18;
  for (int r = 0; r < p.repeats; ++r) {
    Timer t;
    fn(iters);
    const double ns = t.seconds() * 1e9 / static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

template <typename T>
void do_not_optimize(T const& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

struct NopTask final : rt::Task {
  void run(rt::Worker&) override {}
};

// ---------------------------------------------------------------------------
// Micro-benchmarks. Each returns (metric name, ns/op or derived unit).

void bench_deque_push_pop(const BenchParams& p) {
  rt::WorkDeque d;
  NopTask t;
  report("deque_push_pop_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             d.push(&t);
             do_not_optimize(d.pop());
           }
         }),
         "ns/op");
}

void bench_steal_miss(const BenchParams& p) {
  // Stealing from an empty deque: the fast-fail path of every miss.
  rt::WorkDeque d;
  report("deque_steal_miss_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             rt::Task* out = nullptr;
             do_not_optimize(d.steal(&out));
           }
         }),
         "ns/op");
}

void bench_colored_steal_check(const BenchParams& p) {
  // The O(1) color-deque membership test of SectionIII (always a miss).
  rt::WorkDeque d;
  NopTask t;
  t.colors = rt::ColorMask::single(7);
  d.push(&t);
  rt::ColorMask want = rt::ColorMask::single(3);
  report("colored_steal_check_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             rt::Task* out = nullptr;
             do_not_optimize(d.steal(&out, &want));
           }
         }),
         "ns/op");
}

void bench_steal_attempt(const BenchParams& p) {
  // One full Worker::find_task miss — empty own deque, one steal round
  // against parked victims. This is the steady-state cost a thief pays per
  // attempt; the PR's target for "leaner steal loop".
  api::RuntimeOptions ro;
  ro.workers = 4;
  api::Runtime rt(ro);
  rt::Worker& w = rt.scheduler().worker(0);
  report("steal_attempt_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             if (w.find_task() != nullptr) std::abort();
           }
         }),
         "ns/op");
}

void bench_arena_create(const BenchParams& p) {
  rt::JobArena arena;
  report("arena_create_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           arena.reset();
           for (std::uint64_t i = 0; i < n; ++i) {
             do_not_optimize(arena.create<std::uint64_t>(i));
             if ((i & 0xfff) == 0xfff) arena.reset();
           }
         }),
         "ns/op");
}

void bench_small_vec_push(const BenchParams& p) {
  report("small_vec_push4_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             SmallVec<Key, 4> v;
             v.push_back(i);
             v.push_back(i + 1);
             v.push_back(i + 2);
             v.push_back(i + 3);
             do_not_optimize(v.data());
           }
         }),
         "ns/op");
}

struct MapNode final : nabbit::TaskGraphNode {
  void init(nabbit::ExecContext&) override {}
  void compute(nabbit::ExecContext&) override {}
};

void bench_map_insert(const BenchParams& p) {
  // Map construction (slot arrays) is excluded: only the insert path — one
  // shard lock, one probe, one slab placement-construct — is timed.
  const std::uint64_t n = p.map_keys;
  double best = 1e18;
  for (int r = 0; r < p.repeats; ++r) {
    nabbit::ConcurrentNodeMap map(n);
    Timer t;
    for (Key k = 0; k < n; ++k) {
      do_not_optimize(map.insert_or_get(
          k, [](nabbit::NodeArena& a, Key) { return a.create<MapNode>(); }));
    }
    const double ns = t.seconds() * 1e9 / static_cast<double>(n);
    if (ns < best) best = ns;
  }
  report("map_insert_ns", best, "ns/op");
}

void bench_map_hit(const BenchParams& p) {
  nabbit::ConcurrentNodeMap map(1 << 10);
  for (Key k = 0; k < 1024; ++k) {
    map.insert_or_get(k, [](nabbit::NodeArena& a, Key) { return a.create<MapNode>(); });
  }
  report("map_hit_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             do_not_optimize(map.find(i & 1023));
           }
         }),
         "ns/op");
}

void bench_successor_add_close(const BenchParams& p) {
  MapNode node;
  report("successor_add_close_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           const std::uint64_t lists = n / 8 + 1;
           for (std::uint64_t i = 0; i < lists; ++i) {
             nabbit::SuccessorList sl;
             nabbit::SuccessorCell cells[8];
             for (int a = 0; a < 8; ++a) sl.try_add(&node, &cells[a]);
             do_not_optimize(sl.close_and_take());
           }
         }),
         "ns/edge");
}

constexpr int kBatch = 1024;

void bench_spawn_sync(const BenchParams& p) {
  api::RuntimeOptions ro;
  ro.workers = 1;  // isolate spawn overhead from stealing
  api::Runtime rt(ro);
  report("spawn_sync_ns_per_task", best_ns_per_op(p, [&](std::uint64_t n) {
           const std::uint64_t rounds = n / kBatch + 1;
           for (std::uint64_t r = 0; r < rounds; ++r) {
             rt.run_parallel([](rt::Worker& w) {
               rt::TaskGroup g;
               for (int i = 0; i < kBatch; ++i) {
                 g.spawn(w, rt::ColorMask{}, [](rt::Worker&) {});
               }
               g.wait(w);
             });
           }
         }, 1 << 14),
         "ns/task");
}

// ---------------------------------------------------------------------------
// End-to-end: dynamic-executor node throughput on a 2-D grid graph (the
// stencil dependence shape: preds = left and up neighbors).

struct GridNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit GridNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(nabbit::ExecContext&) override {
    const std::uint32_t i = nabbit::key_major(key()), j = nabbit::key_minor(key());
    if (i > 0) add_predecessor(nabbit::key_pack(i - 1, j));
    if (j > 0) add_predecessor(nabbit::key_pack(i, j - 1));
  }
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(key(), std::memory_order_relaxed);
  }
};

struct GridSpec final : nabbit::GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  GridSpec(std::atomic<std::uint64_t>* a, std::uint32_t side) : acc(a), n(side) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<GridNode>(acc);
  }
  std::size_t expected_nodes() const override { return std::size_t{n} * n; }
};

void bench_dynamic_node_throughput(const BenchParams& p, std::uint32_t side,
                                   std::uint32_t workers) {
  // End to end through the façade, exactly as an embedder would run it: one
  // persistent Runtime, one submission per repeat. kNabbit = the vanilla
  // dynamic executor this metric has always measured.
  api::RuntimeOptions ro;
  ro.workers = workers;
  ro.variant = api::Variant::kNabbit;
  api::Runtime rt(ro);
  const double nodes = static_cast<double>(side) * side;
  double best = 1e18;
  for (int r = 0; r < p.repeats + 1; ++r) {  // first repeat doubles as warm-up
    std::atomic<std::uint64_t> acc{0};
    GridSpec spec(&acc, side);
    Timer t;
    api::Execution e = rt.run(spec, nabbit::key_pack(side - 1, side - 1));
    const double s = t.seconds();
    if (r > 0 && s < best) best = s;
    if (e.nodes_computed() != std::uint64_t{side} * side) std::abort();
  }
  report("dynamic_node_ns", best * 1e9 / nodes, "ns/node");
  report("dynamic_nodes_per_sec", nodes / best, "nodes/s");
}

struct OneNode final : nabbit::TaskGraphNode {
  void init(nabbit::ExecContext&) override {}
  void compute(nabbit::ExecContext&) override {}
};
struct OneSpec final : nabbit::GraphSpec {
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<OneNode>();
  }
  std::size_t expected_nodes() const override { return 1; }
};

// Pure façade overhead: submit+wait of a single-node graph on an idle
// runtime — per-execution state (executor, node map) plus the injection
// handshake. Graph work is one empty compute().
void bench_runtime_submit(const BenchParams& p) {
  api::RuntimeOptions ro;
  ro.workers = 1;
  api::Runtime rt(ro);
  report("runtime_submit_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             OneSpec spec;
             rt.run(spec, 0);
           }
         }, 256),
         "ns/op");
}

// The same single-node round trip through a compiled plan: instance reset +
// injection handshake only — the amortized-to-zero graph-construction path
// (compare against runtime_submit_ns). By default the one-node plan
// is tiny-lowered and replays inline on the submitting thread
// (plan_replay_submit_ns). With lowering off it takes the scheduler path
// — root job injection, spawn, compute_and_notify
// (plan_sched_replay_submit_ns) — on a ONE-worker pool, where the external
// waiter parks immediately instead of spin-yielding
// (Scheduler::wait_spin_limit — spinning there steals the lone worker's CPU
// under load), so that round trip includes a futex sleep/wake pair;
// multi-worker serving latency is bench_throughput / bench_serving's job.
void plan_replay_round_trip(const BenchParams& p, const char* metric,
                            bool tiny_lower) {
  api::RuntimeOptions ro;
  ro.workers = 1;
  api::Runtime rt(ro);
  OneSpec spec;
  auto plan = rt.compile(spec, 0, /*reserve_instances=*/1, tiny_lower);
  report(metric, best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             rt.run(*plan);
           }
         }, 256),
         "ns/op");
}

void bench_plan_replay_submit(const BenchParams& p) {
  plan_replay_round_trip(p, "plan_replay_submit_ns", /*tiny_lower=*/true);
}

void bench_plan_sched_replay_submit(const BenchParams& p) {
  plan_replay_round_trip(p, "plan_sched_replay_submit_ns",
                         /*tiny_lower=*/false);
}

// The same round trip, batched: 32 single-node replays enter the scheduler
// as ONE batch (one pool checkout, one submit-ring push, one worker wake)
// and complete against one wait_all() park. Reported per GRAPH — the
// headline comparison is plan_batch_submit_ns vs plan_replay_submit_ns,
// whose gap is exactly the amortized injection handshake (on this
// 1-worker pool the singleton number includes a futex sleep/wake pair PER
// graph; the batch pays it once per 32).
void bench_plan_batch_submit(const BenchParams& p) {
  constexpr std::uint64_t kBatchN = 32;
  api::RuntimeOptions ro;
  ro.workers = 1;
  api::Runtime rt(ro);
  OneSpec spec;
  auto plan = rt.compile(spec, 0, /*reserve_instances=*/kBatchN);
  report("plan_batch_submit_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           const std::uint64_t rounds = n / kBatchN + 1;
           for (std::uint64_t r = 0; r < rounds; ++r) {
             auto batch = rt.submit_batch(*plan, kBatchN);
             batch.wait_all();
           }
         }, 1 << 12),
         "ns/op");
}

// Plan persistence (src/persist/): what a daemon pays to compile a
// 1024-node wire graph from scratch, to serialize the compiled plan into a
// PlanBlob, and to load one back (full parse validation + restore over the
// blob's persisted arrays, which re-derives the schedule, key table and
// colors, node functions re-bound from the spec). The
// headline is plan_blob_load_ns vs plan_compile_ns — the warm-start win a
// plan cache buys per registered graph; save is the one-time cost of the
// cache miss that makes every later boot warm.
void bench_plan_persist(const BenchParams& p) {
  api::RuntimeOptions ro;
  ro.workers = 2;
  ro.variant = api::Variant::kNabbitC;
  api::Runtime rt(ro);
  const net::WireGraph g = net::make_random_wire_graph(0x51ed, 1024);
  net::WireWriter w;
  net::encode_register(g, w);
  const std::vector<std::uint8_t> canon(w.span().begin(), w.span().end());
  const std::uint64_t h = content_hash({canon.data(), canon.size()});
  net::RemoteGraphSpec spec(g, rt.workers());

  report("plan_compile_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             auto plan = rt.compile(spec, g.sink());
             do_not_optimize(plan);
           }
         }, 4),
         "ns/op");

  auto plan = rt.compile(spec, g.sink());
  report("plan_blob_save_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             const auto blob =
                 persist::serialize_plan(*plan, {canon.data(), canon.size()}, h);
             do_not_optimize(blob.data());
           }
         }, 16),
         "ns/op");

  const auto blob = std::make_shared<const std::vector<std::uint8_t>>(
      persist::serialize_plan(*plan, {canon.data(), canon.size()}, h));
  report("plan_blob_load_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             persist::PlanBlobView view;
             if (view.parse({blob->data(), blob->size()}) !=
                 persist::BlobError::kOk) {
               std::abort();
             }
             auto restored = rt.restore_plan(spec, g.sink(), view.frozen(blob),
                                             view.colored());
             if (restored == nullptr) std::abort();
             do_not_optimize(restored);
           }
         }, 4),
         "ns/op");
}

// The lock-free front door in isolation: one producer pushing 32-node
// pre-linked chains into a SubmitRing and draining them back out — the
// per-NODE cost of the CAS+reversal pair that replaced the front-door
// mutex acquisition.
void bench_submit_ring_push(const BenchParams& p) {
  struct RingNode {
    RingNode* next = nullptr;
  };
  constexpr std::uint64_t kChain = 32;
  rt::SubmitRing<RingNode> ring;
  RingNode nodes[kChain];
  report("submit_ring_push_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           const std::uint64_t rounds = n / kChain + 1;
           for (std::uint64_t r = 0; r < rounds; ++r) {
             // Pre-link newest-first, exactly as submit_batch does.
             for (std::uint64_t i = kChain - 1; i > 0; --i) {
               nodes[i].next = &nodes[i - 1];
             }
             ring.push_chain(&nodes[kChain - 1], &nodes[0]);
             do_not_optimize(ring.drain_fifo());
           }
         }, 1 << 16),
         "ns/op");
}

// The always-on metrics record path (src/obs/): one Histogram::record is
// the cost every instrumented hot path pays per event — the CI gate holds
// it under 15 ns so "always-on" stays true. The value pattern cycles
// through buckets to defeat a single-line cache-resident best case.
void bench_hist_record(const BenchParams& p) {
  obs::Histogram h;
  report("hist_record_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             h.record(i & 0xffff);
           }
           do_not_optimize(h);
         }, 1 << 16),
         "ns/op");
}

// Read-side cost of one registry snapshot + text exposition over a
// realistically-populated registry — what a 1 Hz scraper (nabbitc-top, the
// metrics_log_interval line) costs the daemon.
void bench_metrics_scrape(const BenchParams& p) {
  obs::Registry reg;
  for (int i = 0; i < 16; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "scrape_bench_h%d", i);
    obs::Histogram& h = reg.histogram(name);
    for (std::uint64_t v = 0; v < 4096; ++v) h.record(v * 97);
    std::snprintf(name, sizeof(name), "scrape_bench_c%d", i);
    reg.counter(name).add(static_cast<std::uint64_t>(i));
  }
  std::string text;
  report("metrics_scrape_ns", best_ns_per_op(p, [&](std::uint64_t n) {
           for (std::uint64_t i = 0; i < n; ++i) {
             text.clear();  // render_text appends
             obs::render_text(reg.snapshot(), text);
             do_not_optimize(text);
           }
         }, 16),
         "ns/op");
}

/// "<cpu model> x<logical cpus>", so a committed baseline names the box
/// it was measured on.
std::string host_name() {
  std::string model = "unknown cpu";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) break;
      model = colon + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      if (!model.empty() && model.back() == '\n') model.pop_back();
      break;
    }
    std::fclose(f);
  }
  return model + " x" + std::to_string(std::thread::hardware_concurrency());
}

void write_json(const std::string& path, const std::string& preset,
                const BenchParams& p, std::uint32_t grid_side,
                std::uint32_t workers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_runtime\",\n");
  std::fprintf(f, "  \"preset\": \"%s\",\n", preset.c_str());
  std::fprintf(f, "  \"host\": \"%s\",\n", host_name().c_str());
  std::fprintf(f, "  \"repeats\": %d,\n", p.repeats);
  std::fprintf(f, "  \"grid_side\": %u,\n", grid_side);
  std::fprintf(f, "  \"dynamic_workers\": %u,\n", workers);
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"value\": %.4f, \"unit\": \"%s\"}%s\n",
                 g_metrics[i].name.c_str(), g_metrics[i].value,
                 g_metrics[i].unit, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[bench] wrote %zu metrics -> %s\n", g_metrics.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const std::string preset = cfg.get("preset", "default");
  const std::string out = cfg.get("out", "BENCH_micro.json");
  const std::string filter = cfg.get("filter", "");

  BenchParams p;
  std::uint32_t grid_side = 96;
  std::uint32_t dyn_workers = 2;
  if (preset == "tiny") {
    p.target_seconds = 0.02;
    p.repeats = 2;
    p.map_keys = 1 << 14;
    grid_side = 32;
  }
  p.repeats = static_cast<int>(cfg.get_int("repeats", p.repeats));

  struct Entry {
    const char* name;
    void (*fn)(const BenchParams&);
  };
  const Entry entries[] = {
      {"deque_push_pop", bench_deque_push_pop},
      {"steal_miss", bench_steal_miss},
      {"colored_steal_check", bench_colored_steal_check},
      {"steal_attempt", bench_steal_attempt},
      {"arena_create", bench_arena_create},
      {"small_vec_push", bench_small_vec_push},
      {"map_insert", bench_map_insert},
      {"map_hit", bench_map_hit},
      {"successor_add_close", bench_successor_add_close},
      {"spawn_sync", bench_spawn_sync},
      {"runtime_submit", bench_runtime_submit},
      {"plan_replay_submit", bench_plan_replay_submit},
      {"plan_sched_replay_submit", bench_plan_sched_replay_submit},
      {"plan_batch_submit", bench_plan_batch_submit},
      {"plan_persist", bench_plan_persist},
      {"submit_ring_push", bench_submit_ring_push},
      {"hist_record", bench_hist_record},
      {"metrics_scrape", bench_metrics_scrape},
  };
  std::printf("NabbitC micro-runtime bench (preset=%s, repeats=%d)\n\n",
              preset.c_str(), p.repeats);
  for (const Entry& e : entries) {
    if (!filter.empty() && std::string(e.name).find(filter) == std::string::npos) {
      continue;
    }
    e.fn(p);
  }
  if (filter.empty() ||
      std::string("dynamic_node_throughput").find(filter) != std::string::npos) {
    bench_dynamic_node_throughput(p, grid_side, dyn_workers);
  }
  write_json(out, preset, p, grid_side, dyn_workers);
  return 0;
}
