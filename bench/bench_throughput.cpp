// Sustained-serving throughput: fresh GraphSpec submission vs compiled-plan
// replay, serialized and under N concurrent replay streams.
//
// This is the benchmark behind the freeze-once/replay-many subsystem
// (src/plan/): a server fielding the same DAG per request should pay graph
// construction once, at compile time, and nothing but instance reset +
// injection on the steady-state path. Reported:
//
//   * fresh_submit_ns / replay_submit_ns — one whole graph round trip
//     (submit+wait) through each path, serialized, best repeat;
//   * replay_speedup_x — fresh / replay;
//   * sustained_submissions_per_sec, replay_node_ns — N threads replaying
//     one plan each for a timed window, all sharing the worker pool (the
//     epoch-segmented arenas keep memory flat: arena_bytes is reported);
//   * checksum verification on every phase: a replay that diverged from
//     the fresh path aborts the benchmark.
//
// Usage (key=value args, NABBITC_* env overrides):
//   bench_throughput [preset=tiny|default] [workers=N] [streams=N]
//                    [side=N] [secs=S] [variant=nabbit|nabbitc]
//                    [out=BENCH_throughput.json]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "support/config.h"
#include "support/timing.h"

using namespace nabbitc;
using nabbit::Key;

namespace {

/// Commutative-accumulate wavefront (stencil dependence shape): safe under
/// concurrent replays, and every execution's contribution is checkable.
struct StreamNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit StreamNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(nabbit::ExecContext&) override {
    const std::uint32_t i = nabbit::key_major(key()), j = nabbit::key_minor(key());
    if (i > 0) add_predecessor(nabbit::key_pack(i - 1, j));
    if (j > 0) add_predecessor(nabbit::key_pack(i, j - 1));
  }
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct StreamSpec final : nabbit::GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t side;
  std::uint32_t colors;
  StreamSpec(std::atomic<std::uint64_t>* a, std::uint32_t s, std::uint32_t c)
      : acc(a), side(s), colors(c) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<StreamNode>(acc);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(nabbit::key_major(k) % colors);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{side} * side;
  }

  std::uint64_t per_run_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < side; ++i) {
      for (std::uint32_t j = 0; j < side; ++j) t += nabbit::key_pack(i, j) + 1;
    }
    return t;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> g_metrics;

void report(const std::string& name, double value, const char* unit) {
  g_metrics.push_back({name, value, unit});
  std::printf("%-32s %16.2f %s\n", name.c_str(), value, unit);
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

/// Best-of-repeats wall time for `rounds` calls of fn().
template <typename Fn>
double best_seconds(int repeats, int rounds, Fn&& fn) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    for (int i = 0; i < rounds; ++i) fn();
    const double s = t.seconds();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const std::string preset = cfg.get("preset", "default");
  const bool tiny = preset == "tiny";
  const std::string out = cfg.get("out", "BENCH_throughput.json");
  const auto workers = static_cast<std::uint32_t>(cfg.get_int("workers", 2));
  const auto streams = static_cast<std::uint32_t>(cfg.get_int("streams", 2));
  const auto side =
      static_cast<std::uint32_t>(cfg.get_int("side", tiny ? 16 : 32));
  const double secs = cfg.get_double("secs", tiny ? 0.15 : 1.0);
  const int rounds = tiny ? 20 : 60;
  const int repeats = tiny ? 2 : 3;
  api::Variant variant = api::parse_variant(cfg.get("variant", "nabbitc"));

  api::RuntimeOptions ro;
  ro.workers = workers;
  ro.variant = variant;
  api::Runtime rt(ro);

  const std::uint64_t nodes = std::uint64_t{side} * side;
  std::printf("NabbitC throughput bench: variant=%s workers=%u streams=%u "
              "side=%u (%llu nodes/graph)\n\n",
              api::variant_name(variant), rt.workers(), streams, side,
              static_cast<unsigned long long>(nodes));

  // --- serialized baseline: fresh GraphSpec submission per request.
  std::atomic<std::uint64_t> acc{0};
  StreamSpec spec(&acc, side, rt.workers());
  const std::uint64_t per_run = spec.per_run_total();
  rt.run(spec, nabbit::key_pack(side - 1, side - 1));  // warm-up
  acc.store(0);
  const double fresh_s = best_seconds(repeats, rounds, [&] {
    rt.run(spec, nabbit::key_pack(side - 1, side - 1));
  });
  check(acc.load() % per_run == 0, "fresh submissions diverged");
  report("fresh_submit_ns", fresh_s * 1e9 / rounds, "ns/graph");
  report("fresh_node_ns", fresh_s * 1e9 / static_cast<double>(rounds * nodes),
         "ns/node");

  // --- serialized replay: compile once, resubmit the plan.
  auto plan = rt.compile(spec, nabbit::key_pack(side - 1, side - 1),
                         /*reserve_instances=*/streams + 1);
  acc.store(0);
  rt.run(*plan);  // warm-up
  check(acc.load() == per_run, "replay diverged from fresh submission");
  acc.store(0);
  const double replay_s = best_seconds(repeats, rounds, [&] { rt.run(*plan); });
  check(acc.load() % per_run == 0, "replays diverged");
  report("plan_replay_submit_ns", replay_s * 1e9 / rounds, "ns/graph");
  report("replay_node_ns", replay_s * 1e9 / static_cast<double>(rounds * nodes),
         "ns/node");
  report("replay_speedup_x", fresh_s / replay_s, "x");

  // --- serialized batched replay: the same plan, `batch` graphs per
  // submit_batch+wait_all call. On compute-heavy graphs the win is modest
  // (the front door is amortized but the nodes still run); bench_serving's
  // single-node phase isolates the submission overhead itself.
  const auto batch_n =
      static_cast<std::size_t>(cfg.get_int("batch", 32));
  acc.store(0);
  {
    auto warm = rt.submit_batch(*plan, batch_n);
    warm.wait_all();
  }
  check(acc.load() == per_run * batch_n,
        "batched replay diverged from fresh submission");
  acc.store(0);
  const int batch_rounds = rounds / 8 + 1;
  const double batch_s = best_seconds(repeats, batch_rounds, [&] {
    auto b = rt.submit_batch(*plan, batch_n);
    b.wait_all();
  });
  check(acc.load() % per_run == 0, "batched replays diverged");
  report("plan_batch_submit_ns",
         batch_s * 1e9 / static_cast<double>(batch_rounds) /
             static_cast<double>(batch_n),
         "ns/graph");

  // --- N concurrent replay streams, one shared worker pool, timed window.
  acc.store(0);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  Timer window;
  for (std::uint32_t t = 0; t < streams; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        rt.run(*plan);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (window.seconds() < secs) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double elapsed = window.seconds();
  const auto done = completed.load();
  check(done > 0, "no replay completed inside the timed window");
  check(acc.load() == per_run * done, "concurrent replays diverged");
  report("sustained_submissions_per_sec",
         static_cast<double>(done) / elapsed, "graphs/s");
  report("sustained_node_ns",
         elapsed * 1e9 / static_cast<double>(done * nodes), "ns/node");
  report("plan_instances", static_cast<double>(plan->instances_built()),
         "instances");
  report("arena_bytes_after", static_cast<double>(rt.arena_bytes()), "bytes");

  // --- JSON out.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"variant\": \"%s\",\n", api::variant_name(variant));
  std::fprintf(f, "  \"workers\": %u,\n", rt.workers());
  std::fprintf(f, "  \"streams\": %u,\n", streams);
  std::fprintf(f, "  \"side\": %u,\n", side);
  std::fprintf(f, "  \"nodes_per_graph\": %llu,\n",
               static_cast<unsigned long long>(nodes));
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
