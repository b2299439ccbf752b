// Serving-grade submission control: high-priority latency under saturating
// low-priority load, and cancellation drain time.
//
// The serving scenario behind SubmitOptions: a runtime fielding a steady
// stream of background (low-priority) graph replays must still complete a
// latency-sensitive (high-priority) request promptly — the scheduler's
// priority lanes pop the probe's root ahead of the queued background roots,
// so the probe waits only for in-flight node computes, not for the whole
// backlog. Reported:
//
//   * unloaded_p50_ns / p95 — high-priority submit->complete round trip on
//     an idle pool (the floor);
//   * high_prio_p50_ns / p95 / max — the same probe while `streams`
//     low-priority replays are kept in flight continuously (the headline:
//     bounded latency under saturation);
//   * background_completed — background graphs retired during the loaded
//     window (the low lane's guaranteed progress);
//   * cancel_drain_p50_ns — submit+cancel round trip of a background
//     graph: how fast a cancelled execution vacates the pool (the skip
//     cascade), with cancel_skipped_mean counting the nodes it skipped;
//   * singleton / batch32 / inline_submits_per_sec and the medians of
//     their per-round ratios batch_speedup_x and inline_speedup_x — the
//     front-door cost of one graph on each submit path;
//   * arena_bytes_after — frame memory at the end (cancellations must not
//     leak epoch-stamped blocks).
//
// Usage (key=value args, NABBITC_* env overrides):
//   bench_serving [preset=tiny|default] [workers=N] [streams=N]
//                 [side_bg=N] [side_hi=N] [samples=N]
//                 [variant=nabbit|nabbitc] [out=BENCH_serving.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/nabbitc.h"
#include "rt/status.h"
#include "support/config.h"
#include "support/stats.h"
#include "support/timing.h"

using namespace nabbitc;
using nabbit::Key;

namespace {

/// Commutative-accumulate wavefront (same shape as bench_throughput): safe
/// under concurrent replays, work per node is one fetch_add.
struct StreamNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit StreamNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(nabbit::ExecContext&) override {
    const std::uint32_t i = nabbit::key_major(key()), j = nabbit::key_minor(key());
    if (i > 0) add_predecessor(nabbit::key_pack(i - 1, j));
    if (j > 0) add_predecessor(nabbit::key_pack(i, j - 1));
  }
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(1, std::memory_order_relaxed);
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
  std::size_t expected_nodes() const override { return std::size_t{side} * side; }
};

/// Single-node graph for the batched-submission phase: submission overhead
/// IS the workload, so the per-graph cost measured there is the front-door
/// round trip, not compute.
struct TickNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit TickNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(nabbit::ExecContext&) override {}
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(1, std::memory_order_relaxed);
  }
};

struct TickSpec final : nabbit::GraphSpec {
  std::atomic<std::uint64_t>* acc;
  explicit TickSpec(std::atomic<std::uint64_t>* a) : acc(a) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<TickNode>(acc);
  }
  std::size_t expected_nodes() const override { return 1; }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> g_metrics;

void report(const std::string& name, double value, const char* unit) {
  g_metrics.push_back({name, value, unit});
  std::printf("%-28s %16.2f %s\n", name.c_str(), value, unit);
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const std::string preset = cfg.get("preset", "default");
  const bool tiny = preset == "tiny";
  const std::string out = cfg.get("out", "BENCH_serving.json");
  const auto workers = static_cast<std::uint32_t>(cfg.get_int("workers", 2));
  const auto streams = static_cast<std::uint32_t>(cfg.get_int("streams", tiny ? 2 : 4));
  const auto side_bg =
      static_cast<std::uint32_t>(cfg.get_int("side_bg", tiny ? 20 : 32));
  const auto side_hi =
      static_cast<std::uint32_t>(cfg.get_int("side_hi", 8));
  const int samples = static_cast<int>(cfg.get_int("samples", tiny ? 60 : 400));
  api::Variant variant = api::parse_variant(cfg.get("variant", "nabbitc"));

  api::RuntimeOptions ro;
  ro.workers = workers;
  ro.variant = variant;
  api::Runtime rt(ro);

  std::printf("NabbitC serving bench: variant=%s workers=%u streams=%u "
              "bg=%ux%u probe=%ux%u samples=%d\n\n",
              api::variant_name(variant), rt.workers(), streams, side_bg,
              side_bg, side_hi, side_hi, samples);

  std::atomic<std::uint64_t> bg_acc{0}, hi_acc{0};
  StreamSpec bg_spec(&bg_acc, side_bg, rt.workers());
  StreamSpec hi_spec(&hi_acc, side_hi, rt.workers());
  auto bg_plan = rt.compile(bg_spec, nabbit::key_pack(side_bg - 1, side_bg - 1),
                            /*reserve_instances=*/streams + 1);
  auto hi_plan = rt.compile(hi_spec, nabbit::key_pack(side_hi - 1, side_hi - 1),
                            /*reserve_instances=*/2);
  const std::uint64_t hi_nodes = std::uint64_t{side_hi} * side_hi;
  const std::uint64_t bg_nodes = std::uint64_t{side_bg} * side_bg;

  api::SubmitOptions hi_opts;
  hi_opts.priority = api::Priority::kHigh;
  hi_opts.name = "latency-probe";
  api::SubmitOptions lo_opts;
  lo_opts.priority = api::Priority::kLow;
  lo_opts.name = "background";

  // --- floor: the probe on an idle pool.
  for (int i = 0; i < 8; ++i) rt.run(*hi_plan, hi_opts);  // warm-up
  std::vector<double> unloaded;
  unloaded.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t t0 = now_ns();
    rt.run(*hi_plan, hi_opts);
    unloaded.push_back(static_cast<double>(now_ns() - t0));
  }
  check(hi_acc.load() % hi_nodes == 0, "probe replays diverged");
  report("unloaded_p50_ns", nearest_rank_percentile(unloaded, 0.50), "ns");
  report("unloaded_p95_ns", nearest_rank_percentile(unloaded, 0.95), "ns");

  // --- the headline: the probe while `streams` low-priority replays are
  // kept in flight (every completed background handle is resubmitted
  // before the next probe, so the low lane always has a queued root).
  std::vector<api::Execution> background;
  background.reserve(streams);
  for (std::uint32_t s = 0; s < streams; ++s) {
    background.push_back(rt.submit(*bg_plan, lo_opts));
  }
  std::uint64_t bg_completed = 0;
  std::vector<double> loaded;
  loaded.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    for (auto& slot : background) {
      if (slot.done()) {
        slot = rt.submit(*bg_plan, lo_opts);  // old handle joins + recycles
        ++bg_completed;
      }
    }
    const std::uint64_t t0 = now_ns();
    rt.run(*hi_plan, hi_opts);
    loaded.push_back(static_cast<double>(now_ns() - t0));
  }
  for (auto& slot : background) {
    slot.wait();
    ++bg_completed;
  }
  background.clear();
  check(hi_acc.load() % hi_nodes == 0, "loaded probe replays diverged");
  check(bg_acc.load() == bg_completed * bg_nodes, "background replays diverged");
  report("high_prio_p50_ns", nearest_rank_percentile(loaded, 0.50), "ns");
  report("high_prio_p95_ns", nearest_rank_percentile(loaded, 0.95), "ns");
  report("high_prio_p99_ns", nearest_rank_percentile(loaded, 0.99), "ns");
  report("high_prio_max_ns", loaded.back(), "ns");  // sorted by nearest_rank_percentile()
  report("background_completed", static_cast<double>(bg_completed), "graphs");

  // --- cancellation drain: how fast a cancelled background graph vacates
  // the pool (submit, let it start, cancel, wait).
  std::vector<double> drain;
  std::uint64_t skipped_total = 0;
  int outcome_count[4] = {0, 0, 0, 0};  // indexed by api::ExecStatus
  const int cancel_rounds = samples / 4 + 1;
  for (int i = 0; i < cancel_rounds; ++i) {
    api::Execution e = rt.submit(*bg_plan, lo_opts);
    const std::uint64_t t0 = now_ns();
    e.cancel();
    e.wait();
    drain.push_back(static_cast<double>(now_ns() - t0));
    const api::Status st = e.status();
    skipped_total += st.skipped_nodes;
    ++outcome_count[static_cast<std::uint8_t>(st.state) & 3];
  }
  // Cancel legitimately races completion; both terminal states are fine,
  // but the split is worth seeing (all-completed would mean the cancel
  // never landed before the sink and the drain numbers measure nothing).
  std::printf("cancel outcomes:");
  for (std::uint8_t s = 0; s < 4; ++s) {
    if (outcome_count[s] > 0) {
      std::printf(" %s=%d", rt::exec_status_name(static_cast<api::ExecStatus>(s)),
                  outcome_count[s]);
    }
  }
  std::printf("\n");
  report("cancel_drain_p50_ns", nearest_rank_percentile(drain, 0.50), "ns");
  report("cancel_skipped_mean",
         static_cast<double>(skipped_total) / static_cast<double>(cancel_rounds),
         "nodes");
  // --- batched submission throughput: singleton submit+wait per graph vs
  // submit_batch(32)+wait_all per 32 graphs, on a single-node plan so the
  // front-door round trip IS the workload. The singleton loop pays the
  // injection handshake (and, against a busy pool, a park/unpark) per
  // graph; the batch pays one pool checkout, one ring push, and one wake
  // per 32 — this amortization factor is the tentpole number. Tiny-graph
  // lowering is turned OFF for these two plans: a 1-node plan would
  // otherwise run inline and never touch the front door being measured.
  // The same 1-node plan compiled with the default replays inline on
  // the submitting thread — no scheduler, no park/unpark — and is timed as
  // the third member of each round.
  //
  // One short sample per path is at the mercy of host CPU steal, so the
  // paths are timed in kRounds rounds whose order flips every round, and
  // each speedup is the median of its per-round ratios (ci.sh gates
  // batch_speedup_x and inline_speedup_x). The rates are per-path medians.
  {
    constexpr std::uint64_t kBatchSize = 32;
    constexpr int kRounds = 7;
    std::atomic<std::uint64_t> tick_acc{0};
    TickSpec tick_spec(&tick_acc);
    auto tick_plan = rt.compile(tick_spec, 0,
                                /*reserve_instances=*/kBatchSize + 1,
                                /*tiny_lower=*/false);
    auto inline_plan = rt.compile(tick_spec, 0, /*reserve_instances=*/1);
    check(inline_plan->serial_lowered(), "1-node plan was not lowered");
    const std::uint64_t budget_ns = tiny ? 100'000'000ull : 400'000'000ull;
    const auto timed_rate = [&](auto&& round, std::uint64_t graphs_per_round) {
      round();  // warm-up
      std::uint64_t done = 0;
      const std::uint64_t t0 = now_ns();
      std::uint64_t t1 = t0;
      do {
        round();
        done += graphs_per_round;
        t1 = now_ns();
      } while (t1 - t0 < budget_ns);
      return static_cast<double>(done) * 1e9 / static_cast<double>(t1 - t0);
    };

    std::uint64_t expected = 0;
    const auto singleton_rate = [&] {
      return timed_rate(
          [&] {
            rt.run(*tick_plan);
            ++expected;
          },
          1);
    };
    const auto batch_rate = [&] {
      return timed_rate(
          [&] {
            auto batch = rt.submit_batch(*tick_plan, kBatchSize);
            batch.wait_all();
            expected += kBatchSize;
          },
          kBatchSize);
    };
    const auto inline_rate = [&] {
      return timed_rate(
          [&] {
            rt.run(*inline_plan);
            ++expected;
          },
          1);
    };
    Samples singleton, batch, inlined, batch_x, inline_x;
    for (int i = 0; i < kRounds; ++i) {
      double s = 0, b = 0, in = 0;
      if (i % 2 == 0) {
        s = singleton_rate();
        b = batch_rate();
        in = inline_rate();
      } else {
        in = inline_rate();
        b = batch_rate();
        s = singleton_rate();
      }
      singleton.add(s);
      batch.add(b);
      inlined.add(in);
      batch_x.add(b / s);
      inline_x.add(in / s);
    }
    check(tick_acc.load() == expected, "batched replays diverged");
    std::printf("speedup per round (batch32, inline over singleton):");
    for (int i = 0; i < kRounds; ++i) {
      std::printf(" %.1f/%.1f", batch_x.values()[i], inline_x.values()[i]);
    }
    std::printf("\n");
    report("singleton_submits_per_sec", singleton.median(), "graphs/s");
    report("batch32_submits_per_sec", batch.median(), "graphs/s");
    report("batch_speedup_x", batch_x.median(), "x");
    report("inline_submits_per_sec", inlined.median(), "graphs/s");
    report("inline_speedup_x", inline_x.median(), "x");
  }

  rt.wait_idle();
  report("arena_bytes_after", static_cast<double>(rt.arena_bytes()), "bytes");

  // --- JSON out.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serving\",\n");
  std::fprintf(f, "  \"variant\": \"%s\",\n", api::variant_name(variant));
  std::fprintf(f, "  \"workers\": %u,\n", rt.workers());
  std::fprintf(f, "  \"streams\": %u,\n", streams);
  std::fprintf(f, "  \"bg_nodes_per_graph\": %llu,\n",
               static_cast<unsigned long long>(bg_nodes));
  std::fprintf(f, "  \"probe_nodes_per_graph\": %llu,\n",
               static_cast<unsigned long long>(hi_nodes));
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
