// The paper_dynamic workload: the paper's own path, in process.
//
// One api::Runtime (NabbitC, <= 4 workers, a 2-domain topology so the
// locality metric has remote domains to count) runs a closed loop of
// fresh dynamic GraphSpec executions of heat, page-uk-2002 and sw at preset
// small, interleaved in a seed-derived order. Every execution is checked
// against the kernel's serial checksum. A request is one round: the three
// kernels once each, so its time to solution is one unimodal figure rather
// than a mix of three. net, plan and persist are not on this path; the
// traced segment additionally times each kernel, the compiled replay of the
// same graphs and the same loop under plain Nabbit.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "bench_math.h"
#include "common.h"
#include "plan/plan.h"
#include "proc.h"
#include "spans.h"
#include "workloads/workload.h"

namespace e2ebench {
namespace {

using nabbitc::now_ns;

struct Kernel {
  const char* name;   // make_workload name
  const char* label;  // metric label
};
constexpr std::array<Kernel, 3> kKernels{{{"heat", "heat"},
                                          {"page-uk-2002", "page"},
                                          {"sw", "sw"}}};

struct Loaded {
  std::unique_ptr<nabbitc::wl::Workload> w;
  std::unique_ptr<nabbitc::nabbit::GraphSpec> spec;
};

struct Setup {
  std::unique_ptr<nabbitc::api::Runtime> rt;
  std::array<Loaded, 3> k;
};

std::uint32_t worker_count() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

/// The runtime keeps its default steal-RNG seed: the run's seed shapes the
/// inputs (the kernel order), not the program's own configuration.
nabbitc::api::RuntimeOptions runtime_options(nabbitc::api::Variant v) {
  const std::uint32_t n = worker_count();
  nabbitc::api::RuntimeOptions ro;
  ro.workers = n;
  ro.variant = v;
  ro.topology = n >= 2 ? nabbitc::numa::Topology(2, n / 2)
                       : nabbitc::numa::Topology(1, 1);
  return ro;
}

/// Runtime construction, prepare() of each kernel and one warm-up run.
/// Returns false when a warm-up result does not match the serial checksum.
bool set_up(Setup& s, nabbitc::api::Variant v,
            const std::array<std::uint64_t, 3>& ref) {
  s.rt = std::make_unique<nabbitc::api::Runtime>(runtime_options(v));
  const std::uint32_t n = s.rt->workers();
  bool ok = true;
  for (std::size_t i = 0; i < kKernels.size(); ++i) {
    Loaded& l = s.k[i];
    l.w = nabbitc::wl::make_workload(kKernels[i].name,
                                     nabbitc::wl::SizePreset::kSmall);
    l.w->prepare(n);
    l.spec = l.w->make_taskgraph_spec(n, nabbitc::nabbit::ColoringMode::kGood);
    l.w->reset();
    s.rt->run(*l.spec, l.w->taskgraph_sink());
    ok = ok && l.w->checksum() == ref[i];
  }
  return ok;
}

struct LoopResult {
  std::array<std::vector<double>, 3> ms;  // time to solution per kernel
  std::vector<double> round_ms;           // per round whose three runs passed
  std::uint64_t graphs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t nodes_created = 0;
  double elapsed_s = 0;

  void merge(const LoopResult& o) {
    for (std::size_t i = 0; i < ms.size(); ++i) {
      ms[i].insert(ms[i].end(), o.ms[i].begin(), o.ms[i].end());
    }
    round_ms.insert(round_ms.end(), o.round_ms.begin(), o.round_ms.end());
    graphs += o.graphs;
    attempted += o.attempted;
    failed += o.failed;
    nodes_created += o.nodes_created;
    elapsed_s += o.elapsed_s;
  }
};

struct LoopNames {
  std::uint32_t graph, reset, run, check;
};

/// Closed loop of dynamic executions for `secs`, kernels interleaved in a
/// seeded order (each round is a permutation of the three).
LoopResult closed_loop(Setup& s, const std::array<std::uint64_t, 3>& ref,
                       double secs, SeedStream rng, SpanLog::Buffer* buf,
                       const LoopNames& ln) {
  LoopResult out;
  const std::uint64_t t_begin = now_ns();
  const auto t_end = t_begin + static_cast<std::uint64_t>(secs * 1e9);
  std::array<std::size_t, 3> order{0, 1, 2};
  std::uint64_t req = 0;
  while (now_ns() < t_end) {
    for (std::size_t i = 2; i > 0; --i) {
      std::swap(order[i], order[rng.next() % (i + 1)]);
    }
    double round = 0;
    bool round_ok = true;
    for (const std::size_t ki : order) {
      Loaded& l = s.k[ki];
      ++req;
      ScopedSpan root(buf, ln.graph, req);
      {
        ScopedSpan sp(buf, ln.reset, req, root.index());
        l.w->reset();
      }
      const std::uint64_t t = now_ns();
      std::uint64_t dt = 0;
      {
        ScopedSpan sp(buf, ln.run, req, root.index());
        nabbitc::api::Execution e = s.rt->run(*l.spec, l.w->taskgraph_sink());
        dt = now_ns() - t;
        out.nodes_created += e.nodes_created();
        if (e.status().state != nabbitc::api::ExecStatus::kCompleted) {
          ++out.failed;
          round_ok = false;
        }
      }
      {
        ScopedSpan sp(buf, ln.check, req, root.index());
        ++out.attempted;
        if (l.w->checksum() != ref[ki]) {
          ++out.failed;
          round_ok = false;
          continue;
        }
      }
      ++out.graphs;
      out.ms[ki].push_back(ns_to_ms(dt));
      round += ns_to_ms(dt);
    }
    if (round_ok) out.round_ms.push_back(round);
  }
  out.elapsed_s = static_cast<double>(now_ns() - t_begin) / 1e9;
  return out;
}

double median_ms(const std::vector<double>& v) { return nearest_rank(v, 0.5); }

}  // namespace

int run_paper_dynamic(const Args& args, Report& report) {
  // Serial references (and serial times) from separately prepared inputs.
  std::array<std::uint64_t, 3> ref{};
  std::array<double, 3> serial_ms{};
  for (std::size_t i = 0; i < kKernels.size(); ++i) {
    auto w = nabbitc::wl::make_workload(kKernels[i].name,
                                        nabbitc::wl::SizePreset::kSmall);
    w->prepare(worker_count());
    std::vector<double> t;
    for (int r = 0; r < (args.trace ? 3 : 1); ++r) {
      w->reset();
      const std::uint64_t t0 = now_ns();
      w->run_serial();
      t.push_back(ns_to_ms(now_ns() - t0));
    }
    ref[i] = w->checksum();
    serial_ms[i] = median_ms(t);
  }

  SpanLog log(args.trace);
  const LoopNames ln{log.name_id("graph"), log.name_id("workloads.reset"),
                     log.name_id("api.run"), log.name_id("workloads.checksum")};
  auto account = [&](const LoopResult& r) {
    report.attempted += r.attempted;
    report.failed += r.failed;
    if (r.failed != 0) report.correct = false;
  };
  // setup_s is the median of kSetups set-ups, and each set-up's runtime
  // serves an equal share of the measurement: the medians of single
  // runtimes differ by up to ~15% within one run (thread placement), so the
  // run pools six of them rather than letting one decide it.
  constexpr int kSetups = 6;
  std::vector<double> setup_s;
  Setup s;
  LoopResult all;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};
    const std::uint64_t t = now_ns();
    const bool ok = set_up(s, nabbitc::api::Variant::kNabbitC, ref);
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    report.attempted += 3;
    if (!ok) {
      report.failed += 1;
      report.correct = false;
    }
    if (args.trace) continue;
    const LoopResult r = closed_loop(s, ref, args.seconds / kSetups,
                                     SeedStream(args.seed, 4 + i), nullptr, ln);
    account(r);
    all.merge(r);
  }

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", median_ms(all.round_ms), "ms");
    // A closed loop of one submitter: the rate it sustains is its
    // throughput, completed and verified graphs per second.
    report.add("max_rate_rps", static_cast<double>(all.graphs) / all.elapsed_s,
               "1/s");
    report.add("rss_mb", peak_rss_mb("self"), "MB");
    report.note("samples.round", static_cast<double>(all.round_ms.size()), "count");
    for (std::size_t i = 0; i < kKernels.size(); ++i) {
      report.note(std::string(kKernels[i].label) + "_ms", median_ms(all.ms[i]), "ms");
      report.note(std::string("samples.") + kKernels[i].label,
                  static_cast<double>(all.ms[i].size()), "count");
    }
  } else {
    const double part = args.seconds * 0.3;
    const LoopResult off =
        closed_loop(s, ref, part, SeedStream(args.seed, 4), nullptr, ln);
    account(off);
    s.rt->reset_counters();
    SpanLog::Buffer* buf = log.new_buffer();
    const LoopResult on = closed_loop(s, ref, part, SeedStream(args.seed, 5), buf, ln);
    account(on);
    const nabbitc::rt::WorkerCounters c = s.rt->counters();
    const double graphs = static_cast<double>(std::max<std::uint64_t>(1, on.graphs));
    const double attempts = static_cast<double>(c.steal_attempts_total());
    const double steals = static_cast<double>(c.steals_total());
    report.add("rt.steal_success_frac", attempts > 0 ? steals / attempts : 0.0, "frac");
    report.add("rt.steal_attempts_per_task",
               attempts / static_cast<double>(std::max<std::uint64_t>(1, c.tasks_executed)),
               "count");
    report.add("rt.colored_steal_frac",
               steals > 0 ? static_cast<double>(c.steals_colored) / steals : 0.0, "frac");
    report.add("rt.tasks_per_req", static_cast<double>(c.tasks_executed) / graphs, "count");
    report.add("nabbit.nodes_created_per_graph",
               static_cast<double>(on.nodes_created) /
                   static_cast<double>(std::max<std::uint64_t>(1, on.attempted)),
               "count");
    const auto& loc = c.locality;
    report.add("nabbitc.remote_node_frac",
               loc.nodes > 0 ? static_cast<double>(loc.remote_nodes) /
                                   static_cast<double>(loc.nodes)
                             : 0.0,
               "frac");
    report.add("nabbitc.remote_pred_frac",
               loc.pred_accesses > 0 ? static_cast<double>(loc.remote_pred_accesses) /
                                           static_cast<double>(loc.pred_accesses)
                                     : 0.0,
               "frac");
    report.add("nabbitc.first_steal_wait_us",
               ns_to_us(c.first_steal_wait_ns) / graphs, "us");

    // Compiled replay of the same graphs on the same runtime.
    for (std::size_t i = 0; i < kKernels.size(); ++i) {
      Loaded& l = s.k[i];
      auto plan = s.rt->compile(*l.spec, l.w->taskgraph_sink());
      std::vector<double> t;
      const std::uint64_t until =
          now_ns() + static_cast<std::uint64_t>(args.seconds * 0.05 * 1e9);
      while (now_ns() < until || t.size() < 3) {
        l.w->reset();
        const std::uint64_t t0 = now_ns();
        s.rt->run(*plan);
        t.push_back(ns_to_ms(now_ns() - t0));
        ++report.attempted;
        if (l.w->checksum() != ref[i]) {
          ++report.failed;
          report.correct = false;
        }
      }
      const double dyn = median_ms(off.ms[i]);
      report.add(std::string("workloads.dyn_ms.") + kKernels[i].label, dyn, "ms");
      report.add(std::string("nabbit.dyn_over_replay_x.") + kKernels[i].label,
                 dyn / median_ms(t), "x");
      report.add(std::string("workloads.serial_ms.") + kKernels[i].label,
                 serial_ms[i], "ms");
      report.add(std::string("workloads.speedup_x.") + kKernels[i].label,
                 serial_ms[i] / dyn, "x");
    }

    // The same loop under plain Nabbit: the paper's overhead comparison.
    Setup sn;
    if (!set_up(sn, nabbitc::api::Variant::kNabbit, ref)) {
      ++report.failed;
      report.correct = false;
    }
    const LoopResult nab =
        closed_loop(sn, ref, args.seconds * 0.2, SeedStream(args.seed, 4), nullptr, ln);
    account(nab);
    double t_c = 0, t_n = 0;
    for (std::size_t i = 0; i < kKernels.size(); ++i) {
      t_c += median_ms(off.ms[i]);
      t_n += median_ms(nab.ms[i]);
    }
    report.add("nabbitc.vs_nabbit_x", t_n > 0 ? t_c / t_n : 0.0, "x");

    const std::vector<Span> spans = log.merged();
    const std::vector<std::uint64_t> self = self_times(spans);
    std::vector<double> root_self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == ln.graph) root_self.push_back(ns_to_us(self[i]));
    }
    report.add("bench.request_self_us.paper", nearest_rank(root_self, 0.5), "us");
    const double gps_off = static_cast<double>(off.graphs) / off.elapsed_s;
    const double gps_on = static_cast<double>(on.graphs) / on.elapsed_s;
    report.add("bench.trace_overhead_frac.paper",
               gps_on > 0 ? gps_off / gps_on - 1.0 : 0.0, "frac");
    if (!log.write_chrome_trace(args.trace_file)) ++report.failed;
    std::fprintf(stderr, "e2ebench: spans written to %s\n", args.trace_file.c_str());
  }
  return 0;
}

}  // namespace e2ebench
