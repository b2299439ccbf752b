// e2ebench: the repository benchmark program (see README.md in this
// directory). Normally started through run.py, which builds it first:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --serve PATH/nabbitc-serve --workdir DIR [--p99-limit-ms X]
//            [--generator-check 1]
//
// --generator-check 1 (serve workloads only) runs no daemon: it drives
// the workload's load generator against StubServer (stub_server.h), checks
// that the workload's rate ladder ends generator-bound there, and reports
// the generator's own ceiling.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1). Every workload reports every end-to-end metric. A
// traced run measures every layer whichever workload it names: it runs the
// traced segment of each of the three workloads, a third of --seconds
// each. The line before the result starts with "# notes" and carries the
// run's self-checks (host steal share, generator lateness, sample counts,
// failure share).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_math.h"
#include "common.h"
#include "proc.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload serve_tiny_tcp|serve_wavefront_unix|"
               "paper_dynamic --seed N --seconds S --trace 0|1 --serve PATH "
               "--workdir DIR [--p99-limit-ms X] [--generator-check 1]\n");
  return 2;
}

constexpr const char* kWorkloads[] = {"serve_tiny_tcp", "serve_wavefront_unix",
                                     "paper_dynamic"};

bool is_serve(const std::string& w) { return w.rfind("serve_", 0) == 0; }

int run_workload(const e2ebench::Args& args, e2ebench::Report& report) {
  return is_serve(args.workload) ? e2ebench::run_serve_workload(args, report)
                                 : e2ebench::run_paper_dynamic(args, report);
}

/// The traced run: every workload's traced segment in turn, each in its
/// own scratch directory, writing its own span file.
int run_traced(const e2ebench::Args& args, const std::string& base,
               e2ebench::Report& report) {
  for (const char* w : kWorkloads) {
    e2ebench::Args a = args;
    a.workload = w;
    a.seconds = args.seconds / 3;
    a.workdir = args.workdir + "/" + w;
    a.trace_file = base + "/trace-" + w + "-" + std::to_string(args.seed) + ".json";
    std::filesystem::create_directories(a.workdir);
    const int rc = run_workload(a, report);
    if (rc != 0) return rc;
  }
  return 0;
}

void print_metrics(const std::vector<e2ebench::Metric>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") { args.trace = v == "1"; have_trace = v == "0" || v == "1"; }
    else if (k == "--serve") args.serve_binary = v;
    else if (k == "--workdir") args.workdir = v;
    else if (k == "--p99-limit-ms") args.p99_limit_ms = std::strtod(v.c_str(), nullptr);
    else if (k == "--generator-check") args.generator_check = v == "1";
    else return usage();
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  const bool serve = is_serve(args.workload);
  // The traced run starts the daemon whichever workload it names; only the
  // rate ladder of an untraced run needs the latency limit.
  if (!known || !have_trace || args.seconds <= 0 || args.workdir.empty() ||
      ((serve || args.trace) && args.serve_binary.empty()) ||
      (serve && !args.trace && args.p99_limit_ms <= 0) ||
      (args.generator_check && !serve)) {
    return usage();
  }
  std::filesystem::create_directories(args.workdir);
  const std::string base = args.workdir;
  args.workdir = base + "/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.workdir);

  e2ebench::Report report;
  const e2ebench::CpuTicks ticks0 = e2ebench::host_ticks();
  const int rc = args.generator_check ? e2ebench::run_generator_check(args, report)
                 : args.trace         ? run_traced(args, base, report)
                                      : run_workload(args, report);
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  if (rc != 0) return rc;
  report.note("bench.host_steal_frac",
              e2ebench::steal_frac(ticks0, e2ebench::host_ticks()), "frac");
  // A closed loop (paper_dynamic) has no schedule to be late for.
  report.note("bench.gen_late_p99_ms", e2ebench::nearest_rank(report.gen_late_ms, 0.99),
              "ms");
  // Host speed at the end of the run: a fixed single-thread loop and a
  // memory sweep that involve no program code. They explain drift between
  // runs; neither is ever used to adjust a metric.
  report.note("bench.cpu_probe_ms", e2ebench::cpu_probe_ms(), "ms");
  report.note("bench.mem_probe_ms", e2ebench::mem_probe_ms(), "ms");

  if (args.trace) {
    // The self-checks are per-layer metrics of the traced run as well.
    for (const e2ebench::Metric& n : report.notes) {
      if (n.name.rfind("bench.", 0) == 0) report.metrics.push_back(n);
    }
  }
  report.note("failure_share",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "frac");
  std::printf("# notes {");
  print_metrics(report.notes);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  print_metrics(report.metrics);
  std::printf("}}\n");
  return report.correct && report.attempted > 0 ? 0 : 1;
}
