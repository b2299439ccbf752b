// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every binary accepts key=value arguments (and NABBITC_* env overrides);
// GNU spellings (--key-name=value) are normalized to the same keys:
//   preset=tiny|small|medium|paper   problem scale (default per binary)
//   cores=1,2,4,10,20,40,60,80       simulated core counts
//   workloads=heat,cg,...            subset of Table I benchmarks
//   variants=nabbit,nabbitc,...      scheduler subset for the figure sweeps
//                                    (consumed by fig6/fig7/fig8; parsed by
//                                    api::parse_variant — unknown names abort
//                                    listing the valid ones)
//   seed=<n>                         simulation seed
//   --trace-out=<path>               emit a Chrome trace JSON per real run
//   --trace-capacity=<events>        per-worker trace ring size
//   --trace-csv=1                    also emit the flat CSV next to the JSON
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "api/nabbitc.h"
#include "harness/experiment.h"
#include "support/check.h"
#include "support/config.h"
#include "support/table.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "workloads/workload.h"

namespace nabbitc::bench {

struct BenchArgs {
  wl::SizePreset preset = wl::SizePreset::kPaper;
  std::vector<std::uint32_t> cores;
  std::vector<std::string> workloads;
  /// The user's variants= selection; empty when the flag was not given
  /// (use variants_or to fall back to the binary's default set).
  std::vector<api::Variant> variants;
  std::uint64_t seed = 0x5eed;
  /// Chrome-trace output path (empty = tracing off). Tags are inserted
  /// before the extension when one binary emits several traces.
  std::string trace_out;
  bool trace_csv = false;
  trace::TraceConfig trace;
  Config cfg;
};

inline BenchArgs parse_args(int argc, char** argv,
                            const char* default_preset = "paper") {
  BenchArgs a;
  a.cfg = Config::from_args(argc, argv);
  a.preset = wl::preset_from_string(a.cfg.get("preset", default_preset));
  for (auto c : a.cfg.get_int_list("cores", {1, 4, 10, 20, 40, 80})) {
    a.cores.push_back(static_cast<std::uint32_t>(c));
  }
  a.seed = static_cast<std::uint64_t>(a.cfg.get_int("seed", 0x5eed));
  a.variants = api::parse_variant_list(a.cfg.get("variants", ""));
  a.trace_out = a.cfg.get("trace_out", "");
  a.trace_csv = a.cfg.get_bool("trace_csv", false);
  a.trace.enabled = !a.trace_out.empty();
  // Clamp to a sane range: negative values would wrap to huge sizes (and
  // hang next_pow2); 2^26 events/worker is already a 2.5 GiB trace.
  const std::int64_t cap = a.cfg.get_int("trace_capacity", 1 << 16);
  a.trace.ring_capacity =
      static_cast<std::size_t>(cap < 2 ? 2 : cap > (1 << 26) ? (1 << 26) : cap);
  std::string wls = a.cfg.get("workloads", "");
  if (wls.empty()) {
    a.workloads = wl::workload_names();
  } else {
    std::string item;
    for (char c : wls + ",") {
      if (c == ',') {
        if (!item.empty()) a.workloads.push_back(item);
        item.clear();
      } else {
        item.push_back(c);
      }
    }
  }
  return a;
}

/// The variant set a bench iterates: the user's variants= flag when given,
/// otherwise the binary's default list. "serial" parses (it is a canonical
/// variant) but is the baseline every table normalizes against, not a
/// scheduler these sweeps can run — reject it here with a usable message
/// instead of tripping an internal CHECK deep in run_sim.
inline std::vector<api::Variant> variants_or(
    const BenchArgs& args, std::initializer_list<api::Variant> fallback) {
  if (args.variants.empty()) return std::vector<api::Variant>(fallback);
  for (api::Variant v : args.variants) {
    NABBITC_CHECK_MSG(v != api::Variant::kSerial,
                      "variants=serial: serial is the baseline, not a "
                      "scheduler sweep (want omp-static|omp-guided|nabbit|"
                      "nabbitc)");
  }
  return args.variants;
}

/// "steals.json" + tag "heat-p4" -> "steals-heat-p4.json". Only the final
/// path component's extension counts ("/run.2026/steals" has none).
inline std::string trace_path_with_tag(const std::string& base,
                                       const std::string& tag) {
  if (tag.empty()) return base;
  const auto slash = base.rfind('/');
  auto dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0 ||
      (slash != std::string::npos && dot <= slash + 1)) {
    return base + "-" + tag;
  }
  return base.substr(0, dot) + "-" + tag + base.substr(dot);
}

/// Writes the trace from one traced real run to args.trace_out (tagged), in
/// Chrome JSON (plus CSV when trace_csv=1), and prints where it went.
inline void export_trace(const BenchArgs& args, const trace::Trace& t,
                         const std::string& tag) {
  if (!args.trace.enabled || t.empty()) return;
  const std::string path = trace_path_with_tag(args.trace_out, tag);
  if (trace::write_chrome_trace_file(t, path)) {
    std::printf("[trace] %s: %zu events, %llu dropped, span %.3f ms -> %s\n",
                tag.empty() ? "run" : tag.c_str(), t.events.size(),
                static_cast<unsigned long long>(t.dropped),
                static_cast<double>(t.span_ns()) / 1e6, path.c_str());
  } else {
    std::printf("[trace] FAILED to write %s\n", path.c_str());
  }
  if (args.trace_csv) {
    const std::string csv = path + ".csv";
    if (!trace::write_csv_file(t, csv)) {
      std::printf("[trace] FAILED to write %s\n", csv.c_str());
    }
  }
}

inline void print_header(const char* what) {
  std::printf("NabbitC reproduction — %s\n", what);
  std::printf("(simulated %s; see README \"Paper mapping\")\n\n",
              numa::Topology::paper().describe().c_str());
}

}  // namespace nabbitc::bench
