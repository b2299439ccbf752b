// Ablation: the scheduler-policy knobs of the paper's SectionIII (see README,
// "Paper mapping").
//
//   (a) colored_attempts k — the "constant number" of colored attempts per
//       random fallback (SectionIII). k=0 disables colored steals entirely.
//   (b) force_first_colored — the forced first colored steal on/off.
//   (c) remote_factor sensitivity — how the NabbitC/Nabbit gap scales with
//       the NUMA penalty.
//
// Run on the simulated paper machine over a representative regular
// benchmark (heat) and the skewed irregular one (page-twitter-2010).
#include "bench/bench_common.h"

using namespace nabbitc;
using api::Variant;

namespace {

sim::SimResult run_with(wl::Workload& w, std::uint32_t p,
                        rt::StealPolicy pol, double remote_factor,
                        std::uint64_t seed) {
  sim::TaskDag dag = wl::simulated_dag(w, p, nabbit::ColoringMode::kGood);
  sim::SimConfig cfg;
  cfg.num_workers = p;
  cfg.topology = numa::Topology::paper();
  cfg.steal = pol;
  cfg.penalty.remote_factor = remote_factor;
  cfg.seed = seed;
  const double avg = dag.total_work() / static_cast<double>(dag.num_nodes());
  cfg.penalty.steal_cost = avg / 1000.0;
  cfg.penalty.edge_cost = avg / 100000.0;
  return sim::simulate(dag, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_header("Ablation: steal-policy knobs (simulated, P=80)");
  const std::uint32_t p = static_cast<std::uint32_t>(args.cfg.get_int("p", 80));

  for (const char* name : {"heat", "page-twitter-2010"}) {
    auto w = wl::make_workload(
        name, std::string(name) == "heat" ? wl::SizePreset::kPaper
                                          : wl::SizePreset::kSmall);
    std::printf("## %s\n", name);

    {
      Table t({"colored_attempts k", "speedup", "remote %", "steals/worker"});
      for (std::uint32_t k : {0u, 1u, 2u, 4u, 8u, 16u, 32u}) {
        rt::StealPolicy pol = rt::StealPolicy::nabbitc();
        pol.colored_attempts = k;
        if (k == 0) pol.colored_enabled = false;
        auto r = run_with(*w, p, pol, 2.0, args.seed);
        t.add_row({Table::fmt_int(k), Table::fmt(r.speedup(), 2),
                   Table::fmt(r.locality.percent_remote(), 1),
                   Table::fmt(r.avg_steals_per_worker(p), 1)});
        std::fflush(stdout);
      }
      std::printf("%s\n", t.to_string().c_str());
    }
    {
      Table t({"force_first_colored", "speedup", "remote %",
               "first-steal wait"});
      for (bool force : {true, false}) {
        rt::StealPolicy pol = rt::StealPolicy::nabbitc();
        pol.force_first_colored = force;
        auto r = run_with(*w, p, pol, 2.0, args.seed);
        t.add_row({force ? "on" : "off", Table::fmt(r.speedup(), 2),
                   Table::fmt(r.locality.percent_remote(), 1),
                   Table::fmt(r.avg_first_steal_wait, 1)});
      }
      std::printf("%s\n", t.to_string().c_str());
    }
    {
      Table t({"remote_factor", "nabbitc speedup", "nabbit speedup", "gain"});
      for (double rf : {1.0, 1.5, 2.0, 3.0, 4.0}) {
        auto rc = run_with(*w, p, rt::StealPolicy::nabbitc(), rf, args.seed);
        auto rn = run_with(*w, p, rt::StealPolicy::nabbit(), rf, args.seed);
        t.add_row({Table::fmt(rf, 1), Table::fmt(rc.speedup(), 2),
                   Table::fmt(rn.speedup(), 2),
                   Table::fmt(rn.speedup() > 0 ? rc.speedup() / rn.speedup() : 0,
                              2)});
        std::fflush(stdout);
      }
      std::printf("%s\n", t.to_string().c_str());
    }
  }
  return 0;
}
