#include "harness/experiment.h"
#include <algorithm>

#include "support/check.h"
#include "support/timing.h"

namespace nabbitc::harness {

RealRunResult run_real(wl::Workload& workload, Variant variant,
                       const RealRunOptions& opts) {
  RealRunResult out;
  workload.prepare(opts.workers);

  switch (variant) {
    case Variant::kSerial: {
      for (std::uint32_t r = 0; r < opts.repeats; ++r) {
        workload.reset();
        Timer t;
        workload.run_serial();
        out.seconds.add(t.seconds());
      }
      break;
    }
    case Variant::kOmpStatic:
    case Variant::kOmpGuided: {
      loop::PoolConfig pc;
      pc.num_threads = opts.workers;
      pc.topology = opts.topology;
      pc.pin_threads = opts.pin_threads;
      loop::ThreadPool pool(pc);
      const loop::Schedule sched = variant == Variant::kOmpStatic
                                       ? loop::Schedule::kStatic
                                       : loop::Schedule::kGuided;
      for (std::uint32_t r = 0; r < opts.repeats; ++r) {
        workload.reset();
        Timer t;
        workload.run_loop(pool, sched);
        out.seconds.add(t.seconds());
      }
      break;
    }
    case Variant::kNabbit:
    case Variant::kNabbitC: {
      // One persistent runtime serves every repeat; each repeat is one
      // graph submission. (Building and tearing a scheduler down per
      // repeat — threads, rings, arenas — used to dwarf tiny runs.)
      api::RuntimeOptions ro;
      ro.workers = opts.workers;
      ro.variant = variant;
      ro.topology = opts.topology;
      ro.pin_threads = opts.pin_threads;
      ro.trace = opts.trace;
      api::Runtime rt(ro);
      for (std::uint32_t r = 0; r < opts.repeats; ++r) {
        workload.reset();
        Timer t;
        workload.run_taskgraph(rt, opts.coloring);
        out.seconds.add(t.seconds());
        // Per-repeat delta accounting on the shared pool: fold this
        // repeat's counters into the result, then verify the reset left
        // the workers clean for the next repeat.
        out.counters.merge(rt.counters());
        rt.reset_counters();
        const rt::WorkerCounters clean = rt.counters();
        NABBITC_CHECK_MSG(clean.tasks_executed == 0 && clean.spawns == 0 &&
                              clean.steal_attempts_total() == 0 &&
                              clean.locality.nodes == 0,
                          "worker counters did not reset between repeats");
      }
      if (rt.tracing()) out.trace = rt.collect_trace();
      break;
    }
  }
  out.checksum = workload.checksum();
  return out;
}

sim::SimResult run_sim(wl::Workload& workload, Variant variant,
                       std::uint32_t workers, const SimSweepOptions& opts) {
  NABBITC_CHECK(variant != Variant::kSerial);
  sim::TaskDag dag = wl::simulated_dag(workload, workers, opts.coloring);
  sim::SimConfig cfg;
  cfg.num_workers = workers;
  cfg.topology = opts.topology;
  cfg.penalty = opts.penalty;
  cfg.seed = opts.seed;
  if (dag.num_nodes() > 0) {
    // Scale scheduling overheads to the workload's granularity: a steal is
    // ~10^3 cheaper than an average task, a dependence check ~10^5.
    const double avg_work = dag.total_work() / static_cast<double>(dag.num_nodes());
    cfg.penalty.steal_cost = std::max(1e-9, avg_work / 1000.0);
    cfg.penalty.edge_cost = std::max(1e-11, avg_work / 100000.0);
  }
  switch (variant) {
    case Variant::kOmpStatic:
      return sim::simulate_loop(dag, cfg, loop::Schedule::kStatic);
    case Variant::kOmpGuided:
      return sim::simulate_loop(dag, cfg, loop::Schedule::kGuided);
    case Variant::kNabbit:
    case Variant::kNabbitC:
      cfg.steal = api::steal_policy_for(variant);
      return sim::simulate(dag, cfg);
    default:
      NABBITC_CHECK(false);
  }
  return {};
}

std::vector<std::uint32_t> paper_core_counts() {
  return {1, 2, 4, 10, 20, 40, 60, 80};
}

}  // namespace nabbitc::harness
