// Quickstart: the minimal NabbitC embedding against the public façade.
//
// The graph is the classic "sum of prefix tiles" toy: key k depends on k-1
// and (for even k) k/2; every node adds its key into a shared accumulator.
// The entire API surface an embedder needs is three steps:
//
//   1. subclass TaskGraphNode: declare predecessors in init(), do the work
//      in compute();
//   2. subclass GraphSpec: create nodes on demand and answer the ONE extra
//      question NabbitC asks — color_of(key), the worker whose data the
//      task touches;
//   3. construct a nabbitc::Runtime from declarative RuntimeOptions and
//      run() (or submit() for async) from the sink key. The runtime owns
//      the worker pool for its whole lifetime and serves any number of
//      submissions — no scheduler, executor, or steal policy to wire.
//
// Run:  ./quickstart [workers=4] [n=500]
#include <atomic>
#include <cstdio>

#include "api/nabbitc.h"
#include "support/config.h"

using namespace nabbitc;

namespace {

std::atomic<long> g_sum{0};

class SumNode final : public api::TaskGraphNode {
 public:
  void init(api::ExecContext&) override {
    const api::Key k = key();
    if (k == 0) return;                      // source node
    add_predecessor(k - 1);                  // chain dependence
    if (k % 2 == 0 && k / 2 != k - 1) {
      add_predecessor(k / 2);                // extra fan-in for even keys
    }
  }

  void compute(api::ExecContext& ctx) override {
    // All predecessors are guaranteed computed; read them freely.
    for (api::Key p : predecessors()) {
      NABBITC_CHECK(ctx.find(p)->computed());
    }
    g_sum.fetch_add(static_cast<long>(key()), std::memory_order_relaxed);
  }
};

class SumSpec final : public api::GraphSpec {
 public:
  explicit SumSpec(std::uint32_t num_colors) : colors_(num_colors) {}

  api::TaskGraphNode* create(api::NodeArena& arena, api::Key) override {
    return arena.create<SumNode>();
  }

  /// The locality hint: pretend key-contiguous blocks of data are owned by
  /// successive workers (a block distribution).
  api::Color color_of(api::Key k) const override {
    return static_cast<api::Color>(k % colors_);
  }

 private:
  std::uint32_t colors_;
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const auto workers = static_cast<std::uint32_t>(cfg.get_int("workers", 4));
  const auto n = static_cast<api::Key>(cfg.get_int("n", 500));

  RuntimeOptions opts;
  opts.workers = workers;
  opts.variant = Variant::kNabbitC;  // colored steals + colored spawning
  opts.topology = numa::Topology(2, (workers + 1) / 2);  // pretend 2 NUMA domains
  Runtime rt(opts);

  SumSpec spec(workers);
  Execution exec = rt.run(spec, /*sink=*/n);

  const long expect = static_cast<long>(n) * static_cast<long>(n + 1) / 2;
  std::printf("computed %llu nodes; sum = %ld (expected %ld) — %s\n",
              static_cast<unsigned long long>(exec.nodes_computed()),
              g_sum.load(), expect, g_sum.load() == expect ? "OK" : "WRONG");

  auto agg = rt.counters();
  std::printf("steals: %llu colored + %llu random; remote accesses: %.1f%%\n",
              static_cast<unsigned long long>(agg.steals_colored),
              static_cast<unsigned long long>(agg.steals_random),
              agg.locality.percent_remote());
  return g_sum.load() == expect ? 0 : 1;
}
