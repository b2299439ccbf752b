// Tests for the tracing subsystem: ring drop-oldest semantics, collection
// and counter derivation (traces and counters can never disagree), Chrome
// trace / CSV export well-formedness, and the trace analyses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/nabbitc.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "rt/parallel_for.h"
#include "rt/scheduler.h"
#include "trace/analysis.h"
#include "trace/collector.h"
#include "trace/event.h"
#include "trace/export.h"
#include "trace/ring.h"
#include "workloads/workload.h"

namespace nabbitc::trace {
namespace {

Event make_event(std::uint64_t ts, std::uint16_t worker = 0,
                 EventKind kind = EventKind::kSpawn, std::uint64_t a = 0) {
  Event e;
  e.ts_ns = ts;
  e.worker = worker;
  e.kind = kind;
  e.arg_a = a;
  return e;
}

// -------------------------------------------------------------------- ring

TEST(EventRing, CapacityRoundsUpToPow2) {
  EventRing r(100);
  EXPECT_EQ(r.capacity(), 128u);
  EventRing r2(64);
  EXPECT_EQ(r2.capacity(), 64u);
  EventRing tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(EventRing, StoresInOrderBelowCapacity) {
  EventRing r(8);
  for (std::uint64_t i = 0; i < 5; ++i) r.emit(make_event(i));
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.emitted(), 5u);
  EXPECT_EQ(r.dropped(), 0u);
  auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(snap[i].ts_ns, i);
}

TEST(EventRing, WrapsDroppingOldest) {
  EventRing r(8);
  for (std::uint64_t i = 0; i < 20; ++i) r.emit(make_event(i));
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.emitted(), 20u);
  EXPECT_EQ(r.dropped(), 12u);
  auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // The 12 oldest were overwritten; the retained window is [12, 20).
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(snap[i].ts_ns, 12 + i);
}

TEST(EventRing, ClearResets) {
  EventRing r(4);
  for (std::uint64_t i = 0; i < 10; ++i) r.emit(make_event(i));
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_TRUE(r.snapshot().empty());
}

// --------------------------------------------------------------- collector

TEST(Collector, MergeOrdersAcrossWorkers) {
  std::vector<std::vector<Event>> streams(2);
  streams[0] = {make_event(10, 0), make_event(30, 0)};
  streams[1] = {make_event(5, 1), make_event(20, 1), make_event(40, 1)};
  Trace t = merge(std::move(streams), 2, /*dropped=*/3);
  ASSERT_EQ(t.events.size(), 5u);
  EXPECT_EQ(t.num_workers, 2u);
  EXPECT_EQ(t.dropped, 3u);
  EXPECT_EQ(t.origin_ns, 5u);
  EXPECT_EQ(t.end_ns, 40u);
  EXPECT_EQ(t.span_ns(), 35u);
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_LE(t.events[i - 1].ts_ns, t.events[i].ts_ns);
  }
}

TEST(Collector, IntervalEventsExtendEnd) {
  std::vector<std::vector<Event>> streams(1);
  streams[0] = {make_event(10, 0, EventKind::kTask, /*dur=*/100)};
  Trace t = merge(std::move(streams), 1, 0);
  EXPECT_EQ(t.end_ns, 110u);
}

TEST(Collector, DisabledSchedulerYieldsEmptyTrace) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  EXPECT_FALSE(rt.tracing());
  EXPECT_EQ(rt.scheduler().trace_ring(0), nullptr);
  std::atomic<int> n{0};
  rt.run_parallel([&](rt::Worker& w) {
    rt::parallel_for(w, 0, 1000, 8, [&](std::int64_t) { n.fetch_add(1); });
  });
  Trace t = rt.collect_trace();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_workers, 2u);
  EXPECT_GT(rt.counters().tasks_executed, 0u);
}

void expect_counters_equal(const rt::WorkerCounters& a, const rt::WorkerCounters& b) {
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.spawns, b.spawns);
  EXPECT_EQ(a.steal_attempts_colored, b.steal_attempts_colored);
  EXPECT_EQ(a.steal_attempts_random, b.steal_attempts_random);
  EXPECT_EQ(a.steals_colored, b.steals_colored);
  EXPECT_EQ(a.steals_random, b.steals_random);
  EXPECT_EQ(a.first_steal_attempts, b.first_steal_attempts);
  EXPECT_EQ(a.first_steal_wait_ns, b.first_steal_wait_ns);
  EXPECT_EQ(a.first_steal_forced_abandoned, b.first_steal_forced_abandoned);
  EXPECT_EQ(a.idle_ns, b.idle_ns);
  EXPECT_EQ(a.roots_cancelled, b.roots_cancelled);
  EXPECT_EQ(a.roots_deadline_expired, b.roots_deadline_expired);
  EXPECT_EQ(a.locality.nodes, b.locality.nodes);
  EXPECT_EQ(a.locality.remote_nodes, b.locality.remote_nodes);
  EXPECT_EQ(a.locality.pred_accesses, b.locality.pred_accesses);
  EXPECT_EQ(a.locality.remote_pred_accesses, b.locality.remote_pred_accesses);
}

TEST(Collector, DerivedCountersMatchSchedulerExactly) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.trace.enabled = true;
  opts.trace.ring_capacity = 1u << 20;  // ample: consistency requires no drops
  api::Runtime rt(opts);

  std::atomic<long> total{0};
  for (int job = 0; job < 3; ++job) {
    rt.run_parallel([&](rt::Worker& w) {
      rt::parallel_for(w, 0, 20000, 16, [&](std::int64_t i) {
        total.fetch_add(i, std::memory_order_relaxed);
      });
      // Exercise the locality path too.
      w.record_node_execution(1, 4, 2);
      w.record_node_execution(2, 3, 3);
    });
  }

  Trace t = rt.collect_trace();  // quiesces the pool before snapshotting
  ASSERT_EQ(t.dropped, 0u);
  EXPECT_FALSE(t.empty());
  expect_counters_equal(derive_counters(t), rt.counters());

  // Per-worker derivation matches each worker's own counters as well.
  for (std::uint32_t w = 0; w < rt.workers(); ++w) {
    expect_counters_equal(derive_counters(t, w), rt.scheduler().worker(w).counters());
  }
}

// A side x side grid: node k waits on its upper (k - side) and left (k - 1)
// neighbours. Columns are colored, so the NabbitC policy has colored steals.
struct GridNode final : api::TaskGraphNode {
  std::uint32_t side = 0;
  void init(api::ExecContext&) override {
    if (key() >= side) add_predecessor(key() - side);
    if (key() % side != 0) add_predecessor(key() - 1);
  }
  void compute(api::ExecContext&) override {}
};

struct GridSpec final : api::GraphSpec {
  std::uint32_t side = 0;
  std::uint32_t colors = 1;
  api::TaskGraphNode* create(api::NodeArena& arena, api::Key) override {
    auto* n = arena.create<GridNode>();
    n->side = side;
    return n;
  }
  numa::Color color_of(api::Key k) const override {
    return static_cast<numa::Color>((k % side) * colors / side);
  }
  std::size_t expected_nodes() const override { return std::size_t{side} * side; }
};

/// The scheduler's obs counters (sched_*_total), read from the registry.
struct ObsCounters {
  std::uint64_t tasks, spawns, steals_colored, steals_random, steal_attempts;
  static ObsCounters read() {
    obs::Registry& reg = obs::registry();
    return {reg.counter("sched_tasks_total").value(),
            reg.counter("sched_spawns_total").value(),
            reg.counter("sched_steals_colored_total").value(),
            reg.counter("sched_steals_random_total").value(),
            reg.counter("sched_steal_attempts_total").value()};
  }
};

TEST(Collector, ObsCountersAndTraceAgreeAfterReset) {
  // The three views of one run's scheduler events — the obs mirror, the
  // per-worker counters, and the counters derived from the trace — must
  // agree over a mixed run of spec, plan-replay and batch submissions, also
  // after reset_counters() rewound counters that were already published.
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled by NABBITC_METRICS=0";
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.trace.enabled = true;
  opts.trace.ring_capacity = 1u << 20;  // ample: consistency requires no drops
  api::Runtime rt(opts);

  GridSpec spec;
  spec.side = 24;
  spec.colors = rt.workers();
  const api::Key sink = spec.side * spec.side - 1;
  auto plan = rt.compile(spec, sink, /*reserve_instances=*/4);
  ASSERT_FALSE(plan->serial_lowered());  // inline runs bypass the scheduler
  const auto mixed_run = [&] {
    rt.run(spec, sink);
    rt.run(*plan);
    rt.submit_batch(*plan, 4).wait_all();
  };
  // Warm-up: every worker publishes a watermark well above what the
  // measured run alone will count.
  mixed_run();
  mixed_run();
  rt.reset_counters();
  rt.reset_trace();

  const ObsCounters before = ObsCounters::read();
  mixed_run();
  const rt::WorkerCounters counters = rt.counters();  // quiesces the pool
  const ObsCounters after = ObsCounters::read();
  const Trace t = rt.collect_trace();
  ASSERT_EQ(t.dropped, 0u);
  const rt::WorkerCounters derived = derive_counters(t);

  EXPECT_GT(counters.tasks_executed, 0u);
  EXPECT_EQ(after.tasks - before.tasks, counters.tasks_executed);
  EXPECT_EQ(after.spawns - before.spawns, counters.spawns);
  EXPECT_EQ(after.steals_colored - before.steals_colored,
            counters.steals_colored);
  EXPECT_EQ(after.steals_random - before.steals_random, counters.steals_random);
  EXPECT_EQ(after.steal_attempts - before.steal_attempts,
            counters.steal_attempts_total());
  expect_counters_equal(derived, counters);
}

TEST(Collector, DerivedCountersMatchOnRealWorkload) {
  // Full stack: harness -> workload -> colored executor -> traced scheduler.
  auto wl = wl::make_workload("heat", wl::SizePreset::kTiny);
  ASSERT_NE(wl, nullptr);
  harness::RealRunOptions opts;
  opts.workers = 4;
  opts.repeats = 2;
  opts.trace.enabled = true;
  opts.trace.ring_capacity = 1u << 20;
  auto r = harness::run_real(*wl, harness::Variant::kNabbitC, opts);
  ASSERT_EQ(r.trace.dropped, 0u);
  EXPECT_FALSE(r.trace.empty());
  expect_counters_equal(derive_counters(r.trace), r.counters);
  // The trace must contain locality samples from the nabbit layer.
  EXPECT_GT(derive_counters(r.trace).locality.nodes, 0u);
}

TEST(Collector, CancelledRootEmitsCancelEventMatchingCounters) {
  // Submission control in the trace: a cancelled root and a deadline-
  // expired root each emit one kCancel event, and the derived counters
  // agree with the scheduler's own roots_* counters.
  api::RuntimeOptions opts;
  opts.workers = 1;
  opts.trace.enabled = true;
  api::Runtime rt(opts);

  struct OneNode final : api::TaskGraphNode {
    void init(api::ExecContext&) override {}
    void compute(api::ExecContext&) override {}
  };
  struct OneSpec final : api::GraphSpec {
    api::TaskGraphNode* create(api::NodeArena& arena, api::Key) override {
      return arena.create<OneNode>();
    }
  } spec;
  // Tiny lowering disabled: this test asserts the SCHEDULER's terminal
  // cancel accounting (worker counters + kCancel trace events), which an
  // inline serial replay never reaches by design.
  auto plan = rt.compile(spec, 0, 1, /*tiny_lower=*/false);

  {
    api::Execution e = rt.submit(*plan);
    e.cancel();
    e.wait();
  }
  api::SubmitOptions so;
  so.deadline_ns = 1;  // born expired
  rt.run(*plan, so);
  rt.wait_idle();

  const rt::WorkerCounters counters = rt.counters();
  // The client cancel may have raced normal completion of the tiny graph;
  // the deadline one is deterministic (expired before adoption).
  EXPECT_LE(counters.roots_cancelled, 1u);
  EXPECT_EQ(counters.roots_deadline_expired, 1u);

  Trace t = rt.collect_trace();
  expect_counters_equal(derive_counters(t), counters);
  std::size_t cancel_events = 0;
  for (const Event& e : t.events) {
    if (e.kind == EventKind::kCancel) ++cancel_events;
  }
  EXPECT_EQ(cancel_events,
            counters.roots_cancelled + counters.roots_deadline_expired);

  // And the Chrome export names the terminal states.
  std::ostringstream os;
  write_chrome_trace(t, os);
  EXPECT_NE(os.str().find("deadline_exceeded"), std::string::npos);
}

TEST(Collector, ResetTraceClearsRings) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.trace.enabled = true;
  api::Runtime rt(opts);
  std::atomic<int> n{0};
  rt.run_parallel([&](rt::Worker& w) {
    rt::parallel_for(w, 0, 1000, 8, [&](std::int64_t) { n.fetch_add(1); });
  });
  EXPECT_FALSE(rt.collect_trace().empty());
  rt.reset_trace();
  EXPECT_TRUE(rt.collect_trace().empty());
}

// ------------------------------------------------------- JSON well-formedness

// Minimal recursive-descent JSON validator (no external deps).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":true,"d":null})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"([1,2)").valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").valid());
}

Trace traced_small_run() {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.trace.enabled = true;
  opts.trace.ring_capacity = 1u << 18;
  api::Runtime rt(opts);
  std::atomic<long> total{0};
  rt.run_parallel([&](rt::Worker& w) {
    rt::parallel_for(w, 0, 10000, 8, [&](std::int64_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
    w.record_node_execution(3, 2, 1);
  });
  return rt.collect_trace();
}

TEST(Export, ChromeTraceIsValidJson) {
  Trace t = traced_small_run();
  ASSERT_FALSE(t.empty());
  std::ostringstream os;
  write_chrome_trace(t, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"task\""), std::string::npos);
}

TEST(Export, EmptyTraceIsValidJson) {
  Trace t;
  std::ostringstream os;
  write_chrome_trace(t, os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(Export, CsvHasOneRowPerEvent) {
  Trace t = traced_small_run();
  std::ostringstream os;
  write_csv(t, os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, t.events.size() + 1);  // header + rows
}

TEST(Export, FileRoundTrip) {
  Trace t = traced_small_run();
  // Per-process name: concurrent test binaries share TempDir().
  const std::string path = ::testing::TempDir() + "/nabbitc_trace_test." +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(write_chrome_trace_file(t, path));
  std::stringstream buf;
  {
    std::ifstream is(path);
    buf << is.rdbuf();
  }
  EXPECT_TRUE(JsonChecker(buf.str()).valid());
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// ---------------------------------------------------------------- analysis

TEST(Analysis, StealSummaryMatchesDerivedCounters) {
  Trace t = traced_small_run();
  StealSummary s = summarize_steals(t);
  rt::WorkerCounters c = derive_counters(t);
  EXPECT_EQ(s.attempts_colored, c.steal_attempts_colored);
  EXPECT_EQ(s.attempts_random, c.steal_attempts_random);
  EXPECT_EQ(s.steals_colored, c.steals_colored);
  EXPECT_EQ(s.steals_random, c.steals_random);
  EXPECT_EQ(s.first_steal_wait_total_ns, c.first_steal_wait_ns);
  EXPECT_EQ(s.first_steal_abandoned, c.first_steal_forced_abandoned);
  EXPECT_EQ(s.num_workers, 4u);
}

TEST(Analysis, HistogramBucketsAndQuantiles) {
  Histogram h;
  h.add(1);     // bucket 0
  h.add(3);     // bucket 1
  h.add(1000);  // bucket 9
  EXPECT_EQ(h.total, 3u);
  EXPECT_EQ(h.min_ns, 1u);
  EXPECT_EQ(h.max_ns, 1000u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[9], 1u);
  EXPECT_LE(h.quantile_upper_bound_ns(0.5), 4u);
  EXPECT_GE(h.quantile_upper_bound_ns(0.99), 1024u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Analysis, StealIntervalHistogramCountsGaps) {
  std::vector<std::vector<Event>> streams(2);
  auto steal_at = [](std::uint64_t ts, std::uint16_t w) {
    Event e = make_event(ts, w, EventKind::kStealAttempt);
    e.flags = kFlagColored | kFlagSuccess;
    return e;
  };
  streams[0] = {steal_at(100, 0), steal_at(200, 0), steal_at(500, 0)};
  streams[1] = {steal_at(50, 1)};
  Trace t = merge(std::move(streams), 2, 0);
  Histogram h = steal_interval_histogram(t);
  // Worker 0 contributes gaps 100 and 300; worker 1 has a single steal.
  EXPECT_EQ(h.total, 2u);
  EXPECT_EQ(h.min_ns, 100u);
  EXPECT_EQ(h.max_ns, 300u);
}

TEST(Analysis, LocalityWindowsPartitionSamples) {
  Trace t = traced_small_run();
  const auto windows = locality_windows(t, 8);
  ASSERT_EQ(windows.size(), 8u);
  rt::WorkerCounters c = derive_counters(t);
  std::uint64_t nodes = 0, remote = 0, preds = 0, remote_preds = 0;
  for (const auto& w : windows) {
    EXPECT_LT(w.t0_ns, w.t1_ns);
    nodes += w.nodes;
    remote += w.remote_nodes;
    preds += w.pred_accesses;
    remote_preds += w.remote_pred_accesses;
  }
  EXPECT_EQ(nodes, c.locality.nodes);
  EXPECT_EQ(remote, c.locality.remote_nodes);
  EXPECT_EQ(preds, c.locality.pred_accesses);
  EXPECT_EQ(remote_preds, c.locality.remote_pred_accesses);
  EXPECT_TRUE(locality_windows(Trace{}, 4).empty());
}

}  // namespace
}  // namespace nabbitc::trace
