// nabbitc-serve daemon core: one Runtime served over sockets.
//
// A Server owns one api::Runtime for its whole lifetime and speaks the
// net/protocol.h frame protocol on loopback-TCP and/or Unix-domain
// listeners. The memory-resident-daemon shape: graph registration compiles
// a GraphSpec into a GraphPlan ONCE — content-addressed by the graph's
// canonical wire encoding, so every client registering the same graph
// shares the same compiled plan — and each SUBMIT is a pooled plan replay
// on the runtime's priority lanes.
//
// Per-connection Sessions (net/session.h) run on their own thread and own
// their in-flight executions; admission control is two caps (per-session
// and global in-flight), answered with BUSY instead of unbounded queueing.
// A client that disappears mid-flight gets its executions cooperatively
// cancelled (cancel-on-disconnect); other sessions are untouched. stop()
// — also the SIGINT/SIGTERM path of the nabbitc-serve binary — stops
// accepting, lets every session drain (or cancel) its in-flight work, joins
// all threads, and only then lets the Runtime die.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/runtime.h"
#include "net/protocol.h"
#include "net/remote_graph.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/slow_ring.h"
#include "persist/plan_cache.h"
#include "plan/plan.h"

namespace nabbitc::net {

class Session;

/// Snapshot of the daemon counters (Server::stats()). Over the wire, every
/// field is a METRICS entry named by kServerStatsMetrics.
struct ServerStats {
  std::uint64_t registered_specs = 0;  // distinct specs in the registry
  std::uint64_t plans_compiled = 0;    // compile() calls (<= registers received)
  std::uint64_t plans_loaded = 0;      // plans restored from the plan cache
  std::uint64_t plans_persisted = 0;   // plan blobs written to the plan cache
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_active = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t arena_bytes = 0;
};

/// The METRICS name and kind of one ServerStats field. This table is the
/// one place a daemon counter gets its exported name.
struct ServerStatsMetric {
  const char* name;
  obs::MetricKind kind;
  std::uint64_t ServerStats::*field;
};

inline constexpr ServerStatsMetric kServerStatsMetrics[] = {
    {"net_registered_specs", obs::MetricKind::kGauge,
     &ServerStats::registered_specs},
    {"net_plans_compiled_total", obs::MetricKind::kCounter,
     &ServerStats::plans_compiled},
    {"net_plans_loaded_total", obs::MetricKind::kCounter,
     &ServerStats::plans_loaded},
    {"net_plans_persisted_total", obs::MetricKind::kCounter,
     &ServerStats::plans_persisted},
    {"net_submitted_total", obs::MetricKind::kCounter, &ServerStats::submitted},
    {"net_completed_total", obs::MetricKind::kCounter, &ServerStats::completed},
    {"net_cancelled_total", obs::MetricKind::kCounter, &ServerStats::cancelled},
    {"net_deadline_exceeded_total", obs::MetricKind::kCounter,
     &ServerStats::deadline_exceeded},
    {"net_busy_rejections_total", obs::MetricKind::kCounter,
     &ServerStats::rejected_busy},
    {"net_protocol_errors_total", obs::MetricKind::kCounter,
     &ServerStats::protocol_errors},
    {"net_sessions_opened_total", obs::MetricKind::kCounter,
     &ServerStats::sessions_opened},
    {"net_sessions_active", obs::MetricKind::kGauge,
     &ServerStats::sessions_active},
    {"net_inflight", obs::MetricKind::kGauge, &ServerStats::in_flight},
    {"rt_arena_bytes", obs::MetricKind::kGauge, &ServerStats::arena_bytes},
};
static_assert(sizeof(ServerStats) ==
                  std::size(kServerStatsMetrics) * sizeof(std::uint64_t),
              "every ServerStats field needs a kServerStatsMetrics row");

struct ServerOptions {
  /// The serving runtime (workers, variant, tracing...). Must be a
  /// task-graph variant; the daemon exists to serve that runtime.
  api::RuntimeOptions runtime{};
  /// Unix-domain listener path; empty = no UDS listener.
  std::string unix_path;
  /// Loopback-TCP listener; port 0 binds an ephemeral port (see
  /// Server::tcp_port() after start()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  /// Admission control: connections beyond max_sessions are refused at
  /// accept; SUBMITs beyond the in-flight caps get BUSY.
  std::uint32_t max_sessions = 64;
  std::uint32_t max_inflight_per_session = 16;
  std::uint32_t max_inflight_global = 256;
  /// PlanInstances pre-built per compiled plan (plan::CompileOptions).
  std::size_t reserve_instances = 4;
  /// stop(): true = in-flight executions run to completion (results still
  /// pushed to connected clients); false = they are cancelled.
  bool drain_on_shutdown = true;
  /// Plan-cache directory (persist/plan_cache.h); empty = no persistence.
  /// With a cache, REGISTER consults disk before compiling and persists
  /// what it compiles, so a restarted daemon restores instead of paying
  /// the recompiles. The directory is created on start() if missing.
  std::string plan_cache_dir;
  /// With a plan cache: restore EVERY cached plan at start(), before the
  /// listeners open, so the first client's REGISTER is already warm.
  /// False = lazily, on first REGISTER of each spec.
  bool warm_start = true;
  /// Write-stall budget after which a client counts as gone.
  int io_timeout_ms = 5000;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts the accept thread. False +
  /// *err if no listener could be bound.
  bool start(std::string* err);

  /// Graceful shutdown: stop accepting, drain or cancel every session's
  /// in-flight executions, join all threads. Idempotent; also run by the
  /// destructor.
  void stop();

  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  /// The bound TCP port (after start(); useful with tcp_port = 0).
  std::uint16_t tcp_port() const noexcept { return bound_tcp_port_; }
  const std::string& unix_path() const noexcept { return opts_.unix_path; }
  const ServerOptions& options() const noexcept { return opts_; }

  api::Runtime& runtime() noexcept { return runtime_; }

  /// Snapshot of the daemon counters.
  ServerStats stats() const;

  /// The METRICS reply: the full obs::registry() dump (every counter,
  /// gauge, and histogram any layer recorded), every stats() field (see
  /// kServerStatsMetrics), and gauges that only exist at scrape time —
  /// lane depths and per-plan instance-pool fill.
  MetricsMsg metrics_msg();

  /// The SLOW reply: the slow-request ring, slowest first.
  SlowMsg slow_msg() const;

  /// The K-slowest-request capture sessions note completions into.
  obs::SlowRing& slow_ring() noexcept { return slow_ring_; }

  /// Plans restored from the cache so far (warm-start + lazy REGISTER
  /// hits); 0 without a cache.
  std::uint64_t plans_loaded() const noexcept {
    return plans_loaded_.load(std::memory_order_relaxed);
  }

  /// White-box test hook: the compiled plan behind a registered handle
  /// (nullptr if unknown). The pointer stays valid until the Server dies.
  const plan::GraphPlan* debug_plan(std::uint64_t handle) const;

 private:
  friend class Session;

  /// One registered graph: canonical bytes (collision check), the spec the
  /// plan replays, and the compiled plan. Lives until the Server dies.
  struct SpecEntry {
    std::uint64_t handle = 0;
    std::vector<std::uint8_t> canon;
    std::unique_ptr<RemoteGraphSpec> spec;
    std::unique_ptr<plan::GraphPlan> plan;
  };

  /// Content-addressed registration: returns the existing entry for an
  /// identical graph, or compiles a new one. nullptr + *err on a hash
  /// collision with different bytes.
  SpecEntry* register_spec(const WireGraph& g, bool* compiled_now,
                           std::string* err);
  SpecEntry* find_spec(std::uint64_t handle);

  /// Builds a SpecEntry from a cached blob: re-binds node functions from
  /// the embedded spec bytes and restores the plan over the mapped arrays.
  /// Returns false (entry untouched) on ANY disagreement — the caller
  /// forgets the artifact and recompiles. `canon` must already byte-match
  /// the blob's embedded spec.
  bool restore_entry_from_blob(const persist::PlanCacheDir::Loaded& loaded,
                               std::uint64_t handle, SpecEntry& entry);

  /// Registers "submit_complete_ns_plan_<handle hex>" and binds it to the
  /// entry's plan, so every replay of it records a per-plan latency beside
  /// the global submit_complete_ns. Called once per SpecEntry creation.
  void bind_plan_metrics(SpecEntry& entry);
  /// start()-time sweep: restore every parseable blob in the cache dir.
  void warm_start_from_cache();

  std::uint64_t next_exec_id() noexcept {
    return exec_ids_.fetch_add(1, std::memory_order_relaxed);
  }
  bool try_admit_global() noexcept;
  /// Batch admission: claims up to `want` global slots in ONE CAS loop and
  /// returns how many it got (0..want). The caller submits exactly that
  /// many items (the admitted prefix) and answers the rest with a
  /// kGlobal-scope rejection; each admitted item releases its slot through
  /// the ordinary release_global() when it finishes.
  std::uint32_t try_admit_global_n(std::uint32_t want) noexcept;
  void release_global() noexcept {
    global_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }

  void accept_loop();
  void spawn_session(Fd fd);
  void reap_finished_sessions();

  ServerOptions opts_;
  /// Declared first: destroyed last, after every session thread (holding
  /// Execution handles into it) has been joined.
  api::Runtime runtime_;

  mutable std::mutex reg_mu_;
  std::unordered_map<std::uint64_t, SpecEntry> registry_;

  /// Non-null iff opts_.plan_cache_dir is set.
  std::unique_ptr<persist::PlanCacheDir> plan_cache_;

  // Daemon counters (stats()).
  std::atomic<std::uint64_t> plans_compiled_{0};
  std::atomic<std::uint64_t> plans_loaded_{0};
  std::atomic<std::uint64_t> plans_persisted_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint32_t> sessions_active_{0};
  std::atomic<std::uint32_t> global_inflight_{0};
  std::atomic<std::uint64_t> exec_ids_{1};

  obs::SlowRing slow_ring_;

  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex stop_mu_;  // serializes stop() callers
  bool stopped_ = false;

  Fd tcp_listen_;
  Fd unix_listen_;
  std::uint16_t bound_tcp_port_ = 0;
  WakeFd wake_;
  std::thread accept_thread_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
};

}  // namespace nabbitc::net
