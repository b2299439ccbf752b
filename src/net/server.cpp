#include "net/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "net/session.h"
#include "obs/metrics.h"

namespace nabbitc::net {

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), runtime_(opts_.runtime) {
  if (!opts_.plan_cache_dir.empty()) {
    plan_cache_ = std::make_unique<persist::PlanCacheDir>(opts_.plan_cache_dir);
  }
}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  if (started_) {
    if (err != nullptr) *err = "server already started";
    return false;
  }
  if (!opts_.tcp && opts_.unix_path.empty()) {
    if (err != nullptr) *err = "no listener configured (tcp or unix_path)";
    return false;
  }
  if (plan_cache_ != nullptr) {
    // An unusable cache dir is a config error, not a degraded mode: the
    // operator asked for persistence, so refuse loudly rather than run
    // silently cacheless (the same reasoning that makes nabbitc-serve
    // reject a typoed flag).
    if (!plan_cache_->ensure_dir(err)) return false;
    // Warm-start BEFORE the listeners exist: the first REGISTER to arrive
    // must already find its plan restored.
    if (opts_.warm_start) warm_start_from_cache();
  }
  if (!wake_.open(err)) return false;
  if (opts_.tcp) {
    tcp_listen_ = listen_tcp_loopback(opts_.tcp_port, &bound_tcp_port_, err);
    if (!tcp_listen_.valid()) return false;
    if (!set_nonblocking(tcp_listen_.get(), err)) return false;
  }
  if (!opts_.unix_path.empty()) {
    unix_listen_ = listen_unix(opts_.unix_path, err);
    if (!unix_listen_.valid()) return false;
    if (!set_nonblocking(unix_listen_.get(), err)) return false;
  }
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  std::lock_guard<std::mutex> lk(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  if (!started_) return;
  wake_.notify();
  if (accept_thread_.joinable()) accept_thread_.join();
  tcp_listen_.reset();
  unix_listen_.reset();
  {
    // No new sessions can appear (accept thread is gone). Sessions sleep in
    // an untimed poll: wake each so it sees stop_, then join them all.
    std::lock_guard<std::mutex> slk(sessions_mu_);
    for (auto& s : sessions_) s->wake();
    for (auto& s : sessions_) s->join();
    sessions_.clear();
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
  runtime_.wait_idle();
}

void Server::accept_loop() {
  obs::Counter& backoffs = obs::registry().counter("net_accept_backoff_total");
  // At the fd limit the refused connection keeps its listen fd readable, so
  // the next poll watches the wake fd alone instead of spinning.
  constexpr int kAcceptBackoffMs = 100;
  bool at_fd_limit = false;
  while (!stopping()) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n].fd = wake_.fd.get();
    fds[n].events = POLLIN;
    ++n;
    const nfds_t tcp_slot = tcp_listen_.valid() ? n : 0;
    if (!at_fd_limit && tcp_listen_.valid()) {
      fds[n].fd = tcp_listen_.get();
      fds[n].events = POLLIN;
      ++n;
    }
    const nfds_t unix_slot = unix_listen_.valid() ? n : 0;
    if (!at_fd_limit && unix_listen_.valid()) {
      fds[n].fd = unix_listen_.get();
      fds[n].events = POLLIN;
      ++n;
    }
    const int r = ::poll(fds, n, at_fd_limit ? kAcceptBackoffMs : 200);
    at_fd_limit = false;
    if (r < 0 && errno != EINTR) break;
    if (stopping()) break;
    if (r <= 0) {
      reap_finished_sessions();
      continue;
    }
    wake_.drain();
    for (nfds_t slot = 1; slot < n; ++slot) {
      if ((fds[slot].revents & POLLIN) == 0) continue;
      const int lfd =
          slot == tcp_slot ? tcp_listen_.get() : unix_listen_.get();
      (void)unix_slot;
      for (;;) {
        Fd conn = accept_conn(lfd);
        if (!conn.valid()) {  // EAGAIN: accepted everything pending
          at_fd_limit = errno == EMFILE || errno == ENFILE;
          if (at_fd_limit) backoffs.inc();
          break;
        }
        reap_finished_sessions();
        if (sessions_active_.load(std::memory_order_acquire) >=
            opts_.max_sessions) {
          // Admission control at the front door: refuse by closing. A
          // client sees EOF before any reply and can retry later.
          continue;
        }
        spawn_session(std::move(conn));
      }
    }
  }
}

void Server::spawn_session(Fd fd) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  sessions_.push_back(
      std::make_unique<Session>(*this, std::move(fd), next_session_id_++));
  sessions_.back()->start();
}

void Server::reap_finished_sessions() {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      (*it)->join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Server::restore_entry_from_blob(const persist::PlanCacheDir::Loaded& loaded,
                                     std::uint64_t handle, SpecEntry& entry) {
  const persist::PlanBlobView& view = loaded.view;
  const auto spec_bytes = view.spec_bytes();
  // The daemon only persists blobs with the canonical encoding embedded —
  // without it, node functions cannot be re-bound.
  if (spec_bytes.empty()) return false;
  WireGraph g;
  std::string derr;
  if (!decode_register(spec_bytes, g, &derr)) return false;

  // Frozen keys are wire node indices into g: bound them BEFORE handing
  // anything to the spec, whose color_of/create index by key. The blob
  // passed its own structural validation, but that proved internal
  // consistency — consistency with THIS spec is proved here and by
  // try_build() inside restore.
  plan::FrozenPlan f = view.frozen(loaded.file);
  if (f.n > g.nodes.size()) return false;
  for (const std::uint64_t k : f.keys) {
    if (k >= g.nodes.size()) return false;
  }
  if (f.keys[0] != g.sink()) return false;

  auto spec = std::make_unique<RemoteGraphSpec>(g, runtime_.workers());
  auto plan = runtime_.restore_plan(*spec, g.sink(), std::move(f),
                                    view.colored(), opts_.reserve_instances);
  if (plan == nullptr) return false;
  entry.handle = handle;
  entry.canon.assign(spec_bytes.begin(), spec_bytes.end());
  entry.spec = std::move(spec);
  entry.plan = std::move(plan);
  bind_plan_metrics(entry);
  return true;
}

void Server::bind_plan_metrics(SpecEntry& entry) {
  char name[64];
  std::snprintf(name, sizeof(name), "submit_complete_ns_plan_%016llx",
                static_cast<unsigned long long>(entry.handle));
  entry.plan->bind_metrics(&obs::registry().histogram(name));
}

void Server::warm_start_from_cache() {
  for (const std::uint64_t handle : plan_cache_->scan()) {
    // load() already refused blobs that fail parsing or whose embedded
    // spec doesn't hash back to the filename's claim.
    const persist::PlanCacheDir::Loaded loaded = plan_cache_->load(handle);
    if (!loaded.hit()) continue;
    SpecEntry e;
    if (!restore_entry_from_blob(loaded, handle, e)) continue;
    {
      std::lock_guard<std::mutex> lk(reg_mu_);
      if (!registry_.emplace(handle, std::move(e)).second) continue;
    }
    plans_loaded_.fetch_add(1, std::memory_order_relaxed);
  }
}

Server::SpecEntry* Server::register_spec(const WireGraph& g,
                                         bool* compiled_now,
                                         std::string* err) {
  WireWriter canon;
  encode_register(g, canon);
  const std::uint64_t handle = wire_graph_hash(g);

  std::lock_guard<std::mutex> lk(reg_mu_);
  const auto it = registry_.find(handle);
  if (it != registry_.end()) {
    SpecEntry& e = it->second;
    if (e.canon.size() != canon.size() ||
        std::memcmp(e.canon.data(), canon.data(), canon.size()) != 0) {
      if (err != nullptr) *err = "spec handle collision (different graph)";
      return nullptr;
    }
    *compiled_now = false;
    return &e;
  }

  // Registry miss: try the plan cache before paying the compile (the lazy
  // half of persistence; warm_start covers the eager half).
  if (plan_cache_ != nullptr) {
    const persist::PlanCacheDir::Loaded loaded = plan_cache_->load(handle);
    if (loaded.hit()) {
      // Hash equality got us here; byte-equality against OUR canonical
      // encoding is what authorizes serving the artifact (support/hash.h's
      // collision-check idiom).
      const auto sb = loaded.view.spec_bytes();
      SpecEntry e;
      if (sb.size() == canon.size() &&
          std::memcmp(sb.data(), canon.data(), canon.size()) == 0 &&
          restore_entry_from_blob(loaded, handle, e)) {
        plans_loaded_.fetch_add(1, std::memory_order_relaxed);
        *compiled_now = false;
        const auto ins = registry_.emplace(handle, std::move(e));
        return &ins.first->second;
      }
      // Present but unusable (stale options for this runtime, collision,
      // or structurally foreign): drop it so the fresh compile below
      // overwrites it — the upgrade path.
      plan_cache_->forget(handle);
    }
  }

  SpecEntry e;
  e.handle = handle;
  e.canon.assign(canon.data(), canon.data() + canon.size());
  e.spec = std::make_unique<RemoteGraphSpec>(g, runtime_.workers());
  // Compile under reg_mu_: registration is rare and this guarantees
  // "compiled exactly once" even when many clients register concurrently.
  e.plan = runtime_.compile(*e.spec, g.sink(), opts_.reserve_instances);
  bind_plan_metrics(e);
  plans_compiled_.fetch_add(1, std::memory_order_relaxed);
  *compiled_now = true;
  // unordered_map nodes are address-stable: the returned pointer (and the
  // plan it owns) stays valid for the Server's lifetime.
  const auto ins = registry_.emplace(handle, std::move(e));
  SpecEntry& ent = ins.first->second;

  // Persist what was just compiled. Failure is logged into *err-free
  // oblivion on purpose: the cache is an accelerator, and this REGISTER
  // already has its plan.
  if (plan_cache_ != nullptr) {
    const auto blob = persist::serialize_plan(
        *ent.plan, {ent.canon.data(), ent.canon.size()}, handle);
    if (plan_cache_->store(handle, blob)) {
      plans_persisted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return &ent;
}

Server::SpecEntry* Server::find_spec(std::uint64_t handle) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  const auto it = registry_.find(handle);
  return it == registry_.end() ? nullptr : &it->second;
}

bool Server::try_admit_global() noexcept {
  std::uint32_t cur = global_inflight_.load(std::memory_order_relaxed);
  while (cur < opts_.max_inflight_global) {
    if (global_inflight_.compare_exchange_weak(cur, cur + 1,
                                               std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

std::uint32_t Server::try_admit_global_n(std::uint32_t want) noexcept {
  std::uint32_t cur = global_inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= opts_.max_inflight_global) return 0;
    const std::uint32_t take =
        std::min(want, opts_.max_inflight_global - cur);
    if (global_inflight_.compare_exchange_weak(cur, cur + take,
                                               std::memory_order_acq_rel)) {
      return take;
    }
  }
}

ServerStats Server::stats() const {
  ServerStats m;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    m.registered_specs = registry_.size();
  }
  m.plans_compiled = plans_compiled_.load(std::memory_order_relaxed);
  m.plans_loaded = plans_loaded_.load(std::memory_order_relaxed);
  m.plans_persisted = plans_persisted_.load(std::memory_order_relaxed);
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.cancelled = cancelled_.load(std::memory_order_relaxed);
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
  m.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  m.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  m.sessions_active = sessions_active_.load(std::memory_order_acquire);
  m.in_flight = global_inflight_.load(std::memory_order_acquire);
  m.arena_bytes = runtime_.arena_bytes();
  return m;
}

MetricsMsg Server::metrics_msg() {
  MetricsMsg m;
  const std::vector<obs::Sample> samples = obs::registry().snapshot();
  m.entries.reserve(samples.size() + std::size(kServerStatsMetrics) +
                    rt::Scheduler::kNumLanes);
  for (const obs::Sample& s : samples) {
    MetricEntry e;
    e.name = s.name;
    e.kind = static_cast<std::uint8_t>(s.kind);
    e.value = s.value;
    if (s.kind == obs::MetricKind::kHistogram) {
      e.buckets.assign(s.hist.buckets.begin(), s.hist.buckets.end());
    }
    m.entries.push_back(std::move(e));
  }

  // Scrape-time entries: state that lives in the server or scheduler
  // rather than in the registry, so one METRICS scrape is self-sufficient.
  const auto add = [&m](const char* name, obs::MetricKind kind,
                        std::uint64_t v) {
    MetricEntry e;
    e.name = name;
    e.kind = static_cast<std::uint8_t>(kind);
    e.value = v;
    m.entries.push_back(std::move(e));
  };
  const ServerStats st = stats();
  for (const ServerStatsMetric& f : kServerStatsMetrics) {
    add(f.name, f.kind, st.*f.field);
  }
  using MK = obs::MetricKind;

  std::uint32_t depths[rt::Scheduler::kNumLanes];
  runtime_.scheduler().lane_depths(depths);
  char name[64];
  for (std::uint32_t l = 0; l < rt::Scheduler::kNumLanes; ++l) {
    std::snprintf(name, sizeof(name), "sched_lane_depth_%u", l);
    add(name, MK::kGauge, depths[l]);
  }

  // Per-plan instance-pool fill: built vs free says how deep concurrent
  // replays have grown each pool and how much of it is checked out now.
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    for (const auto& [handle, entry] : registry_) {
      std::snprintf(name, sizeof(name), "plan_instances_built_plan_%016llx",
                    static_cast<unsigned long long>(handle));
      add(name, MK::kGauge, entry.plan->instances_built());
      std::snprintf(name, sizeof(name), "plan_instances_free_plan_%016llx",
                    static_cast<unsigned long long>(handle));
      add(name, MK::kGauge, entry.plan->instances_free());
    }
  }
  return m;
}

SlowMsg Server::slow_msg() const {
  SlowMsg m;
  const std::vector<obs::SlowEntry> entries = slow_ring_.snapshot();
  m.entries.reserve(entries.size());
  for (const obs::SlowEntry& e : entries) {
    SlowEntryMsg s;
    s.exec_id = e.exec_id;
    s.state = e.state;
    s.latency_ns = e.latency_ns;
    s.t_decode_ns = e.t_decode_ns;
    s.t_admit_ns = e.t_admit_ns;
    s.t_submit_ns = e.t_submit_ns;
    s.t_dispatch_ns = e.t_dispatch_ns;
    s.t_complete_ns = e.t_complete_ns;
    s.t_reply_ns = e.t_reply_ns;
    s.name = e.name;
    m.entries.push_back(std::move(s));
  }
  return m;
}

const plan::GraphPlan* Server::debug_plan(std::uint64_t handle) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  const auto it = registry_.find(handle);
  return it == registry_.end() ? nullptr : it->second.plan.get();
}

}  // namespace nabbitc::net
