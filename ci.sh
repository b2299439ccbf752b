#!/usr/bin/env bash
# Configure + build + test, Release and Debug, warnings-as-errors.
# Usage: ./ci.sh [Release|Debug|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")"

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
MODE=${1:-all}

run_one() {
  local build_type=$1
  local dir="build-ci-${build_type,,}"
  echo "=== ${build_type}: configure ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DNABBITC_WERROR=ON
  echo "=== ${build_type}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${build_type}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

case "${MODE}" in
  Release|Debug) run_one "${MODE}" ;;
  all)
    run_one Release
    run_one Debug
    ;;
  *)
    echo "usage: $0 [Release|Debug|all]" >&2
    exit 2
    ;;
esac

if [ "${MODE}" != "Debug" ]; then
  echo "=== repeat leg: timing-sensitive suites x20 (Release) ==="
  # Fuzz matrices, plan replay, the runtime façade and the dynamic
  # executor's join-token protocol (both spawn shapes: vanilla Nabbit and
  # NabbitC's colored spawn) depend on scheduler interleavings; 20 passes
  # each make a new flake fail here, before merge.
  ctest --test-dir build-ci-release --output-on-failure -j "${JOBS}" \
    --timeout 600 --repeat until-fail:20 \
    -R 'Fuzz|PlanVariant|PlanConcurrent|Runtime\.|DynamicExecutor|DynExecTest|ColoredExecTest|ColoredExecutor'
  echo "repeat leg OK"
fi

echo "=== header self-containment: src/api + src/plan + src/net + src/persist + src/obs ==="
# Every public façade header must compile standalone, warning-clean: an
# embedder's first include may be any one of them. src/plan is part of the
# public surface (GraphPlan is returned by Runtime::compile), src/net
# is the service embedding surface (Server/Client link against the daemon
# core from outside the engine), src/persist is the plan-cache surface
# (PlanBlobView/PlanCacheDir are how embedders warm-start without a daemon),
# and src/obs is the metrics surface (embedders scrape registry() directly).
HDR_TMP="$(mktemp -d)"
trap 'rm -rf "${HDR_TMP}"' EXIT
for h in src/api/*.h src/plan/*.h src/net/*.h src/persist/*.h src/obs/*.h; do
  rel="${h#src/}"
  echo "  ${rel}"
  printf '#include "%s"\n' "${rel}" > "${HDR_TMP}/tu.cpp"
  "${CXX:-c++}" -std=c++20 -Isrc -Wall -Wextra -Werror -fsyntax-only "${HDR_TMP}/tu.cpp"
done
echo "header self-containment OK"

echo "=== bench-smoke: micro-runtime JSON ==="
BENCH_DIR="build-ci-release"
if [ -d "${BENCH_DIR}" ]; then
  "${BENCH_DIR}/bench_micro_runtime" preset=tiny out="${BENCH_DIR}/BENCH_micro.json"
  python3 - "${BENCH_DIR}/BENCH_micro.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
expected = [
    "deque_push_pop_ns", "deque_steal_miss_ns", "colored_steal_check_ns",
    "steal_attempt_ns", "arena_create_ns", "small_vec_push4_ns",
    "map_insert_ns", "map_hit_ns", "successor_add_close_ns",
    "spawn_sync_ns_per_task", "runtime_submit_ns", "plan_replay_submit_ns",
    "plan_sched_replay_submit_ns", "plan_batch_submit_ns", "submit_ring_push_ns",
    "plan_compile_ns", "plan_blob_save_ns", "plan_blob_load_ns",
    "hist_record_ns", "metrics_scrape_ns",
    "dynamic_node_ns", "dynamic_nodes_per_sec",
]
missing = [k for k in expected if k not in d["metrics"]]
assert not missing, f"missing metrics: {missing}"
for k in expected:
    v = d["metrics"][k]["value"]
    assert isinstance(v, (int, float)) and v > 0, f"bad value for {k}: {v}"
m = d["metrics"]
# Persistence acceptance: loading a blob (parse + validate + restore) must
# be decisively cheaper than recompiling, or the plan cache buys nothing.
# The real box shows ~2x; requiring load < compile leaves noise headroom.
load = m["plan_blob_load_ns"]["value"]
comp = m["plan_compile_ns"]["value"]
assert load < comp, f"blob load ({load:.0f} ns) not cheaper than compile ({comp:.0f} ns)"
# Observability acceptance: one histogram record (the cost every
# instrumented hot path pays per event) must stay in single-digit-to-low-
# double-digit ns, or "always-on" is a lie. The committed BENCH_micro.json
# shows ~5.6 ns.
rec = m["hist_record_ns"]["value"]
assert rec < 15, f"hist_record_ns too slow for always-on metrics: {rec:.1f} ns"
print(f"bench-smoke OK: {len(d['metrics'])} metrics, "
      f"load/compile = {load / comp:.2f}, hist_record = {rec:.1f} ns")
EOF
  # Regression gates: the single-graph replay round trips against the
  # numbers committed in BENCH_micro.json. plan_replay_submit_ns is the
  # inline (scheduler-free) run tiny-graph lowering gives; the gate keeps it
  # from quietly regressing back to a futex round trip (a >10x cliff).
  # plan_sched_replay_submit_ns is the same graph with lowering off, so the
  # scheduler replay path (spawn, compute_and_notify) is timed too. 4x
  # headroom absorbs slower CI machines.
  python3 - "${BENCH_DIR}/BENCH_micro.json" BENCH_micro.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    fresh = json.load(f)["metrics"]
with open(sys.argv[2]) as f:
    committed = json.load(f)["metrics"]
for k in ("plan_replay_submit_ns", "plan_sched_replay_submit_ns"):
    got, base = fresh[k]["value"], committed[k]["value"]
    assert got < base * 4.0, (
        f"{k} regressed: {got:.0f} ns vs committed {base:.0f} ns (gate: 4x)")
    print(f"{k} gate OK: {got:.0f} ns vs committed {base:.0f} ns")
EOF
else
  echo "bench-smoke skipped (no Release build dir)"
fi

echo "=== bench-smoke: throughput JSON ==="
if [ -d "${BENCH_DIR}" ]; then
  "${BENCH_DIR}/bench_throughput" preset=tiny out="${BENCH_DIR}/BENCH_throughput.json"
  python3 - "${BENCH_DIR}/BENCH_throughput.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
expected = [
    "fresh_submit_ns", "fresh_node_ns", "plan_replay_submit_ns",
    "plan_batch_submit_ns", "replay_node_ns", "replay_speedup_x",
    "sustained_submissions_per_sec", "sustained_node_ns", "plan_instances",
    "arena_bytes_after",
]
missing = [k for k in expected if k not in d["metrics"]]
assert not missing, f"missing metrics: {missing}"
for k in expected:
    v = d["metrics"][k]["value"]
    assert isinstance(v, (int, float)) and v > 0, f"bad value for {k}: {v}"
m = d["metrics"]
# Smoke-level acceptance: the replay path must amortize graph construction.
# The real box shows ~15%; 60% leaves room for noisy shared CI machines.
ratio = m["plan_replay_submit_ns"]["value"] / m["fresh_submit_ns"]["value"]
assert ratio < 0.60, f"plan replay too close to fresh submit: {ratio:.2f}"
print(f"bench-throughput OK: {len(d['metrics'])} metrics, replay/fresh = {ratio:.2f}")
EOF
else
  echo "bench-throughput smoke skipped (no Release build dir)"
fi

echo "=== bench-smoke: serving JSON ==="
if [ -d "${BENCH_DIR}" ]; then
  "${BENCH_DIR}/bench_serving" preset=tiny out="${BENCH_DIR}/BENCH_serving.json"
  python3 - "${BENCH_DIR}/BENCH_serving.json" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
expected = [
    "unloaded_p50_ns", "unloaded_p95_ns", "high_prio_p50_ns",
    "high_prio_p95_ns", "high_prio_p99_ns", "high_prio_max_ns",
    "background_completed", "cancel_drain_p50_ns", "cancel_skipped_mean",
    "singleton_submits_per_sec", "batch32_submits_per_sec",
    "batch_speedup_x", "inline_submits_per_sec", "inline_speedup_x",
    "arena_bytes_after",
]
missing = [k for k in expected if k not in d["metrics"]]
assert not missing, f"missing metrics: {missing}"
# The acceptance property: the high-priority latency under saturating
# low-priority load exists and is finite (and sane: positive, sub-second).
p50 = d["metrics"]["high_prio_p50_ns"]["value"]
assert isinstance(p50, (int, float)) and math.isfinite(p50), f"bad p50: {p50}"
assert 0 < p50 < 1e9, f"high-priority p50 out of range: {p50}"
# Background (low-priority) work must have progressed under the load.
assert d["metrics"]["background_completed"]["value"] > 0, "low lane starved"
# Both speedups are medians of per-round ratios over 7 rounds whose order
# alternates (bench_serving.cpp), so one CPU-steal phase cannot decide the
# gate.
# Batching acceptance: batch-32 submission must sustain >= 5x the
# serialized singleton rate (the real box shows ~10x; 5x is the gate).
speedup = d["metrics"]["batch_speedup_x"]["value"]
assert speedup >= 5.0, f"median batch-32 speedup below the 5x gate: {speedup:.2f}"
# Tiny-graph lowering acceptance: the inline (scheduler-free) replay of a
# 1-node plan must decisively beat the scheduler singleton path (the real
# box shows >20x; 2x is the gate).
inline_x = d["metrics"]["inline_speedup_x"]["value"]
assert inline_x >= 2.0, (
    f"median inline/singleton submit rate {inline_x:.2f}x, not decisively "
    f"above the scheduler singleton path (gate: 2x)")
print(f"bench-serving OK: high_prio_p50 = {p50:.0f} ns, "
      f"median batch_speedup = {speedup:.1f}x, "
      f"median inline/singleton = {inline_x:.1f}x")
EOF
else
  echo "bench-serving smoke skipped (no Release build dir)"
fi

echo "=== bench-smoke: net JSON ==="
if [ -d "${BENCH_DIR}" ]; then
  "${BENCH_DIR}/bench_net" preset=tiny secs=2 out="${BENCH_DIR}/BENCH_net.json"
  python3 - "${BENCH_DIR}/BENCH_net.json" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
expected = [
    "clients", "rps_sustained", "submit_result_p50_ns",
    "submit_result_p95_ns", "submit_result_p99_ns", "plans_compiled",
    "busy_rejections", "arena_bytes_after",
    "register_cold_ns", "register_warm_ns",
]
missing = [k for k in expected if k not in d["metrics"]]
assert not missing, f"missing metrics: {missing}"
m = d["metrics"]
# The acceptance properties: >= 4 concurrent clients saw finite
# submit->RESULT latency, and the shared graph was compiled exactly once.
assert m["clients"]["value"] >= 4, "fewer than 4 concurrent clients"
p99 = m["submit_result_p99_ns"]["value"]
assert isinstance(p99, (int, float)) and math.isfinite(p99), f"bad p99: {p99}"
assert 0 < p99 < 60e9, f"submit->RESULT p99 out of range: {p99}"
assert m["plans_compiled"]["value"] == 1, "shared graph compiled more than once"
assert m["rps_sustained"]["value"] > 0, "no sustained throughput"
# Plan-cache acceptance: a REGISTER served from the cache (warm daemon,
# same cache dir) must beat one that compiles. The real box shows ~5x.
cold = m["register_cold_ns"]["value"]
warm = m["register_warm_ns"]["value"]
assert 0 < warm < cold, f"warm REGISTER ({warm:.0f} ns) not cheaper than cold ({cold:.0f} ns)"
print(f"bench-net OK: {m['clients']['value']:.0f} clients, "
      f"p99 = {p99:.0f} ns, rps = {m['rps_sustained']['value']:.0f}, "
      f"warm/cold register = {warm / cold:.2f}")
EOF
else
  echo "bench-net smoke skipped (no Release build dir)"
fi

echo "=== serve-smoke: daemon + client over a unix socket ==="
if [ -d "${BENCH_DIR}" ]; then
  SERVE_SOCK="$(mktemp -u /tmp/nabbitc-ci-XXXXXX.sock)"
  "${BENCH_DIR}/nabbitc-serve" unix="${SERVE_SOCK}" workers=2 &
  SERVE_PID=$!
  # Wait for the daemon to bind (it prints "listening" after, but the
  # socket file appearing is the machine-checkable signal).
  for _ in $(seq 1 100); do
    [ -S "${SERVE_SOCK}" ] && break
    sleep 0.1
  done
  [ -S "${SERVE_SOCK}" ] || { echo "serve-smoke: daemon never bound" >&2; kill "${SERVE_PID}"; exit 1; }
  "${BENCH_DIR}/nabbitc-serve" connect="${SERVE_SOCK}" submits=24 side=8 \
    || { echo "serve-smoke: client failed" >&2; kill "${SERVE_PID}"; exit 1; }
  kill -TERM "${SERVE_PID}"
  # The daemon must drain and exit 0 on SIGTERM; a non-zero wait status
  # (crash, sanitizer report, hung shutdown) fails the step.
  wait "${SERVE_PID}"
  rm -f "${SERVE_SOCK}"
  echo "serve-smoke OK"
else
  echo "serve-smoke skipped (no Release build dir)"
fi

echo "=== metrics-smoke: METRICS scrape + nabbitc-top against a live daemon ==="
if [ -d "${BENCH_DIR}" ]; then
  METRICS_SOCK="$(mktemp -u /tmp/nabbitc-ci-XXXXXX.sock)"
  METRICS_LOG="$(mktemp /tmp/nabbitc-ci-mlog-XXXXXX)"
  # metrics_log_interval exercises the daemon's periodic stderr line.
  "${BENCH_DIR}/nabbitc-serve" unix="${METRICS_SOCK}" workers=2 \
    metrics_log_interval=1 2>"${METRICS_LOG}" &
  METRICS_PID=$!
  for _ in $(seq 1 100); do
    [ -S "${METRICS_SOCK}" ] && break
    sleep 0.1
  done
  [ -S "${METRICS_SOCK}" ] || { echo "metrics-smoke: daemon never bound" >&2; kill "${METRICS_PID}"; exit 1; }
  # Sequential submits (the client waits each RESULT), so no BUSY pushback:
  # the daemon completes EXACTLY this many executions.
  METRICS_N=16
  "${BENCH_DIR}/nabbitc-serve" connect="${METRICS_SOCK}" submits="${METRICS_N}" side=6 \
    || { echo "metrics-smoke: client failed" >&2; kill "${METRICS_PID}"; exit 1; }
  "${BENCH_DIR}/nabbitc-serve" connect="${METRICS_SOCK}" metrics=1 \
    > "${BENCH_DIR}/metrics-scrape.txt" \
    || { echo "metrics-smoke: scrape failed" >&2; kill "${METRICS_PID}"; exit 1; }
  python3 - "${BENCH_DIR}/metrics-scrape.txt" "${METRICS_N}" <<'EOF'
import sys
with open(sys.argv[1]) as f:
    text = f.read()
n = int(sys.argv[2])
values = {}
for line in text.splitlines():
    parts = line.split()
    if len(parts) == 2:
        values[parts[0]] = parts[1]
required = [
    "submit_complete_ns_count", "queue_wait_ns_count",
    "net_dispatch_ns_count", "net_reply_ns_count",
    "net_bytes_in_total", "net_bytes_out_total",
    "net_submitted_total", "net_completed_total",
    "net_sessions_active", "net_inflight",
    "sched_dispatch_ns_count", "sched_tasks_total",
    "sched_lane_depth_0", "rt_arena_bytes",
]
missing = [k for k in required if k not in values]
assert not missing, f"missing metrics in scrape: {missing}"
# The acceptance count: the daemon completed exactly N submissions, and
# every completion recorded exactly one submit_complete_ns sample.
got = int(values["submit_complete_ns_count"])
assert got == n, f"submit_complete_ns count {got}, want {n}"
assert 'submit_complete_ns{quantile="0.99"}' in text, "no quantile lines"
print(f"metrics scrape OK: {len(values)} series, submit_complete count = {got}")
EOF
  # The slow ring must hold the completed requests with coherent stamps.
  "${BENCH_DIR}/nabbitc-serve" connect="${METRICS_SOCK}" slow=1 \
    > "${BENCH_DIR}/slow-dump.txt" \
    || { echo "metrics-smoke: slow dump failed" >&2; kill "${METRICS_PID}"; exit 1; }
  grep -q "^slow exec=" "${BENCH_DIR}/slow-dump.txt" \
    || { echo "metrics-smoke: slow ring is empty" >&2; kill "${METRICS_PID}"; exit 1; }
  # nabbitc-top renders live rows against the same daemon.
  "${BENCH_DIR}/nabbitc-top" connect="${METRICS_SOCK}" interval_ms=200 iters=2 \
    > "${BENCH_DIR}/top-out.txt" \
    || { echo "metrics-smoke: nabbitc-top failed" >&2; kill "${METRICS_PID}"; exit 1; }
  grep -q "rps" "${BENCH_DIR}/top-out.txt" \
    || { echo "metrics-smoke: nabbitc-top rendered nothing" >&2; kill "${METRICS_PID}"; exit 1; }
  # Let at least one metrics_log_interval tick land, then shut down.
  sleep 1.2
  kill -TERM "${METRICS_PID}"
  wait "${METRICS_PID}"
  grep -q "nabbitc-serve: metrics " "${METRICS_LOG}" \
    || { echo "metrics-smoke: no periodic metrics log line" >&2; exit 1; }
  rm -f "${METRICS_SOCK}" "${METRICS_LOG}"
  echo "metrics-smoke OK"
else
  echo "metrics-smoke skipped (no Release build dir)"
fi

echo "=== metrics-overhead: metrics-on within 8% of metrics-off ==="
if [ -d "${BENCH_DIR}" ]; then
  # The always-on claim, A/B tested: the instrumented dynamic-executor
  # throughput with metrics recording enabled must stay within run noise of
  # the same build with the NABBITC_METRICS=0 kill-switch. One pair of
  # runs is at the mercy of host CPU steal, so run METRICS_PAIRS pairs,
  # alternating which side goes first, and gate on the median per-pair
  # on/off ratio. Each run keeps the best of 15 graph runs.
  METRICS_PAIRS=7
  metrics_run() {  # $1 = on|off, $2 = pair index
    local enabled=1
    [ "$1" = off ] && enabled=0
    NABBITC_METRICS="${enabled}" "${BENCH_DIR}/bench_micro_runtime" \
      preset=tiny repeats=15 filter=dynamic \
      out="${BENCH_DIR}/BENCH_metrics_$1_$2.json" > /dev/null
  }
  for i in $(seq 1 "${METRICS_PAIRS}"); do
    if (( i % 2 )); then
      metrics_run on "${i}"; metrics_run off "${i}"
    else
      metrics_run off "${i}"; metrics_run on "${i}"
    fi
  done
  python3 - "${BENCH_DIR}" "${METRICS_PAIRS}" <<'EOF'
import json, statistics, sys
def rate(side, i):
    with open(f"{sys.argv[1]}/BENCH_metrics_{side}_{i}.json") as f:
        return json.load(f)["metrics"]["dynamic_nodes_per_sec"]["value"]
pairs = range(1, int(sys.argv[2]) + 1)
ratios = [rate("on", i) / rate("off", i) for i in pairs]
ratio = statistics.median(ratios)
shown = ", ".join(f"{r:.3f}" for r in ratios)
assert 0.92 <= ratio, \
    f"median metrics-on/off throughput ratio {ratio:.3f} below 0.92 (pairs: {shown})"
print(f"metrics-overhead OK: median on/off = {ratio:.3f} (pairs: {shown})")
EOF
else
  echo "metrics-overhead skipped (no Release build dir)"
fi

echo "=== cache-smoke: plan cache survives a daemon restart ==="
if [ -d "${BENCH_DIR}" ]; then
  # A typoed cache flag must refuse to start (exit 2), not silently run a
  # daemon the operator believes is persistent.
  set +e
  "${BENCH_DIR}/nabbitc-serve" unix=/tmp/never-bound.sock plan_cashe=/tmp/x \
    2>/dev/null
  TYPO_RC=$?
  set -e
  [ "${TYPO_RC}" -eq 2 ] || {
    echo "cache-smoke: typoed flag exited ${TYPO_RC}, want 2" >&2; exit 1;
  }

  CACHE_DIR="$(mktemp -d /tmp/nabbitc-ci-cache-XXXXXX)"
  # Boot a daemon on the cache dir, register + run the smoke graph with the
  # client asserting the server-side compile count, SIGTERM, wait.
  boot_and_register() {
    local expect_compiled=$1
    local sock
    sock="$(mktemp -u /tmp/nabbitc-ci-XXXXXX.sock)"
    "${BENCH_DIR}/nabbitc-serve" unix="${sock}" workers=2 \
      plan_cache="${CACHE_DIR}" &
    local pid=$!
    for _ in $(seq 1 100); do
      [ -S "${sock}" ] && break
      sleep 0.1
    done
    [ -S "${sock}" ] || { echo "cache-smoke: daemon never bound" >&2; kill "${pid}"; return 1; }
    "${BENCH_DIR}/nabbitc-serve" connect="${sock}" submits=8 side=8 \
      expect_plans_compiled="${expect_compiled}" \
      || { echo "cache-smoke: client failed" >&2; kill "${pid}"; return 1; }
    kill -TERM "${pid}"
    wait "${pid}"
    rm -f "${sock}"
  }
  # Cold boot: empty cache, the one graph compiles (and persists).
  boot_and_register 1
  # Warm restart on the same directory: the acceptance property — zero
  # compiles; the plan comes back from disk.
  boot_and_register 0
  rm -rf "${CACHE_DIR}"
  echo "cache-smoke OK"
else
  echo "cache-smoke skipped (no Release build dir)"
fi

echo "=== traced smoke run ==="
SMOKE_DIR="build-ci-release"
[ -d "${SMOKE_DIR}" ] || SMOKE_DIR="build-ci-debug"
"${SMOKE_DIR}/bench_fig9_first_steal" cores=4 preset=tiny repeats=1 \
  --trace-out="${SMOKE_DIR}/fig9-trace.json"
python3 - "${SMOKE_DIR}/fig9-trace-p4.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d["traceEvents"], "trace has no events"
print(f"trace OK: {len(d['traceEvents'])} events")
EOF

if [ "${MODE}" = "Debug" ]; then
  echo "=== ThreadSanitizer leg skipped (Debug-only invocation) ==="
  echo "CI OK"
  exit 0
fi

echo "=== UndefinedBehaviorSanitizer leg (net + support suites) ==="
# The wire codec and the support primitives parse untrusted bytes and do
# the bit-level arithmetic; -fno-sanitize-recover (CMakeLists.txt) makes
# any UBSan report fail the binary.
UBSAN_DIR="build-ci-ubsan"
cmake -B "${UBSAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNABBITC_SANITIZE=undefined \
  -DNABBITC_WERROR=ON \
  -DNABBITC_BUILD_BENCH=OFF \
  -DNABBITC_BUILD_EXAMPLES=OFF
cmake --build "${UBSAN_DIR}" -j "${JOBS}" --target net_test support_test
UBSAN_OPTIONS="print_stacktrace=1" "${UBSAN_DIR}/support_test"
UBSAN_OPTIONS="print_stacktrace=1" "${UBSAN_DIR}/net_test"
echo "ubsan leg OK"

echo "=== AddressSanitizer+UBSan leg (executor, plan, persist, alloc, fuzz, net) ==="
# Heap misuse in the dynamic executor's node map and successor lists, the
# compiled-plan arrays, the mapped plan blobs, the wire codec and the
# session teardown. alloc_test and plan_test replace every global operator
# new/delete (nothrow forms included), so ASan's alloc/dealloc matching
# stays on.
ASAN_DIR="build-ci-asan"
cmake -B "${ASAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNABBITC_SANITIZE=address \
  -DNABBITC_WERROR=ON \
  -DNABBITC_BUILD_BENCH=OFF \
  -DNABBITC_BUILD_EXAMPLES=OFF
cmake --build "${ASAN_DIR}" -j "${JOBS}" \
  --target nabbit_test nabbitc_test plan_test persist_test alloc_test \
  fuzz_graph_test net_test
for t in nabbit_test nabbitc_test plan_test persist_test alloc_test \
    fuzz_graph_test net_test; do
  UBSAN_OPTIONS="print_stacktrace=1" \
    "${ASAN_DIR}/${t}"
done
echo "asan leg OK"

echo "=== ThreadSanitizer leg (race-prone subset) ==="
# The CI box has 1 CPU and tsan is ~10x, so this leg builds only the test
# binaries and runs the race-prone subset: scheduler concurrency and
# submission control (rt), the dynamic executor's join-token protocol and
# its lock-free successor lists and node map (nabbit, nabbitc), concurrent
# submissions (api), concurrent/
# cancelled plan replays (plan), two randomized-DAG fuzz seeds, the
# graph service's cross-thread paths (sessions vs. runtime callbacks:
# shared-plan registration, disconnect-cancel, shutdown drain), and the
# plan cache's concurrent store/load/forget (persist).
# Benign-by-design races (the colored-steal peek) are suppressed in
# tsan.supp, which documents each entry.
TSAN_DIR="build-ci-tsan"
cmake -B "${TSAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNABBITC_SANITIZE=thread \
  -DNABBITC_WERROR=ON \
  -DNABBITC_BUILD_BENCH=OFF \
  -DNABBITC_BUILD_EXAMPLES=OFF
cmake --build "${TSAN_DIR}" -j "${JOBS}" \
  --target rt_test api_test plan_test fuzz_graph_test net_test persist_test obs_test \
  nabbit_test nabbitc_test
# history_size=7 (max) keeps long-gone access stacks restorable — a report
# whose peer stack tsan cannot restore bypasses function-scoped
# suppressions (see tsan.supp) and would fail the leg spuriously.
TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp halt_on_error=1 history_size=7" \
  ctest --test-dir "${TSAN_DIR}" --output-on-failure --timeout 600 \
  -R 'SubmissionControl|WaitIdleQuiescesThePool|ConcurrentStealersEachTaskOnce|ConcurrentRootJobsShareThePool|ConcurrentStress|PlanConcurrent|OverlappingSubmissions|SubmitOptionsKeepSteadyState|FuzzDag8.*/[01]$|FuzzTiny8.*/[01]$|FuzzBatch8.*/[01]$|SubmitRing|BatchSubmission|SharedPlanCompiledOnceAcrossSessions|BatchSubmitDeliversPerItemResults|BatchAdmissionAdmitsPrefixAndReportsScope|NetDisconnect|NetShutdown|ResultArrivesWithoutPolling|PersistConcurrent|ConcurrentRecordMergeMatchesSerial|MetricsAndSlowCaptureOverUnix|DynamicExecutor|DynExecTest|ColoredExecTest|SuccessorList|ConcurrentMap'
echo "tsan leg OK"

echo "=== ThreadSanitizer repeat leg (plan restore, registration, rt/net control) ==="
# restore() allocates the derived schedule, key table and colors on the
# daemon's concurrent REGISTER and warm-load paths; repeat the subset that
# drives those paths (and concurrent plan replay), plus the scheduler's
# submission control and the daemon's disconnect/shutdown paths (which
# race the worker's completion notify against the session's teardown of
# its waker), until a run fails, up to 10 times, in the same TSan build.
TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp halt_on_error=1 history_size=7" \
  ctest --test-dir "${TSAN_DIR}" --output-on-failure --timeout 600 \
  --repeat until-fail:10 \
  -R 'PlanConcurrent|PersistConcurrent|SharedPlanCompiledOnceAcrossSessions|FuzzDag8.*/[01]$|SubmissionControl|NetDisconnect|NetShutdown|ResultArrivesWithoutPolling'
echo "tsan repeat leg OK"

echo "CI OK"
