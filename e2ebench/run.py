#!/usr/bin/env python3
"""Builds the program and e2ebench, then runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload prints every end-to-end metric. With --trace 1 the run
measures every layer whichever workload it names: it runs the traced
segment of each of the three workloads, a third of --seconds each.

With --generator-check (serve_* workloads) it runs no daemon and instead
checks the load generator against a stub server that answers at once.

Run from the root of a checkout. The build goes to .bench_build/ (CMake,
Release); the first run builds everything, later runs only re-check it.
Build output goes to stderr, so the last line of stdout is e2ebench's
JSON result. A workload's p99 latency limit is read from its "why" in
BENCHMARK.json ("p99 limit <X> ms"), so the limit lives in one place.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT, keeps the daemon's socket path short
WORKLOADS = ("serve_tiny_tcp", "serve_wavefront_unix", "paper_dynamic")


def build():
    build_dir = os.path.join(ROOT, BUILD)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "e2ebench", "nabbitc-serve"],
                   stdout=sys.stderr, check=True, timeout=850)


def p99_limit_ms(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", w["why"])
            return m.group(1) if m else None
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--generator-check", action="store_true")
    a = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--workdir", os.path.join(BUILD, "run"),
           "--serve", os.path.join(BUILD, "nabbitc", "nabbitc-serve")]
    if a.workload.startswith("serve_"):
        limit = p99_limit_ms(a.workload)
        if limit is None:
            print("run.py: no 'p99 limit <X> ms' in BENCHMARK.json for "
                  + a.workload, file=sys.stderr)
            return 1
        cmd += ["--p99-limit-ms", limit]
    if a.generator_check:
        cmd += ["--generator-check", "1"]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
