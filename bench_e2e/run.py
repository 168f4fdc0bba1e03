#!/usr/bin/env python3
"""Build and run the ficon end-to-end benchmark.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload ami49-ir-1t --seed 1 --seconds 8 --trace 0

The first call configures and builds the ficon library and the benchmark
binary ficon_e2e (bench_e2e/CMakeLists.txt) under .bench_build/e2e; later
calls only re-check the build. Build output goes to stderr, so the last line
of standard output is ficon_e2e's JSON result. Any failure (no sources, build
error, a crash, the 170 s guard) exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_e2e")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "ficon_e2e")
RUN_TIMEOUT_S = 170


def clean_env():
    # FICON_* knobs (threads, SIMD mode, tracing) would change what is
    # measured; ficon_e2e sets everything it needs explicitly.
    return {k: v for k, v in os.environ.items() if not k.startswith("FICON_")}


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    # Test-only: short schedules, and a deliberately perturbed check.
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--fault", default="")
    args = parser.parse_args()

    env = clean_env()
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(env):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded the time guard", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
