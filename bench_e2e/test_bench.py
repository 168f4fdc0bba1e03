#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 bench_e2e/test_bench.py

Runs every workload at --size tiny (short anneal, short stream) in both
modes and checks that every metric BENCHMARK.json names is printed with its
unit; then, for each check that feeds error_rate, injects a fault (--fault)
and checks that the check fires. Builds through run.py on first use.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, fault="", cwd_root=ROOT):
    cmd = [sys.executable, os.path.join(cwd_root, "bench_e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    if fault:
        cmd += ["--fault", fault]
    return subprocess.run(cmd, cwd=cwd_root, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


_cache = {}


def cached(workload, trace, seed=3):
    key = (workload, trace, seed)
    if key not in _cache:
        _cache[key] = result(run(workload, trace, seed))
    return _cache[key]


class Smoke(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        stdout, res = cached(workload, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], stdout)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertIn(f"metric {m['name']} ", stdout)
        self.assertIn(f"({res['failed']} failed of {res['attempted']} checks)",
                      stdout)

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check_metrics(workload, 0, SPEC["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(workload, 1, SPEC["per_layer"])

    def test_seed_drives_the_run(self):
        for workload in ("ami33-paper", "ami49x16-area"):
            with self.subTest(workload=workload):
                cost = lambda seed: cached(workload, 0, seed)[1][
                    "metrics"]["final_cost"]["value"]
                self.assertEqual(cost(5), result(run(workload, 0, 5))[1][
                    "metrics"]["final_cost"]["value"])
                self.assertNotEqual(cost(5), cost(6))

    def test_checks_attempted_do_not_depend_on_seed(self):
        # Repeat counts are fixed per workload, not timed, so every run of
        # a workload attempts the same checks.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(cached(workload, 0, 5)[1]["attempted"],
                                 cached(workload, 0, 6)[1]["attempted"])

    def test_ami49_final_cost_does_not_depend_on_threads(self):
        cost = lambda workload: cached(workload, 0)[1]["metrics"][
            "final_cost"]["value"]
        self.assertEqual(cost("ami49-ir-1t"), cost("ami49-ir-4t"))

    def test_unknown_workload_fails_without_result(self):
        proc = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_program_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "bench_e2e"),
                            os.path.join(bare, "bench_e2e"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd_root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Faults(unittest.TestCase):
    """Each seeded fault must fire its check and raise error_rate."""

    def fires(self, check, workload, trace, tracked=False):
        _, base = cached(workload, trace)
        stdout, res = result(run(workload, trace, fault=check))
        self.assertIn(f"check-failed {check}", stdout)
        self.assertEqual(res["attempted"], base["attempted"])
        self.assertGreater(res["failed"], base["failed"])
        # A tracked check reports a known defect; it counts in failed but
        # does not by itself make the run incorrect.
        self.assertEqual(res["correct"], tracked)

    def test_oracle_banded(self):
        self.fires("oracle", "ami49-ir-1t", 0)

    def test_oracle_theorem1(self):
        self.fires("oracle", "ami33-paper", 0)

    def test_wirelength(self):
        self.fires("wirelength", "ami49x16-area", 0)

    def test_anneal_repeat(self):
        self.fires("anneal_repeat", "ami33-paper", 0)

    def test_final_legal(self):
        self.fires("final_legal", "ami33-paper", 0)

    def test_final_reproduce(self):
        self.fires("final_reproduce", "ami33-paper", 0)

    def test_judge_mass(self):
        self.fires("judge_mass", "ami33-paper", 0, tracked=True)

    def test_replay_fidelity(self):
        self.fires("replay_fidelity", "ami33-paper", 1)

    def test_trace_identity(self):
        self.fires("trace_identity", "ami33-paper", 1)

    @unittest.skipIf((os.cpu_count() or 1) < 2, "needs two hardware threads")
    def test_cross_thread(self):
        self.fires("cross_thread", "ami33-paper", 1)


if __name__ == "__main__":
    unittest.main()
