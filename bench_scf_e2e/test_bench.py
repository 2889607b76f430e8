#!/usr/bin/env python3
"""The benchmark's own tests (stdlib only). From the root of a checkout:

    python3 bench_scf_e2e/test_bench.py

Runs every workload in smoke mode (tiny molecules, one repetition) with
tracing off and on, and checks that
  * every metric BENCHMARK.json names is printed, with its unit, and all
    operations succeed;
  * the span file of each traced run nests (each span inside its parent's
    interval), has monotone non-zero timestamps, and non-negative self
    times;
  * in a directory holding only BENCHMARK.json and the benchmark, run.py
    fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
RESULTS = ROOT / ".bench_build" / "bench_scf_e2e" / "results"
SEED = 7
EPS_US = 1e-3  # span timestamps are printed to the nanosecond


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed ({proc.returncode}):\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spans(test, path):
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    test.assertTrue(events, f"{path}: no spans")
    by_id = {e["args"]["id"]: e for e in events}
    test.assertEqual(len(by_id), len(events), "span ids are unique")
    last_ts = 0.0
    for sid in sorted(by_id):
        e = by_id[sid]
        test.assertGreater(e["ts"], 0.0, f"span {sid} has a zero timestamp")
        test.assertGreaterEqual(e["dur"], 0.0)
        test.assertGreaterEqual(e["ts"], last_ts,
                                f"span {sid} starts before span {sid - 1}")
        last_ts = e["ts"]
        test.assertGreaterEqual(e["args"]["self_s"], 0.0)
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        test.assertIn(parent, by_id, f"span {sid}: unknown parent {parent}")
        p = by_id[parent]
        test.assertGreaterEqual(e["ts"] + EPS_US, p["ts"],
                                f"span {sid} starts before its parent")
        test.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + EPS_US,
                             f"span {sid} ends after its parent")
    for layer, s in doc["self_seconds_by_layer"].items():
        test.assertGreaterEqual(s, 0.0, layer)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, section):
        result = run_smoke(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec()[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if trace:
            check_spans(self, RESULTS / f"spans-{workload}-seed{SEED}.json")
            table = json.loads(
                (RESULTS / f"eri_cost_table-{workload}.json").read_text())
            self.assertTrue(table["classes"])
            for row in table["classes"]:
                self.assertGreater(row["s_per_unit"], 0.0)

    def test_workloads(self):
        for w in spec()["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace, section)


class IsolatedTest(unittest.TestCase):
    def test_fails_without_sources(self):
        iso = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(iso, ignore_errors=True)
        iso.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", iso)
            for p in spec()["paths"]:
                shutil.copytree(ROOT / p, iso / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            cmd = spec()["command"]
            proc = subprocess.run(
                [sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:],
                 "--workload", "serve-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=iso, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
