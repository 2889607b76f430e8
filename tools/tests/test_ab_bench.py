#!/usr/bin/env python3
"""Unit tests for tools/ab_bench.py: the run order and every verdict and
exit rule, on synthetic result lines (no build, no benchmark run). The
bounds are BENCHMARK.json's.

Run directly (python3 tools/tests/test_ab_bench.py); wired into ctest as
`ab_bench_selftest` and into the CI lint job. Stdlib only.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import ab_bench  # noqa: E402

SPEC = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-pair jitter of every timing, so each side has a spread of its own.
JITTER = (1.00, 1.02, 0.98, 1.01, 0.99)


def base_metrics(k):
    """Base side's end-to-end metrics in pair k."""
    metrics = {}
    for m in SPEC["end_to_end"]:
        value = 1.0 if m["unit"] == "MiB" else JITTER[k % len(JITTER)]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def result(metrics, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def records(edit=None, pairs=5):
    """Both sides of every pair of every workload, each reading
    base_metrics(k); edit(w, k, side, rec) may change a record in place."""
    out = []
    for w in WORKLOADS:
        for k in range(pairs):
            for side in ab_bench.SIDES:
                rec = {"workload": w, "pair": k, "side": side,
                       "returncode": 0, "result": result(base_metrics(k))}
                if edit:
                    edit(w, k, side, rec)
                out.append(rec)
    return out


def scale(metric, factor, workload=WORKLOADS[0]):
    """Every change run of workload reads metric x factor."""
    def edit(w, k, side, rec):
        if side == "change" and w == workload:
            rec["result"]["metrics"][metric]["value"] *= factor
    return edit


def exit_code(recs):
    return 1 if ab_bench.evaluate(SPEC, recs)[1] else 0


def bound(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


class VerdictTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        lines, problems = ab_bench.evaluate(SPEC, records())
        self.assertEqual(problems, [])
        rows = [ln for ln in lines if ln.startswith("| ")][1:]
        self.assertEqual(len(rows), len(WORKLOADS) * len(SPEC["end_to_end"]))
        self.assertTrue(all("within bound" in r for r in rows))

    def test_scf_time_30_percent_slower_fails_20_percent_passes(self):
        self.assertEqual(bound("scf_s.mpi"), 0.25)
        self.assertEqual(exit_code(records(scale("scf_s.mpi", 1.30))), 1)
        self.assertEqual(exit_code(records(scale("scf_s.mpi", 1.20))), 0)

    def test_throughput_30_percent_lower_fails(self):
        self.assertEqual(exit_code(records(scale("jobs_per_s", 0.70,
                                                 "serve-mix"))), 1)
        self.assertEqual(exit_code(records(scale("jobs_per_s", 1.30,
                                                 "serve-mix"))), 0)

    def test_memory_6_percent_higher_fails(self):
        self.assertEqual(bound("mem_mib.shared"), 0.05)
        self.assertEqual(exit_code(records(scale("mem_mib.shared", 1.06))), 1)
        self.assertEqual(exit_code(records(scale("mem_mib.shared", 1.04))), 0)

    def test_wide_base_spread_is_unresolved_unless_every_run_is_worse(self):
        base = [0.5, 0.6, 1.0, 1.05, 1.1]  # median 1.0, IQR 0.45 > 0.25
        overlapping = [0.9, 1.25, 1.3, 1.35, 1.4]
        all_worse = [1.2, 1.25, 1.3, 1.35, 1.4]
        for change, verdict, rc in ((overlapping, "unresolved", 0),
                                    (all_worse, "regressed", 1)):
            j = ab_bench.judge(list(zip(base, change)), "lower", 0.25)
            self.assertEqual(j["base"][0], 1.0)
            self.assertEqual(j["change"][0], 1.3)
            self.assertGreater(j["iqr"], 0.25)
            self.assertEqual(j["verdict"], verdict)

            def edit(w, k, side, rec, change=change):
                rec["result"]["metrics"]["scf_s.mpi"]["value"] = (
                    (base if side == "base" else change)[k])
            lines, problems = ab_bench.evaluate(SPEC, records(edit))
            self.assertEqual(1 if problems else 0, rc)
            self.assertEqual(
                sum(ln.startswith("WARN: ") for ln in lines),
                len(WORKLOADS) if verdict == "unresolved" else 0)

    def test_incorrect_run_fails(self):
        def edit(w, k, side, rec):
            if (w, k, side) == (WORKLOADS[1], 2, "change"):
                rec["result"]["correct"] = False
        self.assertEqual(exit_code(records(edit)), 1)

    def test_missing_result_line_or_nonzero_exit_fails(self):
        line = json.dumps(result(base_metrics(0))) + "\n"
        for stdout, rc in (("fingerprint: {}\n== table\n", 0),
                           ("", 1),
                           (line, 1),
                           ('{"correct": true}\n', 0)):
            def edit(w, k, side, rec, stdout=stdout, rc=rc):
                if (w, k, side) == (WORKLOADS[2], 0, "base"):
                    rec["returncode"] = rc
                    rec["result"] = ab_bench.parse_result(stdout)
            self.assertEqual(exit_code(records(edit)), 1, stdout)

    def test_metric_missing_from_a_change_run_fails(self):
        def edit(w, k, side, rec):
            if (w, k, side) == (WORKLOADS[0], 3, "change"):
                del rec["result"]["metrics"]["job_p95_s"]
        self.assertEqual(exit_code(records(edit)), 1)

    def test_parse_result_reads_the_last_line(self):
        line = json.dumps(result({}))
        self.assertEqual(ab_bench.parse_result(f"fp\n== x\n{line}\n"),
                         result({}))

    def test_higher_failed_share_fails(self):
        def edit(w, k, side, rec):
            if side == "change" and (w, k) == (WORKLOADS[0], 1):
                rec["result"]["failed"] = 1
        self.assertEqual(exit_code(records(edit)), 1)

        def both(w, k, side, rec):
            if (w, k) == (WORKLOADS[0], 1):
                rec["result"]["failed"] = 1
        self.assertEqual(exit_code(records(both)), 0)


class ClaimTest(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]

    def claim(self, change):
        return ab_bench.judge(list(zip(self.BASE, change)), "lower", 0.25)

    def test_nine_of_ten_wins_beyond_the_iqr_is_claimable(self):
        change = [0.90] * 9 + [1.05]
        j = self.claim(change)
        self.assertEqual(j["wins"], 9)
        self.assertEqual(j["verdict"], "claimable gain")

    def test_eight_of_ten_wins_is_not(self):
        j = self.claim([0.90] * 8 + [1.05, 1.05])
        self.assertEqual(j["wins"], 8)
        self.assertEqual(j["verdict"], "within bound")

    def test_ties_count_for_neither_side(self):
        j = self.claim([0.90] * 8 + self.BASE[8:])
        self.assertEqual(j["wins"], 8)
        self.assertEqual(j["verdict"], "within bound")

    def test_median_gap_within_the_iqr_is_not(self):
        # Every pair won, but by less than the base's own spread.
        j = self.claim([b - 0.005 for b in self.BASE])
        self.assertEqual(j["wins"], 10)
        self.assertLess(j["base"][0] - j["change"][0], j["iqr"])
        self.assertEqual(j["verdict"], "within bound")

    def test_fewer_than_ten_pairs_never_claim(self):
        # Three of three won by a wide margin: the shape identical code
        # showed on pentane-sto3g in a 3-pair A/B on a drifting host.
        j = ab_bench.judge([(1.0, 0.8), (1.1, 0.85), (1.05, 0.82)],
                           "lower", 0.25)
        self.assertEqual(j["wins"], 3)
        self.assertGreater(j["base"][0] - j["change"][0], j["iqr"])
        self.assertEqual(j["verdict"], "within bound")

    def test_higher_is_better(self):
        j = ab_bench.judge([(b, 1.1 * b) for b in self.BASE], "higher", 0.25)
        self.assertEqual(j["verdict"], "claimable gain")


class PlanTest(unittest.TestCase):
    def test_pairs_share_a_seed_and_alternate_the_first_side(self):
        plan = ab_bench.plan(WORKLOADS, 4)
        self.assertEqual(len(plan), 4 * len(WORKLOADS))
        for w in WORKLOADS:
            mine = [p for p in plan if p[0] == w]
            self.assertEqual([k for _, k, _, _ in mine], [0, 1, 2, 3])
            seeds = [seed for _, _, seed, _ in mine]
            self.assertEqual(len(set(seeds)), len(seeds))
            for _, k, _, order in mine:
                self.assertEqual(sorted(order), sorted(ab_bench.SIDES))
                self.assertEqual(order[0], "base" if k % 2 == 0 else "change")


if __name__ == "__main__":
    unittest.main()
