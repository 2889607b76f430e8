#!/usr/bin/env python3
"""Same-host A/B of the end-to-end benchmark: BASE against CHANGE.

    python3 tools/ab_bench.py BASE [CHANGE] [--pairs N]

BASE and CHANGE are git revisions; each is checked out with
`git worktree add --detach` into a temporary directory that is removed on
exit. Without CHANGE the change side is this checkout's working tree,
uncommitted edits included.

For every workload in BENCHMARK.json the tool runs N pairs of the
benchmark command (`bench_scf_e2e/run.py --workload W --seed S --seconds
<run_seconds> --trace 0`), one run per side. Pair k gives both sides seed
k + 1; the base runs first when k is even, the change when k is odd.
run.py builds its tree (Release, under the tree's own .bench_build/) before
it times anything.

Every `end_to_end` metric is judged against its `bound` (DESIGN.md 12.6):

  regressed       the change's median is worse than the base's by more than
                  bound x base median, and the base's IQR is within that
                  margin or every change run is worse than every base run;
  unresolved      worse by more than the margin, but the base's own spread
                  is wider than it and the runs overlap (a warning, not a
                  failure);
  claimable gain  at least 10 pairs ran, the change won at least 9/10 of
                  them (ties count for neither side) and the medians differ
                  by more than the base's IQR;
  within bound    otherwise.

Exit 1 when a metric regressed, a run exited non-zero, printed no result
line or was not correct, a pair lacks a metric the base prints, or the
change failed a larger share of its attempted operations than the base;
otherwise exit 0. The table goes to
stdout and, when set, to $GITHUB_STEP_SUMMARY. Every run's result line is
kept in .bench_build/ab_bench/runs.jsonl. Stdlib only.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_JSONL = ROOT / ".bench_build" / "ab_bench" / "runs.jsonl"
SIDES = ("base", "change")
# A gain claim needs at least CLAIM_PAIRS pairs, CLAIM_SHARE of them won
# (choosing-metrics section 8).
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9


def log(msg):
    print(f"ab_bench: {msg}", file=sys.stderr, flush=True)


def plan(workloads, pairs):
    """(workload, k, seed, sides in run order) for every pair."""
    return [(w, k, k + 1, SIDES if k % 2 == 0 else SIDES[::-1])
            for w in workloads for k in range(pairs)]


def parse_result(stdout):
    """A run's result: its last stdout line as a JSON object, else None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    keys = ("correct", "attempted", "failed", "metrics")
    if not isinstance(result, dict) or any(k not in result for k in keys):
        return None
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def judge(pairs, better, bound):
    """Statistics and verdict of one metric; pairs = [(base, change)]."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    j = {"base": (statistics.median(base), *quartiles(base)),
         "change": (statistics.median(change), *quartiles(change)),
         "wins": sum(sign * c < sign * b for b, c in pairs),
         "pairs": len(pairs)}
    bmed, cmed = j["base"][0], j["change"][0]
    j["iqr"] = j["base"][2] - j["base"][1]
    j["ratio"] = cmed / bmed if bmed else None
    margin = bound * abs(bmed)
    worse = sign * (cmed - bmed)
    if worse > margin:
        all_worse = min(sign * c for c in change) > max(sign * b for b in base)
        j["verdict"] = ("regressed" if j["iqr"] <= margin or all_worse
                        else "unresolved")
    elif (len(pairs) >= CLAIM_PAIRS and j["wins"] >= CLAIM_SHARE * len(pairs)
          and -worse > j["iqr"]):
        j["verdict"] = "claimable gain"
    else:
        j["verdict"] = "within bound"
    return j


def fmt(x):
    return "-" if x is None else f"{x:.4g}"


def evaluate(spec, records):
    """The report lines and the problems (each one fails the gate).

    records: dicts with workload, pair, side, returncode and result (the
    parsed result line, None when the run printed none)."""
    rows = ["| workload | metric | base median [q1, q3] | change median "
            "[q1, q3] | change/base | pairs won | base IQR | verdict |",
            "|---|---|---|---|---|---|---|---|"]
    notes, problems = [], []
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = [r for r in records if r["workload"] == w]
        for r in runs:
            what = f"{w} pair {r['pair']} {r['side']}"
            if r["returncode"] != 0 or r["result"] is None:
                problems.append(f"{what}: exited {r['returncode']}"
                                + ("" if r["result"] else ", no result line"))
            elif not r["result"]["correct"]:
                problems.append(f"{what}: result not correct")
        ok = {(r["pair"], r["side"]): r["result"]
              for r in runs if r["returncode"] == 0 and r["result"]}
        share = {}
        for side in SIDES:
            got = [res for (_, s), res in ok.items() if s == side]
            attempted = sum(res["attempted"] for res in got)
            failed = sum(res["failed"] for res in got)
            share[side] = failed / attempted if attempted else 0.0
            notes.append(f"{w}: {side} failed {failed} of {attempted} "
                         "operations")
        if share["change"] > share["base"]:
            problems.append(f"{w}: change failed a larger share "
                            f"({share['change']:.4g} > {share['base']:.4g})")
        done = sorted(k for k, side in ok
                      if side == "base" and (k, "change") in ok)
        for m in spec["end_to_end"]:
            name = m["name"]
            if not any(name in ok[(k, "base")]["metrics"] for k in done):
                continue  # not a metric of this workload
            pairs = []
            for k in done:
                b = ok[(k, "base")]["metrics"].get(name)
                c = ok[(k, "change")]["metrics"].get(name)
                if b is None or c is None:
                    problems.append(f"{w} pair {k}: {name} missing")
                else:
                    pairs.append((b["value"], c["value"]))
            if not pairs:
                continue
            j = judge(pairs, m["better"], m["bound"])
            what = (f"{w} {name}: {j['verdict']} (change/base "
                    f"{fmt(j['ratio'])}, bound {m['bound']})")
            if j["verdict"] == "regressed":
                problems.append(what)
            elif j["verdict"] == "unresolved":
                notes.append("WARN: " + what + ", base IQR wider than bound")
            rows.append(
                f"| {w} | {name} ({m['unit']}) "
                f"| {fmt(j['base'][0])} [{fmt(j['base'][1])}, "
                f"{fmt(j['base'][2])}] "
                f"| {fmt(j['change'][0])} [{fmt(j['change'][1])}, "
                f"{fmt(j['change'][2])}] "
                f"| {fmt(j['ratio'])} | {j['wins']}/{j['pairs']} "
                f"| {fmt(j['iqr'])} | {j['verdict']} |")
    return rows + [""] + notes + [""], problems


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev):
    try:
        return git("rev-parse", "--verify", "--quiet", rev + "^{commit}")
    except subprocess.CalledProcessError:
        raise SystemExit(f"ab_bench: {rev!r} is not a commit") from None


def run_once(spec, tree, workload, seed):
    cmd = [sys.executable if spec["command"][0] == "python3"
           else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, parse_result(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="base revision")
    ap.add_argument("change", nargs="?",
                    help="change revision (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternated pairs per workload (default 10, the "
                         "fewest a gain claim may rest on)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {"base": resolve(args.base),
            "change": resolve(args.change) if args.change else None}
    # A SIGTERM (a cancelled CI job) unwinds through the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    trees = {}
    try:
        for side in SIDES:
            if revs[side] is None:
                trees[side] = ROOT
                continue
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]), revs[side])
        RUNS_JSONL.parent.mkdir(parents=True, exist_ok=True)
        records = []
        with RUNS_JSONL.open("w") as out:
            todo = plan([w["name"] for w in spec["workloads"]], args.pairs)
            for i, (w, k, seed, order) in enumerate(todo):
                for side in order:
                    t0 = time.monotonic()
                    rc, result = run_once(spec, trees[side], w, seed)
                    log(f"[{i + 1}/{len(todo)}] {w} pair {k} seed {seed} "
                        f"{side}: exit {rc}, {time.monotonic() - t0:.0f} s")
                    rec = {"workload": w, "pair": k, "seed": seed,
                           "side": side, "rev": revs[side] or "working tree",
                           "returncode": rc, "result": result}
                    records.append(rec)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
    finally:
        for tree in trees.values():
            if tree != ROOT:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                                "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)

    lines, problems = evaluate(spec, records)
    head = (f"## ab_bench: base {revs['base'][:12]} vs change "
            f"{(revs['change'] or 'working tree')[:12]}, {args.pairs} "
            f"pair(s) per workload, {spec['run_seconds']} s runs")
    tail = ([f"FAIL: {p}" for p in problems] if problems
            else ["PASS: no metric regressed, every run correct"])
    text = "\n".join([head, "", *lines, *tail]) + "\n"
    sys.stdout.write(text)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as f:
            f.write(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
