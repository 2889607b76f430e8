#!/usr/bin/env python3
"""End-to-end SCF benchmark: build, check the build fingerprint, run.

Run from the root of a checkout:

    python3 bench_scf_e2e/run.py --workload ethane-631gd --seed 1 \
        --seconds 30 --trace 0
    python3 bench_scf_e2e/run.py --workload all --seed 1 --seconds 30
    python3 bench_scf_e2e/run.py --workload serve-mix --seed 1 --seconds 30 \
        --trace 1 --smoke

The benchmark is built from the checkout's sources (Release) under
.bench_build/bench_scf_e2e. Numbers from a non-Release, sanitizer or
MC_CHECK build are refused. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1; see README.md). Each result is
also written, stamped with the build fingerprint, to
.bench_build/bench_scf_e2e/results/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bench_scf_e2e"
RESULTS = BUILD / "results"
BINARY = BUILD / "bench_scf_e2e"
WORKLOADS = ("ethane-631gd", "pentane-sto3g", "serve-mix")
RUN_TIMEOUT_S = 170
WORKERS = 4  # workers per algorithm (src/workloads.hpp kWorkers)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build incrementally; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT / 'src'} not found: the benchmark builds the "
                         "repository's sources and needs a full checkout")
    jobs = str(min(4, usable_cpus()))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "bench_scf_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def usable_cpus():
    """CPUs this process may run on (taskset/cgroup pinning included)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def fingerprint():
    """The CMake-written build half plus the git and host halves; refuses
    builds whose timings mean nothing."""
    path = BUILD / "build_fingerprint.json"
    try:
        fp = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    fp["git_sha"] = sha
    fp["git_dirty"] = None if status is None else bool(status)
    fp["nproc"] = usable_cpus()
    # Every algorithm runs four workers; fewer usable CPUs oversubscribe
    # them, and such numbers must not be compared with a 4-CPU baseline.
    fp["undersubscribed_host"] = fp["nproc"] < WORKERS
    if fp["undersubscribed_host"]:
        log(f"run.py: WARNING: only {fp['nproc']} usable CPU(s) for "
            f"{WORKERS} workers; the result is marked undersubscribed_host")
    if fp.get("build_type") != "release":
        raise BenchError(f"refusing a {fp.get('build_type')!r} build: "
                         "numbers come from Release builds only")
    if fp.get("sanitize", "off") != "off" or fp.get("mc_check"):
        raise BenchError("refusing an instrumented build "
                         f"(sanitize={fp.get('sanitize')!r}, "
                         f"mc_check={fp.get('mc_check')})")
    return fp


def run_one(workload, seed, seconds, trace, smoke):
    """Run the benchmark binary once; returns (result, other stdout lines)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(RESULTS)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: benchmark exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload}: last line is not JSON: {lines[-1]!r}") from e
    if set(result) != RESULT_KEYS:
        raise BenchError(f"{workload}: result keys {sorted(result)}")
    return result, lines[:-1]


def print_table(workload, result):
    print(f"== {workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {str(result['correct']).lower()}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny molecules, one repetition (the self-test)")
    args = ap.parse_args(argv)

    try:
        build()
        fp = fingerprint()
        print("fingerprint: " + json.dumps(fp, sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            result, extra = run_one(w, args.seed, args.seconds, args.trace,
                                    args.smoke)
            for line in extra:
                print(line)
            print_table(w, result)
            results[w] = result
            stamp = RESULTS / (f"result-{w}-seed{args.seed}-trace{args.trace}"
                               + ("-smoke" if args.smoke else "") + ".json")
            stamp.write_text(json.dumps(
                {"fingerprint": fp, "workload": w, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "smoke": args.smoke, "result": result}, indent=1) + "\n")
    except BenchError as e:
        log(f"run.py: {e}")
        return 1

    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
