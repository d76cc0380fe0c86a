#!/usr/bin/env python3
"""Steadiness check: run a workload repeatedly, in two sets taken at
different times, and report for each end-to-end metric the median, the
quartiles, the spread (quartile distance over the median) and the drift
of the second set's median from the first's.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload greedy-large

Each set is ten runs, seeds 1..10; the second set starts five minutes
after the first ends.  The workload is steady when, for
every end-to-end metric, each set's spread and the drift (either way)
are within the bound BENCHMARK.json gives it, and no operation of any
run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
PAUSE_S = 300


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.exit("run %s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr.decode()[-2000:]))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sets = []
    for s in range(2):
        if s:
            time.sleep(PAUSE_S)
        runs = []
        for i in range(RUNS):
            r = one_run(args.workload, 1 + i, seconds)
            runs.append(r)
            print("set %d seed %d: %s failed %d/%d, %.0f s" % (
                s + 1, 1 + i,
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items()),
                r["failed"], r["attempted"], r["wall_s"]), flush=True)
        sets.append(runs)
    steady = True
    print("\n%-12s %5s %12s %12s %12s %8s %8s %8s" % (
        "metric", "set", "q1", "median", "q3", "spread", "drift", "bound"))
    for name, bound in bounds.items():
        medians = []
        for s, runs in enumerate(sets):
            q1, q2, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
            medians.append(q2)
            drift = (q2 / medians[0] - 1.0) if s else 0.0
            ok = spread <= bound and abs(drift) <= bound
            steady = steady and ok
            print("%-12s %5d %12.5g %12.5g %12.5g %8.3f %8.3f %8.2f %s" % (
                name, s + 1, q1, q2, q3, spread, drift, bound, "" if ok else "UNSTEADY"))
    failed = sum(r["failed"] for runs in sets for r in runs)
    correct = all(r["correct"] for runs in sets for r in runs)
    print("\nfailed operations: %d, all runs correct: %s" % (failed, correct))
    return 0 if steady and failed == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
