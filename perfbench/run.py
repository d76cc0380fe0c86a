#!/usr/bin/env python3
"""Build and run the standby optimizer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds `perfbench.exe` and `standbyopt.exe` with dune,
runs whole rounds of the workload for --seconds seconds and prints the
result as one JSON object on the last line of standard output.
--trace 1 prints the per-layer metrics of traced rounds instead of the
end-to-end metrics.  --selftest checks that the answer checker rejects
tampered answers and smoke-runs every workload at small size.

Everything the benchmark writes (build, result stores, sockets, traces)
stays inside the checkout: `_build/` and `.perfbench_run/`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["paper-suite", "greedy-large", "serve-routed"]
RUN_DIR = ".perfbench_run"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
STANDBYOPT = os.path.join("_build", "default", "bin", "standbyopt.exe")

# A run must end well inside the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def in_checkout():
    return all(
        os.path.exists(p)
        for p in ("dune-project", os.path.join("bin", "standbyopt.ml"), os.path.join("lib", "service"))
    )


def environment():
    env = dict(os.environ)
    # Dune's shared cache lives in the home directory; keep the build
    # inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    return env


def build(env):
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/standbyopt.exe"]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def fresh_run_dir():
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(os.path.join(RUN_DIR, "tmp"))


def run_exe(args, env, capture=False):
    """Run perfbench.exe in its own process group, so a timeout also
    ends any daemon it started.  Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(
        [EXE] + args,
        env=env,
        start_new_session=True,
        stdout=subprocess.PIPE if capture else None,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1, None
    return proc.returncode, (out.decode() if capture else None)


def show_daemon_log():
    path = os.path.join(RUN_DIR, "daemons.log")
    if os.path.exists(path):
        with open(path, errors="replace") as f:
            tail = f.read()[-4000:]
        if tail:
            log("daemon log tail:\n" + tail)


def workload_args(workload, seed, seconds, trace, small=False):
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--run-dir", RUN_DIR, "--standbyopt", STANDBYOPT,
    ]
    return args + (["--small"] if small else [])


def selftest(env):
    code, _ = run_exe(["--selftest"], env)
    ok = code == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            fresh_run_dir()
            started = time.monotonic()
            code, out = run_exe(workload_args(workload, 1, 1, trace, small=True), env, capture=True)
            elapsed = time.monotonic() - started
            try:
                result = json.loads(out.strip().splitlines()[-1])
                good = code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            except (AttributeError, IndexError, ValueError, KeyError):
                good = False
            print("selftest: smoke %-13s trace %d  %5.1f s  %s" % (workload, trace, elapsed, "ok" if good else "FAILED"))
            ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not in_checkout():
        log("run from the root of a standbyopt checkout (dune-project, bin/, lib/ not found)")
        return 2
    fresh_run_dir()
    env = environment()
    try:
        if not build(env):
            log("build failed")
            return 1
        if args.selftest:
            return selftest(env)
        code, _ = run_exe(workload_args(args.workload, args.seed, args.seconds, args.trace), env)
        if code != 0:
            show_daemon_log()
        return code
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
