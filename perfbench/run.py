#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_fig4 --seed 1 --seconds 20 --trace 0

The harness (perfbench/perfbench.cpp) and the simulator library (src/) are
configured and compiled with CMake in Release mode into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. A traced run (--trace 1) also writes its spans to
trace-<workload>-seed<seed>.json in the same build directory.

Exits non-zero without printing a result when the build fails, for example
when the simulator sources are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_fig4", "fattree4096", "churn_saturated")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    if not run_step(["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return 1
    if not run_step(["cmake", "--build", build, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S):
        return 1

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
