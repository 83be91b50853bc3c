#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload ingest|dashboard|scan --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ltbench.exe from
source with dune, then runs one workload. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, and with --trace 1
the per-layer ones. The exit code is non-zero when the build fails, a
correctness check fails, or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/ltbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "ltbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["ingest", "dashboard", "scan"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no LittleTable sources here (need dune-project and lib/);"
              " run from the root of a checkout", file=sys.stderr)
        return 2

    try:
        # No shared cache: the build writes only under the checkout's _build.
        build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled", TARGET],
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    try:
        # run() kills the child on timeout and waits for it to end.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
