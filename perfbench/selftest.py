#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload of BENCHMARK.json briefly, untraced and traced,
through perfbench/run.py and asserts that each run exits 0, passes all
its correctness checks, and prints exactly the metrics BENCHMARK.json
names, each with its unit; in the traced runs, that the traced half of
the ops holds ingest maintenance polls and scan full scans, some but not
all of them. Also checks that run.py fails without
printing a result where there are no sources to build. Exits non-zero
on the first failure.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, cwd, timeout):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_run(bench, workload, trace, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", str(seconds), "--trace", str(trace)]
    r = run(cmd, ROOT, 900)
    where = f"{workload} --trace {trace}"
    if r.returncode != 0:
        fail(f"{where}: exit {r.returncode}\n{r.stderr[-2000:]}")
    last = r.stdout.strip().split("\n")[-1]
    try:
        res = json.loads(last)
    except ValueError:
        fail(f"{where}: last line is not JSON: {last[:200]}")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{where}: correctness checks did not pass: {res['correct']} {res['failed']}/{res['attempted']}")
    want = bench["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        missing = sorted({m["name"] for m in want} - set(got))
        extra = sorted(set(got) - {m["name"] for m in want})
        fail(f"{where}: metric names differ; missing {missing}, extra {extra}")
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            fail(f"{where}: {m['name']} unit {v.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            fail(f"{where}: {m['name']} value {v.get('value')!r}")
        if not trace and v["value"] <= 0:
            fail(f"{where}: end-to-end metric {m['name']} is {v['value']}")
    if trace:
        check_trace_file(workload, r.stdout)
    print(f"selftest: ok {where}: {len(got)} metrics, {res['attempted']} ops")


def check_trace_file(workload, stdout):
    """The traced half must not line up with a workload's schedule: on
    ingest it holds maintenance spans, and on scan full scans, some but
    not all of them."""
    meta_line = [l for l in stdout.split("\n") if l.startswith("meta ")][-1]
    meta = json.loads(meta_line[len("meta "):])
    spans = []
    with open(os.path.join(ROOT, meta["trace_file"])) as f:
        for line in f:
            d = json.loads(line)
            if "layer" in d:
                spans.append(d)
    if workload == "ingest":
        maint_ops = {s["op"] for s in spans if s["layer"] == "maintenance"}
        polls = int(meta["polls"])
        if not maint_ops or len(maint_ops) >= polls // 16:
            fail(f"ingest --trace 1: {len(maint_ops)} traced maintenance polls of ~{polls // 16}")
    if workload == "scan":
        traced = sum(1 for s in spans if s["layer"] == "op" and s["kind"] == "scan")
        total = int(meta["ops.scan"])
        if not 0 < traced < total:
            fail(f"scan --trace 1: {traced} traced full scans of {total}")


def check_bare(bench):
    """run.py in a directory holding only BENCHMARK.json and the benchmark
    files must fail without printing a result."""
    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("out"))
    try:
        r = run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", "0"], bare, 180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or '"metrics"' in r.stdout:
        fail("run.py without sources did not fail cleanly")
    print("selftest: ok bare directory fails without a result")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=4.0)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_bare(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace, a.seconds)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
