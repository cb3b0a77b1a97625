#!/usr/bin/env python3
"""Self-test of the benchmark harness, at one-second runs.

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names, each with its unit, with every golden check passing;
and that a corrupted golden makes ``fail_ratio`` positive and the exit code
non-zero.  Takes about two minutes (the reproduce pass alone is ~10 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(*args):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def expect(cond, what, proc=None):
    if not cond:
        detail = "" if proc is None else "\n--- stdout\n%s--- stderr\n%s" % (proc.stdout, proc.stderr)
        raise SystemExit("selftest FAILED: %s%s" % (what, detail))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # "all" runs every workload round-robin and prefixes each metric
    # with its workload; single workloads use the bare names
    runs = [("all", 0, {"%s.%s" % (w, m): u for w in names for m, u in end_to_end.items()})]
    runs += [(names[-1], 0, end_to_end)] + [(w, 1, per_layer) for w in names]
    for wl, trace, declared in runs:
        proc, result = run("--workload", wl, "--trace", str(trace))
        label = "%s --trace %d" % (wl, trace)
        expect(proc.returncode == 0 and result is not None, label + " exits 0 with a result", proc)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, label + " result keys")
        expect(result["correct"] and result["failed"] == 0, label + " passes its golden checks", proc)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == declared, label + " emits the declared metrics with their units")
        print("ok  %s" % label)

    with open(os.path.join(HERE, "golden.json"), "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    for entry in golden["oracle"].values():
        entry["cli"] = "0" * len(entry["cli"])
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    corrupt = os.path.join(HERE, ".work", "corrupt-golden.json")
    with open(corrupt, "w", encoding="utf-8") as fh:
        json.dump(golden, fh)
    try:
        proc, result = run("--workload", "oracle", "--trace", "0", "--golden", corrupt)
    finally:
        os.remove(corrupt)
    ratio = re.search(r"fail_ratio\s+(\S+)", proc.stdout)
    expect(proc.returncode != 0, "a corrupted golden gives a non-zero exit", proc)
    expect(ratio is not None and float(ratio.group(1)) > 0, "a corrupted golden gives fail_ratio > 0", proc)
    expect(result is not None and not result["correct"] and result["failed"] > 0, "result marks the failures", proc)
    print("ok  corrupted golden: exit %d, fail_ratio %s" % (proc.returncode, ratio.group(1)))
    print("selftest passed")


if __name__ == "__main__":
    main()
