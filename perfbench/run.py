#!/usr/bin/env python3
"""indseqlab benchmark: four CLI workloads, golden-checked, optionally traced.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): reproduce, verify, search, oracle, or ``all``,
which interleaves one pass of each workload round-robin so that a slow host
phase hits every workload alike.

Each workload runs in its own worker process (worker.py), so ``peak_rss_mb`` is that
process's alone.  The parent asks the worker for one pass at a time while
another round of passes is expected to end within ``--seconds`` (and until
at least MIN_PASSES passes ran); every CLI output is checked against
golden.json.  ``setup_s`` (import indseqlab, load the goldens, generate the
inputs) is the median over SETUP_PROBES fresh worker processes.

Host speed drifts by a third over minutes on a shared host, alike for every
workload.  So after each pass the worker times a fixed pure-Python loop
(worker.reference, on as many threads as the pass runs) for REF_SHARE of
the pass's time, each setup probe times it on one thread for PROBE_REF_S,
and the times reported are rescaled to a host on which that loop takes
REF_S: ``setup_s`` and ``wall_s`` are medians times REF_S
over the loop's median in the same processes.  The raw medians and the
scales are printed beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer metrics (workloads.traced_run).  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output matched its golden, 1 when one did not, and 2 when the
benchmark could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from worker import loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMES = ("reproduce", "verify", "search", "oracle")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trees_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
MIN_PASSES = 3
REF_S = 0.04  # one reference loop on a calm 2-core Xeon host
REF_SHARE = 0.1
PROBE_REF_S = 0.1


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def calib_s():
    """The drift marker taken at the start and end of each run."""
    return loop_s(1_000_000)


class Worker:
    """A worker.py process for one workload, spoken to one JSON line at a time."""

    def __init__(self, name, seed, golden_path):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), golden_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.setup_s, self.trees_per_pass, self.threads, self.package, self.backend = self._expect("ready")
        except HarnessError:
            self.close()
            raise

    def ask(self, msg):
        try:
            self.proc.stdin.write(msg + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise HarnessError("%s worker exited unexpectedly" % self.name) from None
        return self._expect(msg.split()[0])

    def _expect(self, kind):
        line = self.proc.stdout.readline()
        if not line:
            raise HarnessError("%s worker exited unexpectedly" % self.name)
        got, value = json.loads(line)
        if got == "error":
            raise HarnessError("%s worker failed:\n%s" % (self.name, value))
        if got != kind:
            raise HarnessError("%s worker answered %r to %r" % (self.name, got, kind))
        return value

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- environment --------------------------------------------------------------


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker):
    if not worker.package.startswith(os.path.join(ROOT, "src", "")):
        raise HarnessError("indseqlab imported from %s, not from this checkout" % worker.package)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_revision": git_revision(),
        "kernel_backend": worker.backend,
    }


# -- measurement --------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest order statistic with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(names, seed, seconds, golden_path):
    """Timed passes.  Returns (results, attempted, failed, env)."""
    setups = {name: [] for name in names}
    setup_refs = {name: [] for name in names}
    for name in names:
        for _ in range(SETUP_PROBES):
            probe = Worker(name, seed, golden_path)
            try:
                setup_refs[name] += probe.ask("ref %r 1" % PROBE_REF_S)
            finally:
                probe.close()
            setups[name].append(probe.setup_s)
    workers = []
    try:
        for name in names:
            workers.append(Worker(name, seed, golden_path))
        env = environment(workers[0])
        walls = {name: [] for name in names}
        refs = {name: [] for name in names}
        attempted = failed = 0
        start = perf_counter()
        while True:
            for w in workers:  # round-robin, one pass each
                secs, a, f = w.ask("pass")
                walls[w.name].append(secs)
                refs[w.name] += w.ask("ref %r %d" % (REF_SHARE * secs, w.threads))
                attempted += a
                failed += f
            rounds = len(walls[names[0]])
            elapsed = perf_counter() - start
            # stop before a round that would end past --seconds
            if rounds >= MIN_PASSES and elapsed + elapsed / rounds > seconds:
                break
        rss = {w.name: w.ask("stop") for w in workers}
    finally:
        for w in workers:
            w.close()
    results = {}
    for w in workers:
        setup = statistics.median(setups[w.name])
        setup_scale = REF_S / statistics.median(setup_refs[w.name])
        wall = statistics.median(walls[w.name])
        scale = REF_S / statistics.median(refs[w.name])
        results[w.name] = {
            "setup_s": setup * setup_scale,
            "wall_s": wall * scale,
            "trees_per_s": w.trees_per_pass / (wall * scale),
            "peak_rss_mb": rss[w.name],
            "setup_s.raw": setup,
            "setup_s.scale": setup_scale,
            "wall_s.raw": wall,
            "wall_s.scale": scale,
            "_walls": walls[w.name],
        }
    return results, attempted, failed, env


def trace(names, seed, golden_path):
    """The traced runs.  Returns (results, attempted, failed, env, units)."""
    results = {}
    attempted = failed = 0
    for name in names:
        w = Worker(name, seed, golden_path)
        try:
            env = environment(w)
            metrics, a, f, units = w.ask("trace")
            w.ask("stop")
        finally:
            w.close()
        results[name] = metrics
        attempted += a
        failed += f
    return results, attempted, failed, env, units


def _row(workload, metric, value, unit):
    text = "%d" % value if isinstance(value, int) else "%.6g" % value if isinstance(value, float) else value
    return "%-10s %-44s %16s %s" % (workload, metric, text, unit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = NAMES if args.workload == "all" else (args.workload,)

    calib_before = calib_s()
    try:
        if args.trace:
            results, attempted, failed, env, units = trace(names, args.seed, args.golden)
        else:
            results, attempted, failed, env = measure(names, args.seed, args.seconds, args.golden)
            units = END_TO_END_UNITS
    except HarnessError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    calib_after = calib_s()
    print("env: %s" % json.dumps(env))
    print("host.calib_s before=%.4f after=%.4f" % (calib_before, calib_after))

    metrics = {}
    for name, res in results.items():
        if args.trace:
            res["host.calib_s"], res["host.calib_s.after"] = calib_before, calib_after
        for metric, unit in units.items():
            print(_row(name, metric, res[metric], unit))
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics[key] = {"value": res[metric], "unit": unit}
        if not args.trace:
            walls = res["_walls"]
            t = tail(walls)
            for metric, unit in (("raw", "s"), ("scale", "ratio")):
                for timed in ("setup_s", "wall_s"):
                    key = "%s.%s" % (timed, metric)
                    print(_row(name, key, res[key], unit))
            print(_row(name, "wall_s.samples", len(walls), "count"))
            print(_row(name, "wall_s.passes.raw", " ".join("%.3f" % w for w in walls), "s"))
            if t:
                print(_row(name, "wall_s.p%.0f" % t[0], t[1] * res["wall_s.scale"], "s"))
            else:
                print(_row(name, "wall_s.tail", "n/a", "(fewer than 11 samples)"))
    print(_row(args.workload, "fail_ratio", failed / attempted, "ratio"))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
