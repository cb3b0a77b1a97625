#!/usr/bin/env python3
"""One workload's process, driven by run.py over stdin/stdout.

    python3 perfbench/worker.py WORKLOAD SEED GOLDEN

Sets the workload up and answers ``["ready", [setup seconds, trees per
pass, threads a pass runs, indseqlab's file, its kernel backend]]``.  Then
it reads one command a line: ``pass`` (one timed, golden-checked pass),
``ref SECONDS THREADS`` (the times of reference loops run until they add up
to SECONDS), ``trace`` (the traced run) or ``stop`` (report peak RSS in MB
and exit); it also exits at the end of its input.  Every answer is one
JSON line; anything else the workload prints goes to stderr.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

REF_ITERS = 400_000


def _loop(iterations):
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def loop_s(iterations):
    """Time of a fixed pure-Python integer loop, a host-speed probe."""
    start = perf_counter()
    _loop(iterations)
    return perf_counter() - start


def reference(seconds, threads):
    """Times of REF_ITERS loop iterations, split over ``threads`` threads,
    taken until they add up to ``seconds``.  A threaded workload meets GIL
    hand-offs across cores that one thread does not, so its probe runs as
    many threads as it does; a single-threaded one runs the loop in its own
    thread, which the scheduler keeps on the core the pass ran on."""
    if threads == 1:
        times = [loop_s(REF_ITERS)]
        while sum(times) < seconds:
            times.append(loop_s(REF_ITERS))
        return times
    times = []
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(_loop, [0] * threads))  # start the threads untimed
        while not times or sum(times) < seconds:
            start = perf_counter()
            list(pool.map(_loop, [REF_ITERS // threads] * threads))
            times.append(perf_counter() - start)
    return times


def main(name, seed, golden_path):
    channel, sys.stdout = sys.stdout, sys.stderr

    def send(kind, value):
        channel.write(json.dumps([kind, value]) + "\n")
        channel.flush()

    try:
        start = perf_counter()
        import workloads

        with open(golden_path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        wl = workloads.WORKLOADS[name](seed, golden)
        setup_s = perf_counter() - start
        backend = getattr(workloads.indseqlab, "kernel_backend", None)
        send("ready", [
            setup_s,
            wl.trees_per_pass,
            wl.threads,
            os.path.abspath(workloads.indseqlab.__file__),
            backend() if backend else "not exported",
        ])
        for line in sys.stdin:
            cmd, *arg = line.split()
            if cmd == "pass":
                send("pass", wl.cli_pass(wl.next_entries()))
            elif cmd == "ref":
                send("ref", reference(float(arg[0]), int(arg[1])))
            elif cmd == "trace":
                send("trace", [*workloads.traced_run(wl), workloads.LAYER_UNITS])
            else:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                send("stop", rss_kib * 1024 / 1e6)
                return
    except Exception:
        send("error", traceback.format_exc())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
