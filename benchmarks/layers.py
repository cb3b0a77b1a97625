#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

It regenerates four tables, each case timed best-of-N.  The first two
force the module's bounds to each representation; a ratio below 1 means
the first representation named is faster.  The last two run at each
candidate value of `intpoly.LEAF_MAX_BITS`.

- `indpoly_sst` on packed ints against coefficient lists, for spherically
  symmetric trees on both sides of `indpoly._SST_PACKED_MAX_BITS`.  Each
  row's `width_bits` is 8·w·n, the width the rule compares with that
  bound: n vertices in w-byte slots, w from n up to
  `indpoly._SLOTS_FROM_N_MAX_VERTICES` vertices and from i(T) past it.
- `indpoly_tree` on Rand, Path, Cat, Spider and Star trees of n = 26..256
  vertices: packed with w = ceil(n/8) byte slots, packed with slots from
  the count pass at x = 1, and on lists; plus the rule as shipped.  It is
  the measurement behind `indpoly._SLOTS_FROM_N_MAX_VERTICES`.
- One square of 5,162-bit coefficients (reproduce's top-level width) at
  packed sizes 2^20..2^23 bits, under each candidate leaf cap: best
  seconds and the traced (`tracemalloc`) peak of one call.
- T(2^8 1^27), Tmt1:60,60 and the `reproduce` command under each candidate
  leaf cap, each in a fresh process: best seconds and the process's peak
  RSS.  With the square table, it is the measurement behind
  `intpoly.LEAF_MAX_BITS`.

Prints one JSON object with the environment, the git revision, N and the
rows.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from indseqlab import cli, indpoly, intpoly  # noqa: E402
from indseqlab.rng import derive_seed  # noqa: E402
from indseqlab.trees import caterpillar, path, random_tree, spider, sst, star  # noqa: E402

# (label, per-level child counts), ordered by packed width
SST_CASES = (
    ("spider t=50", [50, 1]),
    ("T(2^4 1^9)", [2] * 4 + [1] * 9),
    ("[12,8,1]", [12, 8, 1]),
    ("T(2^5 1^15)", [2] * 5 + [1] * 15),
    ("spider t=300", [300, 1]),
    ("spider t=400", [400, 1]),
    ("[20,20,1]", [20, 20, 1]),
    ("path of 1000", [1] * 999),
    ("T(2^6 1^17)", [2] * 6 + [1] * 17),
    ("[30,30,1]", [30, 30, 1]),
    ("T(2^7 1^23)", [2] * 7 + [1] * 23),
)
REPRESENTATIONS = (("int", 1 << 62), ("list", 0))

TREE_SIZES = (26, 32, 40, 48, 64, 80, 96, 112, 120, 128, 136, 144, 160, 192, 224, 256)
# random trees timed per size, reported per tree
RAND_TREES = 8
# (label, n -> trees of about n vertices)
TREE_SHAPES = (
    ("Rand", lambda n: [random_tree(n, derive_seed(n, i)) for i in range(RAND_TREES)]),
    ("Path", lambda n: [path(n)]),
    ("Cat", lambda n: [caterpillar([3] * (n // 4))]),
    ("Spider", lambda n: [spider((n - 1) // 2)]),
    ("Star", lambda n: [star(n)]),
)
# (column, _SLOTS_FROM_N_MAX_VERTICES, _PACKED_MAX_BITS); None keeps the
# module's values
TREE_MODES = (
    ("n_slots", 1 << 62, 1 << 62),
    ("count_slots", 0, 1 << 62),
    ("list", None, 0),
    ("shipped", None, None),
)
# calls per timing, so that each timing spans milliseconds
TREE_CALLS = 20

# candidate values of intpoly.LEAF_MAX_BITS
LEAF_CAPS = (1 << 21, 1 << 22, 1 << 23)
# packed operand sizes of the squares timed under each cap, in bits
SQUARE_SIZES = (1 << 20, 1 << 21, 1 << 22, 1 << 23)
SQUARE_COEFF_BITS = 5162
# label -> job, each run in a fresh process under each cap
CAP_JOBS = {
    "T(2^8 1^27)": lambda: indpoly.indpoly_sst([2] * 8 + [1] * 27),
    "Tmt1:60,60": lambda: indpoly.indpoly_sst([60, 60, 1]),
    "reproduce": lambda: cli.main(["reproduce"]),
}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - start)
    return best


def sst_table(repeat):
    """One row per case: width 8·w·n, best int and list seconds, ratio."""
    saved = indpoly._SST_PACKED_MAX_BITS
    rows = []
    try:
        for label, counts in SST_CASES:
            n = sst(counts).n
            if n <= indpoly._SLOTS_FROM_N_MAX_VERTICES:
                count = (1 << n) - 1
            else:
                count = sum(indpoly.indpoly_sst(counts).coeffs)
            row = {"tree": label, "width_bits": 8 * ((count.bit_length() + 7) >> 3) * n}
            for name, bound in REPRESENTATIONS:
                indpoly._SST_PACKED_MAX_BITS = bound
                row[name + "_s"] = best_of(repeat, indpoly.indpoly_sst, counts)
            row["int_over_list"] = row["int_s"] / row["list_s"]
            rows.append(row)
    finally:
        indpoly._SST_PACKED_MAX_BITS = saved
    return rows


def time_trees(trees):
    for _ in range(TREE_CALLS):
        for tree in trees:
            indpoly.indpoly_tree(tree)


def tree_dp_table(repeat):
    """One row per shape and size: best seconds per tree in each mode of
    TREE_MODES, and the ratios n_slots/count_slots and the better packed
    mode over lists."""
    names = ("_SLOTS_FROM_N_MAX_VERTICES", "_PACKED_MAX_BITS")
    saved = [getattr(indpoly, name) for name in names]
    rows = []
    try:
        for shape, build in TREE_SHAPES:
            for size in TREE_SIZES:
                trees = build(size)
                row = {"tree": shape, "n": trees[0].n}
                best = {column: float("inf") for column, _, _ in TREE_MODES}
                # the modes take turns, so a slow phase of the host hits all alike
                for _ in range(repeat):
                    for column, *values in TREE_MODES:
                        for name, value, default in zip(names, values, saved):
                            setattr(indpoly, name, default if value is None else value)
                        best[column] = min(best[column], best_of(1, time_trees, trees))
                for column, seconds in best.items():
                    row[column + "_s"] = seconds / (TREE_CALLS * len(trees))
                row["n_over_count"] = row["n_slots_s"] / row["count_slots_s"]
                row["packed_over_list"] = min(row["n_slots_s"], row["count_slots_s"]) / row["list_s"]
                rows.append(row)
    finally:
        for name, default in zip(names, saved):
            setattr(indpoly, name, default)
    return rows


def square_table(repeat):
    """One row per packed size and leaf cap: best seconds of one square and
    its traced peak in MB."""
    bits = SQUARE_COEFF_BITS
    rng = random.Random(bits)
    saved = intpoly.LEAF_MAX_BITS
    rows = []
    try:
        for size in SQUARE_SIZES:
            # slots of 2 * bits + bits(len(a)) bits, so that a packs within size
            count = size // (2 * bits + size.bit_length())
            a = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(count)]
            for cap in LEAF_CAPS:
                intpoly.LEAF_MAX_BITS = cap
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                intpoly.convolve(a, a)
                peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
                rows.append(
                    {
                        "packed_bits": count * (2 * bits + count.bit_length()),
                        "leaf_cap_bits": cap,
                        "s": best_of(repeat, intpoly.convolve, a, a),
                        "traced_peak_mb": peak / 1e6,
                    }
                )
    finally:
        intpoly.LEAF_MAX_BITS = saved
    return rows


def peak_rss_mb():
    """This process's peak resident set in MB (10**6 bytes), as perfbench
    reports it.  Linux's VmHWM starts afresh at exec; ru_maxrss keeps the
    peak of the process that forked this one, so it is the fallback."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def cap_job(label, cap, repeat):
    """Best seconds of one CAP_JOBS entry under a leaf cap, and the peak RSS
    of the process that ran it; meant for a fresh process."""
    intpoly.LEAF_MAX_BITS = cap
    with contextlib.redirect_stdout(io.StringIO()):
        seconds = best_of(repeat, CAP_JOBS[label])
    return {"job": label, "leaf_cap_bits": cap, "s": seconds, "peak_rss_mb": peak_rss_mb()}


def cap_table(repeat):
    """One row per CAP_JOBS entry and leaf cap, each from its own process."""
    rows = []
    for label in CAP_JOBS:
        for cap in LEAF_CAPS:
            argv = [sys.executable, os.path.abspath(__file__), "--repeat", str(repeat)]
            argv += ["--cap-job", label, str(cap)]
            out = subprocess.run(argv, capture_output=True, text=True, check=True)
            rows.append(json.loads(out.stdout))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="best of this many timings per cell")
    # one cell of the leaf-cap table, run by cap_table in a fresh process
    ap.add_argument("--cap-job", nargs=2, metavar=("JOB", "CAP"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    if args.cap_job:
        label, cap = args.cap_job
        json.dump(cap_job(label, int(cap), args.repeat), sys.stdout)
        return 0
    report = {
        "revision": git_revision(),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "repeat": args.repeat,
        "sst_ints_vs_lists": {
            "bound_bits": indpoly._SST_PACKED_MAX_BITS,
            "rows": sst_table(args.repeat),
        },
        "tree_dp": {
            "slots_from_n_max_vertices": indpoly._SLOTS_FROM_N_MAX_VERTICES,
            "packed_max_bits": indpoly._PACKED_MAX_BITS,
            "rows": tree_dp_table(args.repeat),
        },
        "leaf_squares": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "coeff_bits": SQUARE_COEFF_BITS,
            "rows": square_table(args.repeat),
        },
        "leaf_cap_jobs": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "rows": cap_table(args.repeat),
        },
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
