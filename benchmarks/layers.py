#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

It regenerates two tables, each case timed best-of-N with the module's
bounds forced to each representation; a ratio below 1 means the first
representation named is faster.

- `indpoly_sst` on packed ints against coefficient lists, for spherically
  symmetric trees on both sides of `indpoly._SST_PACKED_MAX_BITS`.
- `indpoly_tree` on Rand, Path, Cat, Spider and Star trees of n = 26..256
  vertices: packed with w = ceil(n/8) byte slots, packed with slots from
  the count pass at x = 1, and on lists; plus the rule as shipped.  It is
  the measurement behind `indpoly._SLOTS_FROM_N_MAX_VERTICES`.

Prints one JSON object with the environment, the git revision, N and the
rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from indseqlab import indpoly  # noqa: E402
from indseqlab.rng import derive_seed  # noqa: E402
from indseqlab.trees import caterpillar, path, random_tree, spider, star  # noqa: E402

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
# (column, _SLOTS_FROM_N_MAX_VERTICES, _PACKED_MAX_BITS and
# _STAR_PACKED_MAX_BITS); None keeps the module's values
TREE_MODES = (
    ("n_slots", 1 << 62, 1 << 62),
    ("count_slots", 0, 1 << 62),
    ("list", None, 0),
    ("shipped", None, None),
)
# calls per timing, so that each timing spans milliseconds
TREE_CALLS = 20


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
    """One row per case: packed width, best int and list seconds, ratio."""
    saved = indpoly._SST_PACKED_MAX_BITS
    rows = []
    try:
        for label, counts in SST_CASES:
            coeffs = indpoly.indpoly_sst(counts).coeffs
            w = (sum(coeffs).bit_length() + 7) >> 3
            row = {"tree": label, "width_bits": 8 * w * len(coeffs)}
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
    names = ("_SLOTS_FROM_N_MAX_VERTICES", "_PACKED_MAX_BITS", "_STAR_PACKED_MAX_BITS")
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
                    for column, slots_bound, packed_bound in TREE_MODES:
                        values = (slots_bound, packed_bound, packed_bound)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="best of this many timings per cell")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
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
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
