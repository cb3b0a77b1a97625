#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

It regenerates six tables, each case timed best-of-N.  The first forces
the module's bounds to each representation; a ratio below 1 means the
first representation named is faster.  The second swaps how powers are
taken; the next two run at each candidate value of
`intpoly.LEAF_MAX_BITS`, the fifth times `convolve` as shipped, and the
last times two routes through one search sample.

- `indpoly_tree` on Rand, Path, Cat, Spider and Star trees of n = 26..256
  vertices: packed with w = ceil(n/8) byte slots, packed with slots from
  the count pass at x = 1, and on lists; plus the rule as shipped.  It is
  the measurement behind `indpoly._SLOTS_FROM_N_MAX_VERTICES`.
- `indpoly_sst` on spiders and stars, whose powers have bases of degree at
  most 1, with those powers from the binomial row (`intpoly._linear_power`,
  as shipped) against repeated squaring, both on coefficient lists.
- One square of 5,162-bit coefficients (reproduce's top-level width) at
  packed sizes 2^20..2^23 bits, by `convolve` as shipped under each
  candidate leaf cap: best seconds, the traced (`tracemalloc`) peak of
  one call, and the kernel paths it enters.  (The two-point split against
  Karatsuba is in BENCH_15.json.)
- T(2^8 1^27), Tmt1:60,60 and the `reproduce` command under each candidate
  leaf cap, each in a fresh process: best seconds and the process's peak
  RSS.  With the square table, it is the measurement behind
  `intpoly.LEAF_MAX_BITS`.
- `convolve` on two operands of 16..4,096 coefficients of 64, 1,024 and
  5,162 bits: best seconds, and the kernel paths the product enters, in
  the order first entered.
- One search sample at each n = 26..40, in microseconds per tree: built
  as a `RootedTree` by `search.sample_tree` and examined by
  `seqcheck.analyze`, against `search.examine_sample` as shipped, which
  runs the DP on the Pruefer decoding itself.

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

from indseqlab import cli, indpoly, intpoly, search  # noqa: E402
from indseqlab.rng import derive_seed  # noqa: E402
from indseqlab.seqcheck import analyze  # noqa: E402
from indseqlab.trees import caterpillar, path, random_tree, spider, star  # noqa: E402

# (label, per-level child counts) whose powers all have bases of degree <= 1
SST_POWER_CASES = tuple(("spider t=%d" % t, [t, 1]) for t in (55, 150, 300, 404, 405)) + tuple(
    ("star t=%d" % t, [t]) for t in (111, 255, 700, 1000)
)

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

# the convolution grid: coefficient counts and bits of both operands
GRID_COUNTS = (16, 64, 256, 1024, 4096)
GRID_BITS = (64, 1024, 5162)
# the kernel's multiplication paths, spied on by name
KERNEL_PATHS = ("_schoolbook", "_kronecker_binary", "_kronecker_two_point", "_karatsuba")

# the search-sample table: vertex counts, and samples timed per count
SEARCH_SIZES = tuple(range(26, 41))
SEARCH_SAMPLES = 200


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


def squaring_power(u, e):
    """Coefficient list u**e for e >= 1 by repeated squaring, the way
    `intpoly._lpow` takes every base that is not 2 coefficients long."""
    result = None
    while e:
        if e & 1:
            result = u if result is None else intpoly.convolve(result, u)
        e >>= 1
        if e:
            u = intpoly.convolve(u, u)
    return result


def sst_power_table(repeat):
    """One row per case: best seconds with degree-<=1 powers from the
    binomial row (as shipped) and by repeated squaring, and the ratio."""
    lpow = indpoly._lpow
    powers = {"row": lpow, "squaring": squaring_power}
    rows = []
    try:
        for label, counts in SST_POWER_CASES:
            row = {"tree": label}
            best = dict.fromkeys(powers, float("inf"))
            # the two take turns, so a slow phase of the host hits both alike
            for _ in range(repeat):
                for column, power in powers.items():
                    indpoly._lpow = power
                    best[column] = min(best[column], best_of(1, indpoly.indpoly_sst, counts))
            for column, seconds in best.items():
                row[column + "_s"] = seconds
            row["row_over_squaring"] = row["row_s"] / row["squaring_s"]
            rows.append(row)
    finally:
        indpoly._lpow = lpow
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


def traced_peak_mb(fn, *args):
    """The traced (`tracemalloc`) peak of one call in MB, above what was
    allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def square_table(repeat):
    """One row per packed size and leaf cap: best seconds of one square by
    `convolve`, its traced peak in MB and the kernel paths it enters."""
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
                rows.append(
                    {
                        "packed_bits": count * (2 * bits + count.bit_length()),
                        "leaf_cap_bits": cap,
                        "s": best_of(repeat, intpoly.convolve, a, a),
                        "peak_mb": traced_peak_mb(intpoly.convolve, a, a),
                        "paths": paths_entered(intpoly.convolve, a, a),
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


def paths_entered(fn, *args):
    """The kernel paths of KERNEL_PATHS one call enters, in the order first
    entered."""
    saved = {name: getattr(intpoly, name) for name in KERNEL_PATHS}
    entered = []

    def spy(name, inner):
        def path(*args):
            if name not in entered:
                entered.append(name)
            return inner(*args)

        return path

    try:
        for name, inner in saved.items():
            setattr(intpoly, name, spy(name, inner))
        fn(*args)
    finally:
        for name, inner in saved.items():
            setattr(intpoly, name, inner)
    return entered


def convolution_grid(repeat):
    """One row per coefficient count and bits: best seconds of `convolve` on
    two distinct operands of that shape, as shipped, and the paths it
    enters."""
    rows = []
    for bits in GRID_BITS:
        rng = random.Random(bits)
        for count in GRID_COUNTS:
            a, b = ([rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(count)] for _ in range(2))
            rows.append(
                {
                    "count": count,
                    "bits": bits,
                    "s": best_of(repeat, intpoly.convolve, a, b),
                    "paths": paths_entered(intpoly.convolve, a, b),
                }
            )
    return rows


def rooted_route(n):
    for index in range(SEARCH_SAMPLES):
        analyze(search.sample_tree(1, index, n, n))


def decoded_route(n):
    for index in range(SEARCH_SAMPLES):
        search.examine_sample(1, index, n, n)


def search_sample_table(repeat):
    """One row per vertex count: best microseconds per sample through a
    RootedTree and analyze, and through examine_sample, and the ratio."""
    routes = {"rooted": rooted_route, "decoded": decoded_route}
    rows = []
    for n in SEARCH_SIZES:
        best = dict.fromkeys(routes, float("inf"))
        # the routes take turns, so a slow phase of the host hits both alike
        for _ in range(repeat):
            for column, route in routes.items():
                best[column] = min(best[column], best_of(1, route, n))
        row = {"n": n}
        for column, seconds in best.items():
            row[column + "_us"] = seconds / SEARCH_SAMPLES * 1e6
        row["decoded_over_rooted"] = row["decoded_us"] / row["rooted_us"]
        rows.append(row)
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
        "sst_powers": {"rows": sst_power_table(args.repeat)},
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
        "convolution_grid": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "rows": convolution_grid(args.repeat),
        },
        "search_sample": {"samples": SEARCH_SAMPLES, "rows": search_sample_table(args.repeat)},
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
