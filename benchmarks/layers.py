#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

It regenerates eight tables, each case timed best-of-N.  They time the
code as shipped, except where a table retunes one of its constants: the
tree-DP table forces `indpoly._SLOTS_FROM_N_MAX_VERTICES` and
`indpoly._PACKED_MAX_BITS`, the square table `intpoly.LEAF_MAX_BITS`, the
`lc_breaks` table `seqcheck._SCREEN_MIN_BITS`.
Each forced value, and each spy on a kernel path, is patched in with
`unittest.mock` and put back after.

- `indpoly_sst` on spiders, stars, T(2^8 1^27) and Tmt1:60,60: best
  seconds.  The last two have coefficients of thousands of bits, and
  the leaf cap was tuned on them (BENCH_9.json).
- `indpoly_tree` on Rand, Path, Cat, Spider and Star trees of n = 26..400
  vertices: packed with w = ceil(n/8) byte slots, packed with slots from
  the count pass at x = 1, and on lists; plus the rule as shipped.  It is
  the measurement behind `indpoly._SLOTS_FROM_N_MAX_VERTICES`.  The rows
  at 320 and 400 vertices lie on either side of 362, from where the rule
  as shipped skips the count pass.
- One square of 5,162-bit coefficients (reproduce's top-level width) at
  packed sizes 2^20..2^23 bits, by `convolve` under each candidate leaf
  cap: best seconds, the traced (`tracemalloc`) peak of one call, and the
  kernel paths it enters.  It is the measurement behind
  `intpoly.LEAF_MAX_BITS`; T(2^8 1^27), Tmt1:60,60 and `reproduce` run
  under each cap in fresh processes are in BENCH_9.json and
  BENCH_18.json, the two-point split against Karatsuba in BENCH_15.json.
- `convolve` on two operands of 16..4,096 coefficients of 64, 1,024 and
  5,162 bits: best seconds, and the kernel paths the product enters, in
  the order first entered.
- `search.examine_sample` at each n = 26..40, in microseconds per sample.
  (The route through a `RootedTree` and `seqcheck.analyze` that it
  replaced is in BENCH_17.json.)
- The oracle at n = 8, 14, 16, 17, 18, 20 and 22, on the tree of
  `Rand:n,1`, in microseconds per call: `indpoly_oracle` alone, and the
  whole `cli.main(["oracle", "Rand:n,1"])` with its stdout discarded.
  Their difference is the command's fixed cost per call: parsing,
  building the tree, the tree DP and printing.  16 is the largest n the
  bitsets sweep alone, 17 the first with a vertex enumerated beside
  them, and 20 the largest random trees of the oracle acceptance test.
- `seqcheck.lc_breaks` on log-concave sequences of 8..2,048 entries,
  every entry of 32..5,162 bits: microseconds per call by the exact scan
  alone and with the floating-point screen, and their ratio.  It is the
  measurement behind `seqcheck._SCREEN_MIN_BITS`: the screen pays from
  128 bits on 32 entries or more, and from 256 bits on 8.
- `formulas.spider_suite(300)`, the spider checks `verify` makes: best
  seconds.

Prints one JSON object with the environment, the git revision, N and the
rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from time import perf_counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from indseqlab import cli, formulas, indpoly, intpoly, search, seqcheck  # noqa: E402
from indseqlab.rng import derive_seed  # noqa: E402
from indseqlab.trees import caterpillar, path, random_tree, spider, star  # noqa: E402

# (label, per-level child counts)
SST_CASES = (
    tuple(("spider t=%d" % t, [t, 1]) for t in (55, 150, 300, 404, 405))
    + tuple(("star t=%d" % t, [t]) for t in (111, 255, 700, 1000))
    + (("T(2^8 1^27)", [2] * 8 + [1] * 27), ("Tmt1:60,60", [60, 60, 1]))
)

TREE_SIZES = (26, 32, 40, 48, 64, 80, 96, 112, 120, 128, 136, 144, 160, 192, 224, 256, 320, 400)
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
# (column, indpoly bounds forced in that mode); the rest keep the module's values
TREE_MODES = (
    ("n_slots", {"_SLOTS_FROM_N_MAX_VERTICES": 1 << 62, "_PACKED_MAX_BITS": 1 << 62}),
    ("count_slots", {"_SLOTS_FROM_N_MAX_VERTICES": 0, "_PACKED_MAX_BITS": 1 << 62}),
    ("list", {"_PACKED_MAX_BITS": 0}),
    ("shipped", {}),
)
# calls per timing, so that each timing spans milliseconds
TREE_CALLS = 20

# candidate values of intpoly.LEAF_MAX_BITS
LEAF_CAPS = (1 << 21, 1 << 22, 1 << 23)
# packed operand sizes of the squares timed under each cap, in bits
SQUARE_SIZES = (1 << 20, 1 << 21, 1 << 22, 1 << 23)
SQUARE_COEFF_BITS = 5162

# the convolution grid: coefficient counts and bits of both operands
GRID_COUNTS = (16, 64, 256, 1024, 4096)
GRID_BITS = (64, 1024, 5162)
# the kernel's multiplication paths, spied on by name
KERNEL_PATHS = ("_schoolbook", "_kronecker_binary", "_kronecker_two_point", "_karatsuba")

# the search-sample table: vertex counts, and samples timed per count
SEARCH_SIZES = tuple(range(26, 41))
SEARCH_SAMPLES = 200

# the oracle table: vertex counts, and calls timed per count
ORACLE_SIZES = (8, 14, 16, 17, 18, 20, 22)
ORACLE_CALLS = 20

# the lc_breaks table: bits of every entry, entries per sequence, and
# entries scanned per timing
LC_BITS = (32, 64, 128, 160, 192, 256, 384, 512, 1024, 5162)
LC_LENGTHS = (8, 32, 128, 512, 2048)
LC_ENTRIES = 4096
# (column, seqcheck._SCREEN_MIN_BITS forced in that mode)
LC_MODES = (("exact", 1 << 62), ("screen", 0))

# the spider suite's t_max: verify's default
SPIDER_T_MAX = 300


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
    """One row per case: best seconds of `indpoly_sst` as shipped."""
    return [{"tree": label, "s": best_of(repeat, indpoly.indpoly_sst, counts)} for label, counts in SST_CASES]


def time_trees(trees):
    for _ in range(TREE_CALLS):
        for tree in trees:
            indpoly.indpoly_tree(tree)


def tree_dp_table(repeat):
    """One row per shape and size: best seconds per tree in each mode of
    TREE_MODES, and the ratios n_slots/count_slots and the better packed
    mode over lists."""
    rows = []
    for shape, build in TREE_SHAPES:
        for size in TREE_SIZES:
            trees = build(size)
            row = {"tree": shape, "n": trees[0].n}
            best = {column: float("inf") for column, _ in TREE_MODES}
            # the modes take turns, so a slow phase of the host hits all alike
            for _ in range(repeat):
                for column, forced in TREE_MODES:
                    # patch.multiple refuses an empty mapping
                    with mock.patch.multiple(indpoly, **forced) if forced else contextlib.nullcontext():
                        best[column] = min(best[column], best_of(1, time_trees, trees))
            for column, seconds in best.items():
                row[column + "_s"] = seconds / (TREE_CALLS * len(trees))
            row["n_over_count"] = row["n_slots_s"] / row["count_slots_s"]
            row["packed_over_list"] = min(row["n_slots_s"], row["count_slots_s"]) / row["list_s"]
            rows.append(row)
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
    rows = []
    for size in SQUARE_SIZES:
        # slots of 2 * bits + bits(len(a)) bits, so that a packs within size
        count = size // (2 * bits + size.bit_length())
        a = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(count)]
        for cap in LEAF_CAPS:
            with mock.patch.object(intpoly, "LEAF_MAX_BITS", cap):
                rows.append(
                    {
                        "packed_bits": count * (2 * bits + count.bit_length()),
                        "leaf_cap_bits": cap,
                        "s": best_of(repeat, intpoly.convolve, a, a),
                        "peak_mb": traced_peak_mb(intpoly.convolve, a, a),
                        "paths": paths_entered(intpoly.convolve, a, a),
                    }
                )
    return rows


def paths_entered(fn, *args):
    """The kernel paths of KERNEL_PATHS one call enters, in the order first
    entered."""
    entered = []

    def spy(name, inner):
        def path(*args):
            if name not in entered:
                entered.append(name)
            return inner(*args)

        return path

    with mock.patch.multiple(intpoly, **{name: spy(name, getattr(intpoly, name)) for name in KERNEL_PATHS}):
        fn(*args)
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


def examine_samples(n):
    for index in range(SEARCH_SAMPLES):
        search.examine_sample(1, index, n, n)


def search_sample_table(repeat):
    """One row per vertex count: best microseconds per sample of
    `examine_sample` as shipped."""
    return [{"n": n, "us": best_of(repeat, examine_samples, n) / SEARCH_SAMPLES * 1e6} for n in SEARCH_SIZES]


def oracle_calls(fn, *args):
    for _ in range(ORACLE_CALLS):
        fn(*args)


def oracle_table(repeat):
    """One row per vertex count: best microseconds per call of
    `indpoly_oracle` on the tree of `Rand:n,1`, and of `cli.main` on the
    `oracle` command for that spec, with stdout discarded.  Unless `main`
    ran before, its first timing includes building the parser, which best
    of two or more leaves out."""
    rows = []
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        for n in ORACLE_SIZES:
            # the tree `Rand:n,1` builds
            oracle_s = best_of(repeat, oracle_calls, indpoly.indpoly_oracle, random_tree(n, 1))
            cli_s = best_of(repeat, oracle_calls, cli.main, ["oracle", "Rand:%d,1" % n])
            scale = 1e6 / ORACLE_CALLS
            rows.append({"n": n, "oracle_us": oracle_s * scale, "cli_us": cli_s * scale,
                         "cli_fixed_us": (cli_s - oracle_s) * scale})
    return rows


def concave_sequence(bits, length):
    """length entries of `bits` bits each, b + s k (length - 1 - k): a
    concave positive sequence, so log-concave with no ties."""
    step = max(1, (1 << (bits - 2)) // max(1, (length // 2) ** 2))
    return [(1 << (bits - 1)) + step * k * (length - 1 - k) for k in range(length)]


def lc_scan(seqs):
    for seq in seqs:
        seqcheck.lc_breaks(seq)


def lc_breaks_table(repeat):
    """One row per entry size and length: best microseconds per call of
    `lc_breaks` in each mode of LC_MODES, and screen over exact."""
    rows = []
    for bits in LC_BITS:
        for length in LC_LENGTHS:
            seqs = [concave_sequence(bits, length)] * max(1, LC_ENTRIES // length)
            row = {"bits": bits, "length": length}
            for column, gate in LC_MODES:
                with mock.patch.object(seqcheck, "_SCREEN_MIN_BITS", gate):
                    row[column + "_us"] = best_of(repeat, lc_scan, seqs) / len(seqs) * 1e6
            row["screen_over_exact"] = row["screen_us"] / row["exact_us"]
            rows.append(row)
    return rows


def spider_suite_table(repeat):
    """One row: best seconds of `formulas.spider_suite` at SPIDER_T_MAX."""
    return [{"t_max": SPIDER_T_MAX, "s": best_of(repeat, formulas.spider_suite, SPIDER_T_MAX)}]


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
        "sst": {"rows": sst_table(args.repeat)},
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
        "convolution_grid": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "rows": convolution_grid(args.repeat),
        },
        "search_sample": {"samples": SEARCH_SAMPLES, "rows": search_sample_table(args.repeat)},
        "oracle": {"calls": ORACLE_CALLS, "rows": oracle_table(args.repeat)},
        "lc_breaks": {"screen_min_bits": seqcheck._SCREEN_MIN_BITS, "rows": lc_breaks_table(args.repeat)},
        "spider_suite": {"rows": spider_suite_table(args.repeat)},
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
