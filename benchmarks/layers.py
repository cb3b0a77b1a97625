#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

It regenerates twelve tables, each case timed best-of-N.  They time the
code as shipped, except where a table retunes one of its constants: the
SST table forces `indpoly._OFFLOAD_MIN_BITS`, the tree-DP
table `indpoly._SLOTS_FROM_N_MAX_VERTICES` and
`indpoly._PACKED_MAX_BITS`, the square table `intpoly.LEAF_MAX_BITS`, the
`lc_breaks` table `seqcheck._SCREEN_MIN_BITS`, and the draws table
`rng._LANE_BLOCK`.  Each forced value, and each spy on a kernel path or
on the SST helper, is patched in with `unittest.mock` and put back after.
The Decimal-kernel table calls each kernel by name.

- The search pool: `run_search` at n = 26..40 with 4,000 samples (the
  benchmark's search pass), pooled on max(2, cpu count) workers: the
  first pooled call in the process, which starts the fork server, the
  best later pooled call, whose workers fork from it, and the best call
  with threads=1, all in seconds.  It runs before every other table, so
  that no pool ran before its first call.
- `indpoly_sst` on spiders, stars, T(2^7 1^23), T(2^8 1^27), Tmt1:40,50
  and Tmt1:60,60: best seconds as shipped and inline (no level sent to a
  helper process), and the helper's peak RSS in MB (VmHWM, read from
  /proc before it is closed), which the calling process's own peak RSS
  does not include.  T(2^8 1^27) and Tmt1:60,60 have coefficients of
  thousands of bits, and the leaf cap was tuned on them (BENCH_9.json).
- The SST levels of T(2^6 1^17), T(2^7 1^23), T(2^8 1^27) and Tmt1:40,50
  of size c^2 len(out) bits(max(out)) from 2^19 on: best seconds of the
  level's two powers with the power of out sent to a running helper
  process, and both inline; and the seconds from starting a helper to its
  first power, which each `indpoly_sst` call that sends a level pays once.
  The helper imports the caller's main module, this script, as it starts.
  It is the measurement behind `indpoly._OFFLOAD_MIN_BITS` (BENCH_32.json).
- `indpoly_tree` on Rand, Path, Cat, Spider and Star trees of n = 26..400
  vertices: packed with w = ceil(n/8) byte slots, packed with slots from
  the count pass at x = 1, and on lists; plus the rule as shipped.  It is
  the measurement behind `indpoly._SLOTS_FROM_N_MAX_VERTICES`.  The rows
  at 320 and 400 vertices lie on either side of 362, from where the rule
  as shipped skips the count pass.
- One square of 5,162-bit coefficients (reproduce's top-level width) at
  packed sizes 2^20..2^24 bits, by `convolve` under each candidate leaf
  cap: best seconds, the traced (`tracemalloc`) peak of one call, and the
  kernel paths it enters.  It is the measurement behind
  `intpoly.LEAF_MAX_BITS`; T(2^8 1^27), Tmt1:60,60 and `reproduce` run
  under each cap in fresh processes are in BENCH_9.json and
  BENCH_18.json, the two-point split against Karatsuba in BENCH_15.json.
- The Decimal kernels: one square of 64..5,162-bit coefficients packed
  into 0.5 to 4 times the leaf cap, its top-level product at two points,
  at four points and split Karatsuba-style: best seconds of each, four
  points' ratio to the other two, and the kernel paths `convolve` enters
  as shipped.  It is the measurement behind the two Decimal kernels and
  the edge between them at twice the cap (BENCH_25.json).
- `convolve` on two operands of 16..4,096 coefficients of 64, 1,024 and
  5,162 bits: best seconds, and the kernel paths the product enters, in
  the order first entered.
- `SplitMix64.randbelow_many(k + 2, k)`, a Pruefer sequence of a tree on
  k + 2 vertices, at k = 1, 2, 4, 12, 24, 38, 100 and 400 draws: best
  microseconds per call over 2,000 seeded streams, as shipped and under
  each candidate lane block, with the traced size of the lane constants
  of every lane count up to each block (`rng._lanes.__wrapped__`).  It is
  the measurement behind `rng._LANE_BLOCK`; search draws k = 1 (the
  vertex count) and k = 24..38 (the tree) per sample.  Two more rows
  count the lane counts whose constants one pass builds (`rng._lanes`
  cleared first) and the rounds it draws: the benchmark's search pass,
  its 4,000 samples examined in this process, and its oracle pass,
  `cli.main(["oracle", "Rand:n,1"])` at n = 14..22.
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
  A second set of rows times the sweep's preparation alone at n =
  17..22, `_sweep_order` and `_relabelled`, in microseconds per call over
  the trees of `Rand:n,1..16`: the fixed cost the oracle pays before its
  first bitset from n = 17 on.
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
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import tracemalloc
from time import perf_counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from indseqlab import cli, formulas, indpoly, intpoly, rng, search, seqcheck  # noqa: E402
from indseqlab.rng import SplitMix64, derive_seed  # noqa: E402
from indseqlab.trees import caterpillar, path, random_tree, spider, star  # noqa: E402

# the search-pool table: run_search's vertex counts and samples, as in
# the benchmark's search pass, and the workers of its pooled calls
POOL_N_MIN, POOL_N_MAX, POOL_SAMPLES = 26, 40, 4000
POOL_THREADS = max(2, os.cpu_count() or 1)

# (label, per-level child counts)
SST_CASES = (
    tuple(("spider t=%d" % t, [t, 1]) for t in (55, 150, 300, 404, 405))
    + tuple(("star t=%d" % t, [t]) for t in (111, 255, 700, 1000))
    + (("T(2^7 1^23)", [2] * 7 + [1] * 23), ("T(2^8 1^27)", [2] * 8 + [1] * 27))
    + (("Tmt1:40,50", [40, 50, 1]), ("Tmt1:60,60", [60, 60, 1]))
)
# an indpoly._OFFLOAD_MIN_BITS past every level: the SST walk inline
NO_OFFLOAD = 1 << 62
# the offload table: the levels of these trees whose c**2 len(out)
# bits(max(out)), the size indpoly._OFFLOAD_MIN_BITS bounds, is at least
# OFFLOAD_FROM_BITS; reproduce's deep trees and a Tmt1 between them
OFFLOAD_CASES = (
    ("T(2^6 1^17)", [2] * 6 + [1] * 17),
    ("T(2^7 1^23)", [2] * 7 + [1] * 23),
    ("T(2^8 1^27)", [2] * 8 + [1] * 27),
    ("Tmt1:40,50", [40, 50, 1]),
)
OFFLOAD_FROM_BITS = 1 << 19

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
SQUARE_SIZES = (1 << 20, 1 << 21, 1 << 22, 1 << 23, 1 << 24)
SQUARE_COEFF_BITS = 5162

# the band table: coefficient bits of the squared operand, packed sizes
# in leaf caps, in two-point's range and in the four-point band, and the
# kernels each square's top-level product is timed in
BAND_BITS = (64, 512, 2578, 5162)
BAND_CAPS = (0.5, 1.25, 1.5, 2, 2.25, 3, 4)
BAND_KERNELS = ("_kronecker_two_point", "_kronecker_four_point", "_karatsuba")

# the convolution grid: coefficient counts and bits of both operands
GRID_COUNTS = (16, 64, 256, 1024, 4096)
GRID_BITS = (64, 1024, 5162)
# the kernel's multiplication paths, spied on by name
KERNEL_PATHS = ("_schoolbook", "_kronecker_binary", "_kronecker_two_point", "_kronecker_four_point", "_karatsuba")

# the draws table: draws per call, candidate values of rng._LANE_BLOCK,
# and the seeded streams that each timing draws from once
DRAW_COUNTS = (1, 2, 4, 12, 24, 38, 100, 400)
DRAW_BLOCKS = (16, 32, 64, 128, 256)
DRAW_SEEDS = 2000
# the lane-count rows: the vertex counts of the oracle pass
LANE_ORACLE_SIZES = tuple(range(14, 23))

# the search-sample table: vertex counts, and samples timed per count
SEARCH_SIZES = tuple(range(26, 41))
SEARCH_SAMPLES = 200

# the oracle table: vertex counts, and calls timed per count
ORACLE_SIZES = (8, 14, 16, 17, 18, 20, 22)
ORACLE_CALLS = 20
# the sweep-preparation rows: vertex counts, and the seeds of the trees
# Rand:n,seed prepared ORACLE_CALLS times each per timing
PREP_SIZES = tuple(range(17, 23))
PREP_SEEDS = range(1, 17)

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


def search_pool_table(repeat):
    """One row: seconds of the first pooled `run_search` in this process,
    the best of `repeat` later pooled calls and the best of `repeat` calls
    with threads=1.  The first call includes starting the fork server only
    if no pool ran in this process before it."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "search.jsonl")

        def run(threads):
            search.run_search(POOL_N_MIN, POOL_N_MAX, POOL_SAMPLES, 1, out, threads=threads)

        first = best_of(1, run, POOL_THREADS)
        later = best_of(repeat, run, POOL_THREADS)
        inline = best_of(repeat, run, 1)
    return [{"n_min": POOL_N_MIN, "n_max": POOL_N_MAX, "samples": POOL_SAMPLES, "threads": POOL_THREADS,
             "first_pooled_s": first, "later_pooled_s": later, "inline_s": inline}]


def vm_hwm_mb(pid):
    """Peak RSS in MB of a running process, from /proc; None without it."""
    try:
        with open("/proc/%d/status" % pid, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return None


def sst_table(repeat):
    """One row per case: best seconds of `indpoly_sst` as shipped and
    inline (`_OFFLOAD_MIN_BITS` forced past every level), taking turns, and
    the largest peak RSS in MB of a helper process the shipped calls
    started, read just before each is closed (None if none started)."""
    rows = []
    close = indpoly._PowerHelper.close
    for label, counts in SST_CASES:
        peaks = []

        def spy(helper, kill):
            peaks.append(vm_hwm_mb(helper.process.pid))
            return close(helper, kill)

        shipped = inline = float("inf")
        for _ in range(repeat):
            with mock.patch.object(indpoly._PowerHelper, "close", spy):
                shipped = min(shipped, best_of(1, indpoly.indpoly_sst, counts))
            with mock.patch.object(indpoly, "_OFFLOAD_MIN_BITS", NO_OFFLOAD):
                inline = min(inline, best_of(1, indpoly.indpoly_sst, counts))
        rows.append({"tree": label, "s": shipped, "inline_s": inline,
                     "helper_peak_mb": max(filter(None, peaks), default=None)})
    return rows


def start_helper():
    helper = indpoly._PowerHelper(indpoly._helper_context())
    helper.send([1, 1, 1], 2)
    helper.recv()
    return helper


def offload_table(repeat):
    """(start_s, rows): the best seconds from starting an SST helper to its
    first power, of a 3-coefficient base, which a call pays once, at its
    first level sent; and one row per level of OFFLOAD_CASES from
    OFFLOAD_FROM_BITS: its size c**2 len(out) bits(max(out)) as a power of
    2, and the best seconds of its two powers with the power of out sent to
    a running helper (out sent, this process's power, the helper's
    received) and inline, taking turns, and their ratio.  It is the
    measurement behind `indpoly._OFFLOAD_MIN_BITS`.  With one core or no
    fork server, (None, [])."""
    if indpoly._helper_context() is None:
        return None, []
    start_s = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        start_helper().close(kill=False)
        start_s = min(start_s, perf_counter() - start)
    helper = start_helper()
    rows = []
    try:
        for label, counts in OFFLOAD_CASES:
            inp, outp = [0, 1], [1]
            for c in reversed(counts):
                size = c * c * len(outp) * max(outp).bit_length()
                if c > 1 and len(outp) > 2 and size >= OFFLOAD_FROM_BITS:
                    sent = inline = float("inf")
                    for _ in range(repeat):
                        start = perf_counter()
                        helper.send(outp, c)
                        intpoly._lpow(intpoly._ladd(inp, outp), c)
                        helper.recv()
                        sent = min(sent, perf_counter() - start)
                        start = perf_counter()
                        intpoly._lpow(intpoly._ladd(inp, outp), c)
                        intpoly._lpow(outp, c)
                        inline = min(inline, perf_counter() - start)
                    rows.append({"tree": label, "c": c, "log2_size": round(math.log2(size), 2),
                                 "sent_s": sent, "inline_s": inline, "sent_over_inline": sent / inline})
                outp, inp = intpoly._lpow(intpoly._ladd(inp, outp), c), [0] + intpoly._lpow(outp, c)
    finally:
        helper.close(kill=False)
    return start_s, rows


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


def band_table(repeat):
    """One row per coefficient bits and packed size: the kernel paths one
    square by `convolve` enters as shipped, and the best seconds of that
    square with its top-level product sent to each of BAND_KERNELS, whose
    own parts take the paths as shipped."""
    rows = []
    for bits in BAND_BITS:
        rng = random.Random(bits)
        for caps in BAND_CAPS:
            size = int(caps * intpoly.LEAF_MAX_BITS)
            # slots of 2 * bits + bits(len(a)) bits, so that a packs within size
            count = size // (2 * bits + size.bit_length())
            a = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(count)]
            slot = 2 * bits + count.bit_length()
            row = {"coeff_bits": bits, "count": count, "packed_bits": count * slot, "leaf_caps": caps,
                   "paths": paths_entered(intpoly.convolve, a, a)}
            for name in BAND_KERNELS:
                kernel = getattr(intpoly, name)
                args = (a, a) if name == "_karatsuba" else (a, a, slot)
                row[name.lstrip("_") + "_s"] = best_of(repeat, kernel, *args)
            row["four_over_two_point"] = row["kronecker_four_point_s"] / row["kronecker_two_point_s"]
            row["four_over_karatsuba"] = row["kronecker_four_point_s"] / row["karatsuba_s"]
            rows.append(row)
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


def draw_from_streams(streams, k):
    for stream in streams:
        stream.randbelow_many(k + 2, k)


def draws_table(repeat):
    """One row per draw count k: best microseconds per
    `randbelow_many(k + 2, k)` call as shipped, and with the lane block
    forced to each of DRAW_BLOCKS."""
    modes = [("shipped", {})] + [("block_%d" % block, {"_LANE_BLOCK": block}) for block in DRAW_BLOCKS]
    rows = []
    for k in DRAW_COUNTS:
        best = {column: float("inf") for column, _ in modes}
        # the modes take turns, so a slow phase of the host hits all alike
        for _ in range(repeat):
            for column, forced in modes:
                streams = [SplitMix64(seed) for seed in range(DRAW_SEEDS)]
                with mock.patch.multiple(rng, **forced) if forced else contextlib.nullcontext():
                    best[column] = min(best[column], best_of(1, draw_from_streams, streams, k))
        rows.append({"k": k, **{column + "_us": s / DRAW_SEEDS * 1e6 for column, s in best.items()}})
    return rows


def build_lanes(block):
    return [rng._lanes.__wrapped__(m) for m in range(1, block + 1)]


def lane_table_sizes():
    """One row per block of DRAW_BLOCKS: the traced KB of the lane
    constants of every lane count up to it."""
    return [{"block": block, "lanes_kb": traced_peak_mb(build_lanes, block) * 1e3} for block in DRAW_BLOCKS]


def search_pass():
    for index in range(POOL_SAMPLES):
        search.examine_sample(1, index, POOL_N_MIN, POOL_N_MAX)


def oracle_pass():
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        for n in LANE_ORACLE_SIZES:
            cli.main(["oracle", "Rand:%d,1" % n])


def lane_counts_table():
    """One row per pass: the lane counts whose constants it builds, and
    the rounds of lanes it draws, from `rng._lanes.cache_info()` after
    `cache_clear()`."""
    rows = []
    for name, run in (("search", search_pass), ("oracle", oracle_pass)):
        rng._lanes.cache_clear()
        run()
        info = rng._lanes.cache_info()
        rows.append({"pass": name, "lane_counts": info.currsize, "rounds": info.hits + info.misses})
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


def sweep_preparations(graphs):
    for masks in graphs:
        indpoly._relabelled(masks, indpoly._sweep_order(masks, len(masks) - indpoly._SWEEP_LOW))


def sweep_prep_table(repeat):
    """One row per vertex count: best microseconds per call of the subset
    sweep's preparation, `_sweep_order` then `_relabelled`, on the trees
    of `Rand:n,seed` for each seed in PREP_SEEDS."""
    rows = []
    for n in PREP_SIZES:
        graphs = [random_tree(n, seed).neighbor_masks() for seed in PREP_SEEDS] * ORACLE_CALLS
        rows.append({"n": n, "prep_us": best_of(repeat, sweep_preparations, graphs) / len(graphs) * 1e6})
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
        # first: its first pooled call must be the first pool in the process
        "search_pool": {"rows": search_pool_table(args.repeat)},
        "sst": {"offload_min_bits": indpoly._OFFLOAD_MIN_BITS, "rows": sst_table(args.repeat)},
        "offload": dict(zip(("offload_min_bits", "start_s", "rows"),
                            (indpoly._OFFLOAD_MIN_BITS, *offload_table(args.repeat)))),
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
        "decimal_kernels": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "rows": band_table(args.repeat),
        },
        "convolution_grid": {
            "leaf_max_bits": intpoly.LEAF_MAX_BITS,
            "rows": convolution_grid(args.repeat),
        },
        "draws": {
            "lane_block": rng._LANE_BLOCK,
            "seeds": DRAW_SEEDS,
            "rows": draws_table(args.repeat),
            "lane_tables": lane_table_sizes(),
            "lane_counts": lane_counts_table(),
        },
        "search_sample": {"samples": SEARCH_SAMPLES, "rows": search_sample_table(args.repeat)},
        "oracle": {
            "calls": ORACLE_CALLS,
            "rows": oracle_table(args.repeat),
            "prep_rows": sweep_prep_table(args.repeat),
        },
        "lc_breaks": {"screen_min_bits": seqcheck._SCREEN_MIN_BITS, "rows": lc_breaks_table(args.repeat)},
        "spider_suite": {"rows": spider_suite_table(args.repeat)},
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
