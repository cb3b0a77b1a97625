#!/usr/bin/env python3
"""Per-layer timing tables for indseqlab, stdlib only.

Run from the repository root:

    python3 benchmarks/layers.py [--repeat 5]

For now it regenerates one table: `indpoly_sst` on packed ints against
coefficient lists, for spherically symmetric trees on both sides of
`indpoly._SST_PACKED_MAX_BITS`.  Each case is timed best-of-N with the
bound forced to each representation, and the ratio int/list below 1 means
ints are faster.  Prints one JSON object with the environment, the git
revision, N and the rows.
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
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
