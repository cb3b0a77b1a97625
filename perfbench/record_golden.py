#!/usr/bin/env python3
"""Record golden.json: the digest of every benchmark input's output.

For each workload and each entry of its input pool this stores the digest
of the CLI call's output (exit code, stdout, and for search the JSONL bytes)
and the digest of the decomposed computation's results.  Record once from a
commit whose outputs are trusted; the benchmark then checks every later
commit against it.  It takes a few minutes:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import ORACLE_NS, ORACLE_POOL, SEARCH_POOL, NullTracer, WORKLOADS, digest  # noqa: E402


def record(wl, entry):
    cli = wl.cli_output(entry)[1]
    decomposed = wl.decompose([entry], NullTracer())[0]
    if wl.name == "search" and decomposed != digest(wl.last_jsonl):
        raise SystemExit("search seed %d: decomposed records differ from the CLI's" % entry)
    return {"cli": cli, "decomposed": decomposed}


def main():
    empty = {name: {} for name in WORKLOADS}
    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0, empty)
        if name == "search":
            golden[name] = {str(m): record(wl, m) for m in SEARCH_POOL}
        elif name == "oracle":
            golden[name] = {
                "%d,%d" % (n, s): record(wl, (n, s)) for n in ORACLE_NS for s in ORACLE_POOL
            }
        else:
            golden[name] = record(wl, None)
        print("recorded %s" % name, file=sys.stderr)
    path = os.path.join(HERE, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
