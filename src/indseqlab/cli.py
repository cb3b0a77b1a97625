"""Command-line front end.

Commands:
  poly       print the independence sequence of a tree, one "k: value" line each
  analyze    break/unimodality report; exit 3 when breaks were found
  reproduce  run the fixed claim suite and print a PASS/FAIL table
  search     seeded random-tree search, non-log-concave finds persisted as JSONL
  verify     run the closed-form and inequality verification suite
  oracle     cross-check the tree DP against the subset-sweep oracle (n <= 22)

Trees are given either as a family spec string (Tmt1:m,t  SST:c0,c1,...
Spider:t[,len]  Cat:p1,...  Path:n  Star:n  Rand:n,seed) or as an edge-list
file via --edges.  Exit codes: 0 success, 1 verification mismatch, 2 usage
or parse error, 3 analyze found breaks, 4 internal failure (such as running
out of memory), reported in one stderr line, and 141 (128 + SIGPIPE) when
the reader of stdout left early, as in `indseqlab poly Path:3000 | head -1`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import formulas, search
from .indpoly import ORACLE_MAX_VERTICES, indpoly_oracle, indpoly_sst, indpoly_tree
from .intpoly import int_to_str, str_to_int
from .seqcheck import analyze_sequence, lc_breaks, report_to_json
from .trees import build_family, parse_edge_list, parse_family

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BREAKS = 3
EXIT_INTERNAL = 4


# -- input handling -----------------------------------------------------------


def _tree_input(args, limit):
    """(n, spec, None) for a family spec, or (n, None, tree) read from
    --edges, where n is the vertex count; ValueError past limit.  A spec
    is sized from its parameters, before anything is built."""
    if args.edges is None:
        spec, tree = parse_family(args.spec), None
    else:
        with open(args.edges, "r", encoding="utf-8") as fh:
            spec, tree = None, parse_edge_list(fh.read())
    n = spec.vertex_count() if tree is None else tree.n
    if n > limit:
        raise ValueError("tree has %s vertices, limit is %s" % (int_to_str(n), int_to_str(limit)))
    return n, spec, tree


def _load_sequence(args):
    """(n, coefficient tuple) for the requested tree, of at most
    sys.maxsize vertices.

    Spherically symmetric families go through the per-level fast path and
    are never materialized; everything else builds the tree and runs the
    generic DP.
    """
    n, spec, tree = _tree_input(args, sys.maxsize)
    if spec is not None:
        counts = spec.sst_counts()
        if counts is not None:
            return n, indpoly_sst(counts).coeffs
        tree = build_family(spec)
    return n, indpoly_tree(tree).coeffs


def _int_option(text):
    """An integer option, read as spec parameters are (intpoly.str_to_int)."""
    try:
        return str_to_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _add_tree_input(sub):
    tree = sub.add_mutually_exclusive_group(required=True)
    tree.add_argument("spec", nargs="?", help="family spec string, e.g. Tmt1:4,3")
    tree.add_argument("--edges", metavar="FILE", help="edge-list file instead of a spec")


# -- commands -----------------------------------------------------------------


def cmd_poly(args):
    _n, coeffs = _load_sequence(args)
    for k, c in enumerate(coeffs):
        print("%d: %s" % (k, int_to_str(c)))
    return EXIT_OK


def cmd_analyze(args):
    n, coeffs = _load_sequence(args)
    report = analyze_sequence(n, coeffs)
    print("n: %d" % report.n)
    print("alpha: %d" % report.alpha)
    print("breaks: %s" % json.dumps(list(report.breaks)))
    print("log_concave: %s" % ("yes" if report.is_log_concave else "no"))
    print("unimodal: %s" % ("yes" if report.is_unimodal else "no"))
    if report.mode_lo is None:
        print("mode: none")
    else:
        print("mode: [%d, %d]" % (report.mode_lo, report.mode_hi))
    print("tail_start: %d" % report.tail_start)
    print("tail_monotone: %s" % ("yes" if report.tail_monotone else "no"))
    _write_json(args.json, report_to_json(report))
    return EXIT_BREAKS if report.breaks else EXIT_OK


def _write_json(path, text):
    """Write text and a newline to path, if a path was given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def _check_table(args, rows, line):
    """Print `line` % row after PASS or FAIL for each row, then the summary
    line; write {"checks": rows, "all_pass": ...} to the --json file if one
    was given.  Returns the exit code."""
    passed = sum(row["pass"] for row in rows)
    for row in rows:
        print("PASS" if row["pass"] else "FAIL", line % row)
    print("%s: %d/%d checks passed" % (args.command, passed, len(rows)))
    all_pass = passed == len(rows)
    _write_json(args.json, json.dumps({"checks": rows, "all_pass": all_pass}))
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _reproduce_checks():
    """The fixed claim suite: rows of name, expected and actual, as strings,
    and whether the two agree."""
    checks = []

    def check(name, expected, actual):
        ok = expected == actual
        checks.append({"name": name, "expected": expected, "actual": actual, "pass": ok})

    for t in range(1, 9):
        expected = [] if t <= 3 else [t * t + 2]
        actual = lc_breaks(indpoly_sst([t, t, 1]).coeffs)
        check("Tmt1:%d,%d breaks" % (t, t), json.dumps(expected), json.dumps(actual))
    bad = []
    for t in range(2, 9):
        for m in range(2, 13):
            br = lc_breaks(indpoly_sst([m, t, 1]).coeffs)
            if any(k != m * t + 2 for k in br):
                bad.append((m, t, br))
    check(
        "Tmt1 grid t=2..8 m=2..12 breaks within {mt+2}",
        "all within",
        "all within" if not bad else "violations: %r" % bad,
    )
    deep = [(4, 9, 2), (5, 15, 3), (6, 17, 8), (7, 23, 16), (8, 27, 24)]
    for m, n_tail, want in deep:
        br = lc_breaks(indpoly_sst([2] * m + [1] * n_tail).coeffs)
        check("SST:2^%d,1^%d break count" % (m, n_tail), str(want), str(len(br)))
    return checks


def cmd_reproduce(args):
    return _check_table(args, _reproduce_checks(), "%(name)s expected=%(expected)s actual=%(actual)s")


def _verify_checks(t_max, grid_max):
    """Rows of name, params and pass for the verification suite."""
    out = []

    def check(name, params, ok):
        out.append({"name": name, "params": params, "pass": bool(ok)})

    engine_ok, lc_ok, gap_ok = formulas.spider_suite(t_max)
    check("spider_closed_form_matches_engine", "t<=%d" % t_max, engine_ok)
    check("spider_log_concavity_sweep", "t<=%d" % t_max, lc_ok)
    check("binomial_gap_identity", "0<=k<=t<=%d" % t_max, gap_ok)

    split_ok = h_ok = mt2_ok = mt3_ok = impl_ok = True
    for m in range(1, grid_max + 1):
        for t in range(1, grid_max + 1):
            f = formulas.without_root_poly(m, t)
            h = formulas.with_root_poly(m, t)
            whole = indpoly_sst([m, t, 1])
            split_ok &= f + h == whole
            h_ok &= h.degree == m * t + 1 and h.coeff(m * t + 1) == 1 << (m * t)
            if m >= 2 and t >= 2:
                mt2_ok &= formulas.without_root_mt2_closed(m, t) == f.coeff(m * t + 2)
            if m >= 3:
                mt3_ok &= f.coeff(m * t + 3) >= formulas.without_root_mt3_lower(m, t)
            if formulas.break_sufficient(m, t):
                impl_ok &= m * t + 2 in lc_breaks(whole.coeffs)
    check("root_split_sum_equals_polynomial", "grid m,t<=%d" % grid_max, split_ok)
    check("with_root_tops_out_at_mt+1_with_2^mt", "grid m,t<=%d" % grid_max, h_ok)
    check("closed_form_count_at_mt+2", "grid 2<=m,t<=%d" % grid_max, mt2_ok)
    check("lower_bound_at_mt+3", "grid 3<=m<=%d t<=%d" % (grid_max, grid_max), mt3_ok)
    check("break_sufficient_implies_break", "grid m,t<=%d" % grid_max, impl_ok)

    audit = formulas.audit_term_ratios(32, 80)
    check(
        "term_ratio_audit",
        "m=32 t=80 regime_ok=%s" % audit.regime_ok,
        audit.all_steps_ok and audit.all_final_ok and audit.max_ratio < Fraction(1, 32),
    )
    audit2 = formulas.audit_term_ratios(16, 16)
    check(
        "term_ratio_audit_steps",
        "m=16 t=16 regime_ok=%s" % audit2.regime_ok,
        audit2.all_steps_ok,
    )
    return out


def cmd_verify(args):
    if args.t_max < 1 or args.grid_max < 1:
        raise ValueError("bounds must be >= 1")
    return _check_table(args, _verify_checks(args.t_max, args.grid_max), "%(name)s %(params)s")


def cmd_search(args):
    written = search.run_search(
        n_min=args.n_min,
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        out_path=args.out,
        threads=args.threads,
    )
    print("search: examined %d trees, wrote %d records to %s" % (args.samples, written, args.out))
    return EXIT_OK


def cmd_oracle(args):
    _n, spec, tree = _tree_input(args, ORACLE_MAX_VERTICES)
    tree = tree or build_family(spec)
    dp = indpoly_tree(tree)
    orc = indpoly_oracle(tree)
    print("dp     : %s" % " ".join(str(c) for c in dp.coeffs))
    print("oracle : %s" % " ".join(str(c) for c in orc.coeffs))
    if dp == orc:
        print("MATCH")
        return EXIT_OK
    print("MISMATCH")
    return EXIT_MISMATCH


# -- wiring -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="indseqlab",
        description="Exact independence polynomials of trees and their log-concavity breaks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print the independence sequence")
    _add_tree_input(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("analyze", help="break/unimodality report (exit 3 on breaks)")
    _add_tree_input(p)
    p.add_argument("--json", metavar="FILE", help="also write the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="run the fixed claim suite")
    p.add_argument("--json", metavar="FILE", help="write a JSON summary")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("search", help="seeded random-tree counterexample search")
    p.add_argument("--n-min", type=_int_option, required=True)
    p.add_argument("--n-max", type=_int_option, required=True)
    p.add_argument("--samples", type=_int_option, required=True)
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("--out", metavar="FILE", required=True, help="JSONL output path")
    p.add_argument(
        "--threads",
        type=_int_option,
        default=None,
        help="processes that examine trees: this one and THREADS - 1 workers, forked from"
        " a fork server that has indseqlab.search imported and that the first pooled run"
        " starts (default: machine parallelism)",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run the formula verification suite")
    p.add_argument("--t-max", type=_int_option, default=300)
    p.add_argument("--grid-max", type=_int_option, default=8)
    p.add_argument("--json", metavar="FILE", help="write a JSON summary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="cross-check DP vs subset-sweep oracle")
    _add_tree_input(p)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser():
    """`main`'s parser: built on first use, then kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        return 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left
    except (ValueError, OSError) as exc:
        print("%s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything else is a failure, never a mismatch
        print("%s: internal error: %r" % (args.command, exc), file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    code = main()
    if code == 141:
        # the interpreter flushes stdout at exit; let that flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
