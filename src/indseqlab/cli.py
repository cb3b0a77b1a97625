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
out of memory), reported in one stderr line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formulas, search
from .indpoly import ORACLE_MAX_VERTICES, indpoly_oracle, indpoly_sst, indpoly_tree
from .intpoly import int_to_str
from .seqcheck import analyze_sequence, lc_breaks, report_to_json
from .trees import build_family, parse_edge_list, parse_family

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BREAKS = 3
EXIT_INTERNAL = 4


# -- input handling -----------------------------------------------------------


def _load_sequence(args):
    """(n, coefficient tuple) for the requested tree.

    Spherically symmetric families go through the per-level fast path and
    are never materialized; everything else builds the tree and runs the
    generic DP.
    """
    if args.edges is not None:
        with open(args.edges, "r", encoding="utf-8") as fh:
            tree = parse_edge_list(fh.read())
        return tree.n, indpoly_tree(tree).coeffs
    spec = parse_family(args.spec)
    counts = spec.sst_counts()
    if counts is not None:
        return spec.sst_vertex_count(), indpoly_sst(counts).coeffs
    tree = build_family(spec)
    return tree.n, indpoly_tree(tree).coeffs


def _load_tree(args):
    if args.edges is not None:
        with open(args.edges, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    return build_family(parse_family(args.spec))


def _add_tree_input(sub):
    sub.add_argument("spec", nargs="?", help="family spec string, e.g. Tmt1:4,3")
    sub.add_argument("--edges", metavar="FILE", help="edge-list file instead of a spec")


def _check_tree_input(parser, args):
    if (args.spec is None) == (args.edges is None):
        parser.error("give exactly one of: a family spec, or --edges FILE")


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
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
            fh.write("\n")
    return EXIT_BREAKS if report.breaks else EXIT_OK


def _reproduce_checks():
    """The fixed claim suite: (name, expected, actual) as strings."""
    checks = []
    for t in range(1, 9):
        expected = [] if t <= 3 else [t * t + 2]
        actual = lc_breaks(indpoly_sst([t, t, 1]).coeffs)
        checks.append(
            ("Tmt1:%d,%d breaks" % (t, t), json.dumps(expected), json.dumps(actual))
        )
    bad = []
    for t in range(2, 9):
        for m in range(2, 13):
            br = lc_breaks(indpoly_sst([m, t, 1]).coeffs)
            if any(k != m * t + 2 for k in br):
                bad.append((m, t, br))
    checks.append(
        (
            "Tmt1 grid t=2..8 m=2..12 breaks within {mt+2}",
            "all within",
            "all within" if not bad else "violations: %r" % bad,
        )
    )
    deep = [(4, 9, 2), (5, 15, 3), (6, 17, 8), (7, 23, 16), (8, 27, 24)]
    for m, n_tail, want in deep:
        br = lc_breaks(indpoly_sst([2] * m + [1] * n_tail).coeffs)
        checks.append(
            ("SST:2^%d,1^%d break count" % (m, n_tail), str(want), str(len(br)))
        )
    return checks


def cmd_reproduce(args):
    checks = _reproduce_checks()
    rows = []
    passed = 0
    for name, expected, actual in checks:
        ok = expected == actual
        passed += ok
        rows.append({"name": name, "expected": expected, "actual": actual, "pass": ok})
        print(
            "%s %s expected=%s actual=%s" % ("PASS" if ok else "FAIL", name, expected, actual)
        )
    print("reproduce: %d/%d checks passed" % (passed, len(checks)))
    if args.json:
        summary = {"checks": rows, "all_pass": passed == len(checks)}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary))
            fh.write("\n")
    return EXIT_OK if passed == len(checks) else EXIT_MISMATCH


def _verify_checks(t_max, grid_max):
    """(name, params, ok) triples for the verification suite."""
    out = []

    def check(name, params, ok):
        out.append((name, params, bool(ok)))

    check("spider_closed_form_matches_engine", "t<=%d" % t_max, formulas.spider_matches_engine(t_max))
    check("spider_log_concavity_sweep", "t<=%d" % t_max, formulas.spider_lc_sweep(t_max))
    check(
        "binomial_gap_identity",
        "0<=k<=t<=%d" % t_max,
        all(formulas.binomial_gap_sweep(t) for t in range(0, t_max + 1)),
    )

    split_ok = True
    h_ok = True
    for m in range(1, grid_max + 1):
        for t in range(1, grid_max + 1):
            f = formulas.without_root_poly(m, t)
            h = formulas.with_root_poly(m, t)
            if (f + h) != indpoly_sst([m, t, 1]):
                split_ok = False
            if h.degree != m * t + 1 or h.coeff(m * t + 1) != 1 << (m * t):
                h_ok = False
    check("root_split_sum_equals_polynomial", "grid m,t<=%d" % grid_max, split_ok)
    check("with_root_tops_out_at_mt+1_with_2^mt", "grid m,t<=%d" % grid_max, h_ok)

    mt2_ok = all(
        formulas.without_root_mt2_closed(m, t)
        == formulas.without_root_poly(m, t).coeff(m * t + 2)
        for m in range(2, grid_max + 1)
        for t in range(2, grid_max + 1)
    )
    check("closed_form_count_at_mt+2", "grid 2<=m,t<=%d" % grid_max, mt2_ok)

    mt3_ok = all(
        formulas.without_root_poly(m, t).coeff(m * t + 3)
        >= formulas.without_root_mt3_lower(m, t)
        for m in range(3, grid_max + 1)
        for t in range(1, grid_max + 1)
    )
    check("lower_bound_at_mt+3", "grid 3<=m<=%d t<=%d" % (grid_max, grid_max), mt3_ok)

    impl_ok = True
    for m in range(1, grid_max + 1):
        for t in range(1, grid_max + 1):
            if formulas.break_sufficient(m, t):
                br = lc_breaks(indpoly_sst([m, t, 1]).coeffs)
                if m * t + 2 not in br:
                    impl_ok = False
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
        print("verify: bounds must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    results = _verify_checks(args.t_max, args.grid_max)
    for name, params, ok in results:
        print("%s %s %s" % ("PASS" if ok else "FAIL", name, params))
    all_ok = all(ok for _, _, ok in results)
    print("verify: %d/%d checks passed" % (sum(ok for _, _, ok in results), len(results)))
    if args.json:
        summary = {
            "checks": [
                {"name": n, "params": p, "pass": ok} for n, p, ok in results
            ],
            "all_pass": all_ok,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary))
            fh.write("\n")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_search(args):
    try:
        written = search.run_search(
            n_min=args.n_min,
            n_max=args.n_max,
            samples=args.samples,
            seed=args.seed,
            out_path=args.out,
            threads=args.threads,
        )
    except ValueError as exc:
        print("search: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    print("search: examined %d trees, wrote %d records to %s" % (args.samples, written, args.out))
    return EXIT_OK


def cmd_oracle(args):
    tree = _load_tree(args)
    if tree.n > ORACLE_MAX_VERTICES:
        print(
            "oracle: tree has %d vertices, limit is %d" % (tree.n, ORACLE_MAX_VERTICES),
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    p.set_defaults(func=cmd_poly, needs_tree=True)

    p = sub.add_parser("analyze", help="break/unimodality report (exit 3 on breaks)")
    _add_tree_input(p)
    p.add_argument("--json", metavar="FILE", help="also write the report as JSON")
    p.set_defaults(func=cmd_analyze, needs_tree=True)

    p = sub.add_parser("reproduce", help="run the fixed claim suite")
    p.add_argument("--json", metavar="FILE", help="write a JSON summary")
    p.set_defaults(func=cmd_reproduce, needs_tree=False)

    p = sub.add_parser("search", help="seeded random-tree counterexample search")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="FILE", required=True, help="JSONL output path")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="processes that examine trees: this one and THREADS - 1 spawned workers"
        " (default: machine parallelism)",
    )
    p.set_defaults(func=cmd_search, needs_tree=False)

    p = sub.add_parser("verify", help="run the formula verification suite")
    p.add_argument("--t-max", type=int, default=300)
    p.add_argument("--grid-max", type=int, default=8)
    p.add_argument("--json", metavar="FILE", help="write a JSON summary")
    p.set_defaults(func=cmd_verify, needs_tree=False)

    p = sub.add_parser("oracle", help="cross-check DP vs subset-sweep oracle")
    _add_tree_input(p)
    p.set_defaults(func=cmd_oracle, needs_tree=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.needs_tree:
        _check_tree_input(parser, args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("%s: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything else is a failure, never a mismatch
        print("%s: internal error: %r" % (args.command, exc), file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
