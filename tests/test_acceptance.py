"""Acceptance suite: one test per numbered criterion, every tolerance exact.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
as they happen).  Expected runtimes from the build contract are printed
for reference, never asserted; all value comparisons are exact integer or
exact rational arithmetic.
"""

import hashlib
import itertools
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from indseqlab import formulas
from indseqlab.indpoly import indpoly_oracle, indpoly_sst, indpoly_tree
from indseqlab.rng import derive_seed
from indseqlab.seqcheck import lc_breaks, tail_monotone, tail_start
from indseqlab.trees import (
    independence_number,
    prufer_decode,
    random_tree,
    sst,
    tmt1,
    tree_from_edges,
)

DEEP_TREES = ((4, 9, 2), (5, 15, 3), (6, 17, 8), (7, 23, 16), (8, 27, 24))


def _report(name, ok, detail, started):
    line = "ACCEPTANCE %s: %s (%s, %.1fs)" % (
        name,
        "PASS" if ok else "FAIL",
        detail,
        time.time() - started,
    )
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def deep_poly(m, n_tail):
    return indpoly_sst([2] * m + [1] * n_tail)


def check_sequence_invariants(tree, poly):
    """Criterion-10 invariants for one tree/polynomial pair; returns the
    number of violations (0 expected)."""
    cs = poly.coeffs
    bad = 0
    bad += cs[0] != 1
    bad += poly.coeff(1) != tree.n
    bad += poly.degree != independence_number(tree)
    bad += any(c <= 0 for c in cs)
    bad += not tail_monotone(cs, len(cs) - 1)
    return bad


# -- criterion 1: oracle equivalence ------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.time()
    mismatches = 0
    invariant_violations = 0
    trees_checked = 0
    for n in (6, 7, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            tree = tree_from_edges(n, prufer_decode(seq, n))
            p = indpoly_tree(tree)
            if p != indpoly_oracle(tree):
                mismatches += 1
            invariant_violations += check_sequence_invariants(tree, p)
            trees_checked += 1
    for n in range(9, 21):
        for i in range(500):
            tree = random_tree(n, derive_seed(1000 + n, i))
            p = indpoly_tree(tree)
            if p != indpoly_oracle(tree):
                mismatches += 1
            invariant_violations += check_sequence_invariants(tree, p)
            trees_checked += 1
    _report(
        "criterion-1",
        mismatches == 0 and invariant_violations == 0,
        "DP == oracle on %d trees (exhaustive n=6,7,8 + 500 random each n=9..20), "
        "expected < 3 min" % trees_checked,
        started,
    )


# -- criterion 2: spider lemma suite ------------------------------------------


def test_criterion_2_spider_suite():
    started = time.time()
    ok_engine = formulas.spider_matches_engine(300)
    ok_break = all(
        lc_breaks([formulas.spider_count(t, k) for k in range(t + 2)]) == []
        for t in range(1, 301)
    )
    ok_sweep = formulas.spider_lc_sweep(300)
    ok_binom = all(
        formulas.binomial_gap_identity(t, k)
        for t in range(0, 301)
        for k in range(0, t + 1)
    )
    _report(
        "criterion-2",
        ok_engine and ok_break and ok_sweep and ok_binom,
        "spider closed form == engine, no breaks, pointwise inequalities, "
        "binomial identity, all t <= 300, expected < 30 s",
        started,
    )


# -- criterion 3: breaks of the square family ---------------------------------


def test_criterion_3_square_family_breaks():
    started = time.time()
    ok = True
    for t in range(1, 9):
        breaks = lc_breaks(indpoly_sst([t, t, 1]).coeffs)
        want = [] if t <= 3 else [t * t + 2]
        ok = ok and breaks == want
    _report(
        "criterion-3",
        ok,
        "tmt1(t,t) breaks == [t^2+2] for t=4..8 and == [] for t=1..3, "
        "expected < 1 min",
        started,
    )


# -- criterion 4: single-break property ---------------------------------------


def test_criterion_4_single_break_grid():
    started = time.time()
    violations = []
    for t in range(2, 9):
        for m in range(2, 13):
            breaks = lc_breaks(indpoly_sst([m, t, 1]).coeffs)
            if any(k != m * t + 2 for k in breaks):
                violations.append((m, t, breaks))
    _report(
        "criterion-4",
        not violations,
        "tmt1 grid 2<=t<=8, 2<=m<=12: breaks subset of {mt+2}, expected < 5 min",
        started,
    )


# -- criterion 5: deep binary trees, via the level fast path -------------------


@pytest.mark.parametrize("m,n_tail,expected", DEEP_TREES)
def test_criterion_5_deep_tree_break_counts(m, n_tail, expected):
    started = time.time()
    breaks = lc_breaks(deep_poly(m, n_tail).coeffs)
    _report(
        "criterion-5 T(2^%d 1^%d)" % (m, n_tail),
        len(breaks) == expected,
        "expected %d break places, computed %d, expected < 10 min total"
        % (expected, len(breaks)),
        started,
    )


def test_deep_tree_polynomial_pinned():
    # SHA-256 of every coefficient of T(2^8 1^27) in 646 little-endian
    # bytes, recorded before the four-point kernel: the break counts above
    # see only where the sequence bends, this sees every digit
    cs = deep_poly(8, 27).coeffs
    assert (len(cs), max(cs).bit_length()) == (3755, 5162)
    digest = hashlib.sha256(b"".join(c.to_bytes(646, "little") for c in cs)).hexdigest()
    assert digest == "83fff541a213f336c6189d7cc31ab32c3c3b1f961cdfa1d083895fda7a484686"


# -- criterion 6: split decomposition ------------------------------------------


def test_criterion_6_split_decomposition():
    started = time.time()
    ok = True
    for m in range(1, 9):
        for t in range(1, 9):
            f = formulas.without_root_poly(m, t)
            h = formulas.with_root_poly(m, t)
            k = m * t
            ok = ok and (f + h) == indpoly_sst([m, t, 1])
            ok = ok and h.degree == k + 1  # vanishes beyond mt+1
            ok = ok and h.coeff(k + 1) == 1 << k
    _report(
        "criterion-6",
        ok,
        "grid m,t <= 8: polynomial == avoiding + containing the root, "
        "containing side tops out at mt+1 with 2^mt, expected < 2 min",
        started,
    )


# -- criterion 7: closed forms vs engine ---------------------------------------


def test_criterion_7_closed_forms():
    started = time.time()
    ok_mt2 = all(
        formulas.without_root_mt2_closed(m, t)
        == formulas.without_root_poly(m, t).coeff(m * t + 2)
        for m in range(2, 11)
        for t in range(2, 11)
    )
    ok_mt3 = all(
        formulas.without_root_poly(m, t).coeff(m * t + 3)
        >= formulas.without_root_mt3_lower(m, t)
        for m in range(3, 11)
        for t in range(2, 11)
    )
    ok_impl = True
    for m in range(1, 11):
        for t in range(1, 11):
            if formulas.break_sufficient(m, t):
                if m * t + 2 not in lc_breaks(indpoly_sst([m, t, 1]).coeffs):
                    ok_impl = False
    _report(
        "criterion-7",
        ok_mt2 and ok_mt3 and ok_impl,
        "term sum == engine at mt+2 and lower bound at mt+3 on the 10-grid; "
        "sufficient condition always implies a break at mt+2, expected < 2 min",
        started,
    )


# -- criterion 8: term-ratio audit at the regime boundary ----------------------


def test_criterion_8_ratio_audit():
    started = time.time()
    audit = formulas.audit_term_ratios(32, 80)
    ok = (
        audit.all_steps_ok
        and audit.all_final_ok
        and audit.max_ratio < Fraction(1, 32)
        and audit.regime_ok
    )
    _report(
        "criterion-8",
        ok,
        "audit(32, 80): every per-step bound holds and max ratio %.3e < 2^-5, "
        "expected < 1 min" % float(audit.max_ratio),
        started,
    )


# -- criterion 9: the asymptotic-scale check is out of desk range --------------


def test_criterion_9_asymptotic_scale_documented():
    started = time.time()
    # the smallest parameter pair satisfying both t <= m and m = 2^{t/16}
    # exactly is t=128, m=256; the resulting instance is far beyond the
    # desk budget, so criteria 4 and 6-8 stand in for it at finite sizes
    t, m = 128, 256
    assert m == 2 ** (t // 16) and t <= m
    degree = (1 + t) * m
    # the containing-the-root side alone contributes 2^{mt} at index mt+1
    coeff_bits = m * t + 1
    ok = degree == 33024 and degree > 10_000 and coeff_bits > 30_000
    _report(
        "criterion-9",
        ok,
        "not reproducible at desk scale: smallest honest instance has degree "
        "%d with >= %d-bit coefficients; covered by criteria 4 and 6-8"
        % (degree, coeff_bits),
        started,
    )


# -- criterion 10: global sequence invariants ----------------------------------


def test_criterion_10_global_invariants():
    started = time.time()
    violations = 0
    checked = 0
    # family grids from criteria 3, 4, 6, 7
    pairs = {(m, t) for m in range(1, 13) for t in range(1, 9)}
    pairs |= {(m, t) for m in range(1, 11) for t in range(1, 11)}
    for m, t in sorted(pairs):
        tree = tmt1(m, t)
        violations += check_sequence_invariants(tree, indpoly_sst([m, t, 1]))
        checked += 1
    # the deep binary trees from criterion 5
    for m, n_tail, _ in DEEP_TREES:
        tree = sst([2] * m + [1] * n_tail)
        violations += check_sequence_invariants(tree, deep_poly(m, n_tail))
        checked += 1
    # exhaustive small trees and a random slice of the criterion-1 corpus
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            tree = tree_from_edges(n, prufer_decode(seq, n))
            violations += check_sequence_invariants(tree, indpoly_tree(tree))
            checked += 1
    for n in range(8, 17):
        for i in range(200):
            tree = random_tree(n, derive_seed(2000 + n, i))
            violations += check_sequence_invariants(tree, indpoly_tree(tree))
            checked += 1
    _report(
        "criterion-10",
        violations == 0,
        "i_0=1, i_1=n, deg=alpha, positive coefficients, decreasing tail from "
        "ceil((2a-1)/3) on %d trees, zero violations required" % checked,
        started,
    )


# -- criterion 11: determinism of the command-line surface ---------------------


def _run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "indseqlab.cli"] + argv,
        capture_output=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    ok = True

    runs = [_run(["reproduce"]) for _ in range(2)]
    ok = ok and runs[0] == runs[1] and runs[0][1]

    runs = [_run(["verify", "--t-max", "120", "--grid-max", "6"]) for _ in range(2)]
    ok = ok and runs[0] == runs[1] and runs[0][0] == 0

    outputs = []
    for threads in ("1", "2", "8", "2"):
        out = tmp_path / ("s%s.jsonl" % threads)
        code, stdout, _ = _run(
            ["search", "--n-min", "24", "--n-max", "27", "--samples", "40",
             "--seed", "31337", "--out", str(out), "--threads", threads]
        )
        ok = ok and code == 0
        outputs.append((out.read_bytes(), stdout.replace(str(out).encode(), b"OUT")))
    ok = ok and len({o for o in outputs}) == 1

    # nonempty record streams are thread-count-invariant too (library hook)
    from indseqlab.search import run_search

    blobs = []
    for threads in (1, 2, 8):
        path = tmp_path / ("all%d.jsonl" % threads)
        run_search(9, 13, 50, 7, path, threads=threads, emit_all=True)
        blobs.append(path.read_bytes())
    ok = ok and blobs[0] == blobs[1] == blobs[2] and blobs[0]

    _report(
        "criterion-11",
        bool(ok),
        "reproduce, verify, search byte-identical across repeat runs and "
        "thread counts 1/2/8, expected < 5 min",
        started,
    )
