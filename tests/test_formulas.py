"""Closed forms and inequality audits against the polynomial engine."""

import pickle
import sys
from fractions import Fraction
from math import comb

import pytest

from indseqlab import formulas
from indseqlab.indpoly import indpoly_sst, indpoly_tree, root_split
from indseqlab.intpoly import IntPolynomial
from indseqlab.seqcheck import lc_breaks
from indseqlab.trees import tmt1


def P(*cs):
    return IntPolynomial(cs)


def test_spider_count_small():
    assert [formulas.spider_count(2, k) for k in range(4)] == [1, 5, 6, 1]
    assert [formulas.spider_count(1, k) for k in range(3)] == [1, 3, 1]
    for t in range(1, 61):
        assert formulas.spider_count(t, t + 1) == 1
        assert formulas.spider_count(t, 0) == 1
        assert formulas.spider_count(t, -1) == 0
        assert formulas.spider_count(t, t + 2) == 0
    with pytest.raises(ValueError):
        formulas.spider_count(0, 0)


def test_spider_closed_form_matches_engine():
    assert formulas.spider_matches_engine(120)


def test_spider_lc_sweep():
    assert formulas.spider_lc_sweep(120)
    with pytest.raises(ValueError):
        formulas.spider_lc_sweep(0)


def test_spider_lc_sweep_rejects_a_break(monkeypatch):
    # a break at the last interior index k = t must fail the sweep
    real = formulas._spider_counts

    def broken(t, row):
        seq = list(real(t, row))
        seq[t] = 1
        return tuple(seq)

    monkeypatch.setattr(formulas, "_spider_counts", broken)
    assert not formulas.spider_lc_sweep(5)


def test_spider_ratio_inequality_boundary():
    # k = t endpoint: 2^4 * 5 / 4 = 20 >= 2*3*0/2 = 0
    assert formulas.spider_ratio_inequality(4, 4)
    assert formulas.spider_ratio_inequality(4, 1)


def test_binomial_gap_identity():
    assert formulas.binomial_gap_identity(5, 0)
    assert formulas.binomial_gap_identity(10, 4)
    for t in range(0, 61):
        for k in range(0, t + 1):
            assert formulas.binomial_gap_identity(t, k)
    with pytest.raises(ValueError):
        formulas.binomial_gap_identity(3, 4)


def test_binomial_rows_match_math_comb():
    from indseqlab.intpoly import _binomial_row

    for n in range(0, 303):
        assert _binomial_row(n) == [comb(n, k) for k in range(n + 1)]


def test_binomial_gap_sweep_matches_cells():
    for t in range(0, 121):
        cells = all(formulas.binomial_gap_identity(t, k) for k in range(t + 1))
        assert formulas.binomial_gap_sweep(t) is cells is True
    with pytest.raises(ValueError):
        formulas.binomial_gap_sweep(-1)


REAL_ROWS = formulas._binomial_rows


def bumped_rows(t, k):
    """formulas._binomial_rows with C(t, k) one too large in the row of t,
    as a copy, so the rows built after it stay right."""

    def rows(t_max):
        for n, row in enumerate(REAL_ROWS(t_max)):
            if n == t:
                row = row[:]
                row[k] += 1
            yield row

    return rows


def test_binomial_gap_sweep_rejects_a_wrong_row(monkeypatch):
    # the sweep of one t, and the suite's gap check over the Pascal rows,
    # must each read every cell of the row
    real = formulas._binomial_row
    for t in (1, 2, 7, 30):
        for k in range(t + 1):
            def bumped(n, t=t, k=k):
                row = real(n)
                if n == t:
                    row[k] += 1
                return row

            monkeypatch.setattr(formulas, "_binomial_row", bumped)
            assert not formulas.binomial_gap_sweep(t), (t, k)
            monkeypatch.setattr(formulas, "_binomial_rows", bumped_rows(t, k))
            assert not formulas.spider_suite(t)[2], (t, k)
            monkeypatch.undo()
    assert formulas.binomial_gap_sweep(30) and formulas.spider_suite(30)[2]


def test_gap_checks_reject_a_scaled_row(monkeypatch):
    # c C(t, 0..t) satisfies the gap identity's homogeneous equations for
    # every c; the row's first cell, C(t, 0) = 1, tells it apart
    real = formulas._binomial_row
    for t in (0, 1, 2, 7, 30):
        def doubled(n, t=t):
            row = real(n)
            return [2 * c for c in row] if n == t else row

        def doubled_rows(t_max, t=t):
            for n, row in enumerate(REAL_ROWS(t_max)):
                yield [2 * c for c in row] if n == t else row

        monkeypatch.setattr(formulas, "_binomial_row", doubled)
        assert not formulas.binomial_gap_sweep(t), t
        monkeypatch.setattr(formulas, "_binomial_rows", doubled_rows)
        assert not formulas.spider_suite(max(t, 1))[2], t
        monkeypatch.undo()
    assert formulas.binomial_gap_sweep(30) and formulas.spider_suite(30)[2]


def test_pascal_rows_match_math_comb():
    rows = list(formulas._binomial_rows(302))
    assert rows == [[comb(n, k) for k in range(n + 1)] for n in range(303)]


def test_spider_suite_is_the_three_sweeps():
    for t_max in (1, 2, 5, 40, 120):
        gaps = all(formulas.binomial_gap_sweep(t) for t in range(t_max + 1))
        want = (formulas.spider_matches_engine(t_max), formulas.spider_lc_sweep(t_max), gaps)
        assert formulas.spider_suite(t_max) == want == (True, True, True)
    with pytest.raises(ValueError):
        formulas.spider_suite(0)


def test_spider_suite_wrong_row_at_the_source(monkeypatch):
    # one wrong cell in the row of t = 7: the gap identity fails, and so
    # does the engine check, since the closed-form counts are read from the
    # same row; the bumped counts stay log-concave
    monkeypatch.setattr(formulas, "_binomial_rows", bumped_rows(7, 3))
    assert formulas.spider_suite(30) == (False, True, False)


@pytest.mark.parametrize("at", [1, 7, 30])
def test_spider_suite_faults_fail_only_their_own_check(monkeypatch, at):
    # each fault is put in at t = `at` of 30, where only one check reads
    # it; the other two checks still pass over every t
    real_gap, real_lc, real_sst = formulas._gap_holds, formulas._spider_log_concave, formulas.indpoly_sst

    def wrong_row(row):
        if len(row) == at + 1:
            row = row[:]
            row[at // 2] += 1
        return real_gap(row)

    def broken_counts(t, counts):
        if t == at:  # a last entry past counts[t]^2 breaks at k = t
            counts = counts[:-1] + (counts[t] ** 2 + 1,)
        return real_lc(t, counts)

    def engine_off_by_one(counts):
        poly = real_sst(counts)
        if counts == [at, 1]:
            poly = poly + IntPolynomial([0, 0, 1])
        return poly

    for name, fault, want in (
        ("_gap_holds", wrong_row, (True, True, False)),
        ("_spider_log_concave", broken_counts, (True, False, True)),
        ("indpoly_sst", engine_off_by_one, (False, True, True)),
    ):
        monkeypatch.setattr(formulas, name, fault)
        assert formulas.spider_suite(30) == want, name
        monkeypatch.undo()
    assert formulas.spider_suite(30) == (True, True, True)


def test_spider_sequence_matches_cells():
    for t in range(1, 121):
        want = [formulas.spider_count(t, k) for k in range(t + 2)]
        assert list(formulas.spider_sequence(t).coeffs) == want
    with pytest.raises(ValueError):
        formulas.spider_sequence(0)


def test_with_root_poly():
    assert formulas.with_root_poly(1, 1) == P(0, 1, 2)
    h = formulas.with_root_poly(2, 2)
    assert h.coeff(5) == 16
    assert h.degree == 5
    for m in range(1, 7):
        for t in range(1, 7):
            assert formulas.with_root_poly(m, t) == root_split(tmt1(m, t), 0).with_root


def test_without_root_poly():
    assert formulas.without_root_poly(1, 2) == P(1, 5, 6, 1)
    f22 = formulas.without_root_poly(2, 2)
    assert f22 == P(1, 5, 6, 1) * P(1, 5, 6, 1)
    assert f22.coeff(6) == 1
    for m in range(1, 7):
        for t in range(1, 7):
            assert formulas.without_root_poly(m, t) == root_split(tmt1(m, t), 0).without_root


def test_split_reassembles_polynomial():
    for m in range(1, 9):
        for t in range(1, 9):
            total = formulas.without_root_poly(m, t) + formulas.with_root_poly(m, t)
            assert total == indpoly_sst([m, t, 1])


def test_mt2_closed_form():
    assert formulas.without_root_mt2_closed(2, 2) == 1
    f53 = formulas.without_root_poly(5, 3)
    assert formulas.without_root_mt2_closed(5, 3) == f53.coeff(17)
    for m in range(2, 7):
        for t in range(2, 7):
            want = formulas.without_root_poly(m, t).coeff(m * t + 2)
            assert formulas.without_root_mt2_closed(m, t) == want
    with pytest.raises(ValueError):
        formulas.without_root_mt2_closed(1, 3)


def test_mt3_lower_bound():
    assert formulas.without_root_mt3_lower(3, 1) == 1
    assert formulas.without_root_mt3_lower(4, 4) == 4 * 2**4
    assert formulas.without_root_poly(4, 4).coeff(19) >= 64
    for m in range(3, 7):
        for t in range(1, 7):
            got = formulas.without_root_poly(m, t).coeff(m * t + 3)
            assert got >= formulas.without_root_mt3_lower(m, t)
    with pytest.raises(ValueError):
        formulas.without_root_mt3_lower(2, 5)


def test_break_sufficient():
    # degree of the avoiding-the-root polynomial is m(t+1), so at (2,2)
    # the mt+3 coefficient is zero and the condition must be false
    assert formulas.break_sufficient(2, 2) is False
    for m in range(1, 9):
        for t in range(1, 9):
            if formulas.break_sufficient(m, t):
                br = lc_breaks(indpoly_sst([m, t, 1]).coeffs)
                assert m * t + 2 in br


def test_break_sufficient_fires_somewhere():
    fired = [
        (m, t)
        for m in range(1, 11)
        for t in range(1, 11)
        if formulas.break_sufficient(m, t)
    ]
    assert fired  # the condition is not vacuous on the grid


def test_audit_rejects_small_parameters():
    with pytest.raises(ValueError):
        formulas.audit_term_ratios(2, 10)
    with pytest.raises(ValueError):
        formulas.audit_term_ratios(5, 1)


def test_audit_regime_boundary():
    audit = formulas.audit_term_ratios(32, 80)
    assert audit.regime_ok  # 32^16 == 2^80 exactly
    assert not audit.t_le_m
    assert audit.all_steps_ok and audit.all_final_ok
    assert audit.max_ratio < Fraction(1, 32)
    assert audit.total_ratio < Fraction(1, 16)
    # rows enumerate every (s, l) with 0 <= l <= min(s-2, (m-s) t)
    assert len(audit.rows) == sum(min(s - 2, (32 - s) * 80) + 1 for s in range(3, 33))
    # m = 32 is a power of two, so the bound exponent is exact:
    # 5 s log2(32) - s*80/3 = -5s/3
    for row in audit.rows:
        assert row.bound_log2 == Fraction(-5 * row.s, 3)
        assert row.ratio > 0


def test_audit_inside_t_le_m_but_outside_regime():
    audit = formulas.audit_term_ratios(16, 16)
    assert audit.t_le_m
    assert not audit.regime_ok
    assert audit.all_steps_ok
    # the exponent 5s*4 - 16s/3 is positive, so the final bound is weak
    # but still true
    assert audit.all_final_ok
    assert all(row.bound_log2 > 0 for row in audit.rows)


def test_audit_step_boundary_is_tight():
    # at s=3, l=0 the lower bound (s-2)t + l >= st/3 holds with equality
    audit = formulas.audit_term_ratios(8, 4)
    row = next(r for r in audit.rows if r.s == 3 and r.ell == 0)
    assert 3 * ((row.s - 2) * 4 + row.ell) == row.s * 4
    assert row.steps_ok


def test_audit_non_power_of_two_has_no_log_field():
    audit = formulas.audit_term_ratios(6, 5)
    assert all(r.bound_log2 is None for r in audit.rows)
    assert audit.all_steps_ok  # per-step bounds never need the log form


def test_audit_dominant_term_matches_closed_form():
    # the closed-form count equals dominant * (1 + total_ratio)
    for m, t in [(4, 3), (6, 4), (8, 5)]:
        audit = formulas.audit_term_ratios(m, t)
        dominant = comb(m, 2) * (1 << (m * t - 2 * t))
        total = dominant * (1 + audit.total_ratio)
        assert total == formulas.without_root_mt2_closed(m, t)
        assert total.denominator == 1


def test_audit_total_ratio_sums_the_rows():
    for m, t in [(3, 2), (16, 16), (32, 80)]:
        audit = formulas.audit_term_ratios(m, t)
        assert audit.total_ratio == sum(r.ratio for r in audit.rows)


def test_audit_final_bound_is_tight():
    # m = 3 has the one row s = 3, l = 0 with binoms = 3t and e = t, so the
    # final bound (3t)^3 2^{3t} <= 3^45 2^{3t} holds exactly while t <= 3^14
    for t, holds in ((3**14, True), (3**14 + 1, False)):
        audit = formulas.audit_term_ratios(3, t)
        assert [(r.s, r.ell) for r in audit.rows] == [(3, 0)]
        assert audit.all_steps_ok
        assert audit.all_final_ok is audit.rows[0].final_ok is holds


def test_audit_rows_match_the_fraction_reference():
    # each row against the bounds written out with Fractions and fresh
    # binomials, m powers of two or not
    for m, t in [(3, 2), (5, 3), (6, 5), (12, 7), (16, 16)]:
        audit = formulas.audit_term_ratios(m, t)
        cells = [(s, ell) for s in range(3, m + 1) for ell in range(min(s - 2, (m - s) * t) + 1)]
        assert [(r.s, r.ell) for r in audit.rows] == cells
        for row in audit.rows:
            s, ell = row.s, row.ell
            free = m * t - s * t
            binoms = comb(m, s) * comb(free, ell) * comb(s * t, (s - 2) - ell)
            term = binoms * 2 ** (free - ell)
            assert row.term == term
            assert row.ratio == Fraction(term, comb(m, 2) << (m * t - 2 * t))
            plain = Fraction(binoms, 2 ** ((s - 2) * t + ell))
            assert row.final_ok == (plain**3 * 2 ** (s * t) <= Fraction(m) ** (15 * s))
            assert row.steps_ok == (
                comb(m, s) <= m**s
                and comb(free, ell) <= (m * t) ** s
                and comb(s * t, (s - 2) - ell) <= (s * t) ** s
                and 3 * ((s - 2) * t + ell) >= s * t
            )


def test_audit_in_the_papers_full_regime():
    # (128, 112) is the smallest power-of-two pair with t <= m <= 2^{t/16}
    audit = formulas.audit_term_ratios(128, 112)
    assert len(audit.rows) == 7988
    assert audit.t_le_m and audit.regime_ok
    assert all(r.steps_ok and r.final_ok for r in audit.rows)
    assert audit.max_ratio < Fraction(1, 32)


def test_audit_repr_past_the_int_str_digit_limit():
    # the terms of (32, 80) reach about 720 digits, past a lowered limit of
    # 640 at which repr() of such an int raises; the audit's repr does not
    audit = formulas.audit_term_ratios(32, 80)
    want = repr(audit)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            repr(max(r.term for r in audit.rows))
        assert repr(audit) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_audit_pickles_fractions_as_int_pairs():
    # Python 3.10 pickles a Fraction through str(), past the digit limit for
    # the ratios of (32, 80); the audit and its rows store int pairs instead
    # (test_cli checks the round trip under every other Python found)
    audit = formulas.audit_term_ratios(32, 80)
    assert max(r.ratio.denominator for r in audit.rows) > 10**640
    for obj in (audit, audit.rows[-1]):
        rebuild, args = obj.__reduce__()
        assert not any(isinstance(value, Fraction) for value in args[1])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert pickle.loads(pickle.dumps(audit)) == audit
    finally:
        sys.set_int_max_str_digits(limit)


def test_generic_dp_agrees_with_closed_forms():
    tree = tmt1(5, 4)
    p = indpoly_tree(tree)
    assert p == formulas.without_root_poly(5, 4) + formulas.with_root_poly(5, 4)
