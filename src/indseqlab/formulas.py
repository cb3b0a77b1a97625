"""Closed forms and inequality audits for the three-level family and spiders.

The three-level family tmt1(m, t) splits at its root: deleting the root
and its neighbors leaves a perfect matching on mt edges, so the sets
containing the root are counted by x(1+2x)^{mt}; the sets avoiding it
live in m disjoint spiders with t legs of length 2.  Everything here is
exact.  The spider checks read their binomials from rows C(t, 0..t): the
checks over t = 0..t_max walk the rows, each built from the one before by
Pascal's rule, and a check of one t builds its row alone (intpoly's
_binomial_row).  spider_suite makes all three checks over t in one pass;
each public check is the same per-row checks on the same rows.  Single
cells and the term-ratio audit use math.comb.  Every bound is an integer
comparison; fractions.Fraction appears only in the ratios the audit
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb
from operator import add, lshift, mul, sub

from .indpoly import indpoly_sst
from .intpoly import IntPolynomial, _binomial_row, int_repr, int_to_str, poly_pow
from .seqcheck import lc_breaks


def _c(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# -- spiders ------------------------------------------------------------------


def spider_count(t: int, k: int) -> int:
    """Number of independent sets of size k in the spider with t legs of
    length 2: C(t, k-1) sets containing the center (the rest comes from
    the t far leaves) plus 2^k C(t, k) sets avoiding it (k of the t legs
    contribute one of their 2 free vertices each)."""
    if t < 1:
        raise ValueError("spider needs t >= 1")
    if k < 0 or k > t + 1:
        return 0
    return _c(t, k - 1) + (1 << k) * _c(t, k)


def _binomial_rows(t_max):
    """C(t, 0..t) for t = 0..t_max, each row built from the one before by
    Pascal's rule C(t+1, k) = C(t, k-1) + C(t, k)."""
    row = [1]
    yield row
    for _ in range(t_max):
        row = [1, *map(add, row, row[1:]), 1]
        yield row


# -- per-row checks: each reads the binomial row C(t, 0..t) it is given


def _spider_counts(t, row):
    """(spider_count(t, k) for k in 0..t+1), from row = C(t, 0..t)."""
    return tuple(map(add, [0, *row], map(lshift, [*row, 0], range(t + 2))))


def _engine_agrees(t, counts):
    """The closed-form counts equal the engine's coefficients for t."""
    return counts == indpoly_sst([t, 1]).coeffs


def _ratios_hold(t, ks):
    """spider_ratio_inequality(t, k) for every k in ks."""
    return all((t + 1) * (t - k + 2) << k >= 2 * k * (k - 1) * (t - k) for k in ks)


def _spider_log_concave(t, counts):
    """The spider counts of t have no log-concavity break, and the reduced
    ratio inequality holds at each 1 <= k <= t."""
    return not lc_breaks(counts) and _ratios_hold(t, range(1, t + 1))


def _gap_holds(row):
    """binomial_gap_identity(t, k) for every 0 <= k <= t, from row =
    C(t, 0..t).  With C(t+1, k) = C(t, k) + C(t, k-1), the identity holds
    with an exact division iff (k + 1) (C(t,k)^2 - C(t,k-1) C(t,k+1)) ==
    C(t,k) (C(t,k) + C(t,k-1)), one integer comparison per k.  Both
    sides are homogeneous of degree 2 in the row, so c C(t, 0..t) passes
    them for every c: the row must also start at C(t, 0) = 1."""
    below = [0, *row]  # below[k] = C(t, k-1)
    gaps = map(sub, map(mul, row, row), map(mul, below, [*row[1:], 0]))
    return row[0] == 1 and list(map(mul, gaps, range(1, len(row) + 1))) == list(map(mul, row, map(add, row, below)))


# -- the checks over t, public; spider_suite makes all three in one pass


def spider_sequence(t: int) -> IntPolynomial:
    """The full independence sequence of the 2-leg-length spider, from the
    closed form (not the polynomial engine)."""
    if t < 1:
        raise ValueError("spider needs t >= 1")
    return IntPolynomial(_spider_counts(t, _binomial_row(t)))


def spider_engine_poly(t: int) -> IntPolynomial:
    """The same sequence from the polynomial engine's level fast path."""
    return indpoly_sst([t, 1])


def spider_matches_engine(t_max: int) -> bool:
    """Closed form == engine for every t <= t_max."""
    return all(
        _engine_agrees(t, _spider_counts(t, row))
        for t, row in enumerate(_binomial_rows(t_max))
        if t
    )


def binomial_gap_identity(t: int, k: int) -> bool:
    """Exact identity used to reduce the spider log-concavity inequality:

        C(t,k)^2 - C(t,k-1) C(t,k+1) == C(t,k) C(t+1,k) / (k+1)

    The division is exact; this verifies both exactness and equality.
    """
    if not 0 <= k <= t:
        raise ValueError("need 0 <= k <= t")
    lhs = _c(t, k) ** 2 - _c(t, k - 1) * _c(t, k + 1)
    prod = _c(t, k) * _c(t + 1, k)
    q, r = divmod(prod, k + 1)
    return r == 0 and lhs == q


def binomial_gap_sweep(t: int) -> bool:
    """binomial_gap_identity(t, k) for every 0 <= k <= t at once, reading
    the binomials from the row of t."""
    if t < 0:
        raise ValueError("need t >= 0")
    return _gap_holds(_binomial_row(t))


def spider_ratio_inequality(t: int, k: int) -> bool:
    """The reduced inequality behind spider log-concavity, cross-multiplied
    to integers: 2^k (t+1) / k >= 2 (k-1)(t-k) / (t-k+2), for 1 <= k <= t."""
    if not 1 <= k <= t:
        raise ValueError("need 1 <= k <= t")
    return _ratios_hold(t, (k,))


def spider_lc_sweep(t_max: int) -> bool:
    """For every t <= t_max: the closed-form spider sequence has no
    log-concavity breaks (its squared middle term is at least the product
    of its neighbours at each interior k), and the reduced ratio inequality
    holds at each k."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return all(
        _spider_log_concave(t, _spider_counts(t, row))
        for t, row in enumerate(_binomial_rows(t_max))
        if t
    )


def spider_suite(t_max: int) -> tuple:
    """(spider_matches_engine(t_max), spider_lc_sweep(t_max),
    binomial_gap_sweep(t) for every 0 <= t <= t_max) in one pass over
    t = 0..t_max: each binomial row is built once, from the row before,
    and the closed-form counts once from it.  The engine computes its own
    polynomial for each t.  A check that has failed is not made again;
    the other two go on."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    engine_ok = lc_ok = gap_ok = True
    for t, row in enumerate(_binomial_rows(t_max)):
        gap_ok = gap_ok and _gap_holds(row)
        if t:
            counts = _spider_counts(t, row)
            engine_ok = engine_ok and _engine_agrees(t, counts)
            lc_ok = lc_ok and _spider_log_concave(t, counts)
    return engine_ok, lc_ok, gap_ok


# -- the three-level family ---------------------------------------------------


def with_root_poly(m: int, t: int) -> IntPolynomial:
    """Counts of independent sets in tmt1(m, t) that contain the root:
    x (1 + 2x)^{mt}.  Vanishes beyond mt+1, with 2^{mt} at mt+1."""
    if m < 1 or t < 1:
        raise ValueError("need m >= 1 and t >= 1")
    return IntPolynomial([0, 1]) * poly_pow(IntPolynomial([1, 2]), m * t)


def without_root_poly(m: int, t: int) -> IntPolynomial:
    """Counts of independent sets in tmt1(m, t) that avoid the root: the
    polynomial of m disjoint spiders, i.e. the spider polynomial to the
    m-th power."""
    if m < 1 or t < 1:
        raise ValueError("need m >= 1 and t >= 1")
    return poly_pow(spider_engine_poly(t), m)


def without_root_mt2_closed(m: int, t: int) -> int:
    """Closed-form count of the size-(mt+2) independent sets avoiding the
    root, enumerated by the number s of depth-1 vertices used:

        C(m,2) 2^{mt-2t}
      + sum over 3 <= s <= m, 0 <= l <= min(s-2, mt-st) of
            C(m,s) C(mt-st, l) C(st, (s-2)-l) 2^{mt-st-l}

    (s < 2 contributes nothing: such sets top out at size mt+1.)
    Must equal without_root_poly(m, t) at index mt+2.
    """
    if m < 2 or t < 1:
        raise ValueError("need m >= 2 and t >= 1")
    total = comb(m, 2) * (1 << (m * t - 2 * t))
    return total + sum((a * b * c) << (free - ell) for _, ell, free, a, b, c in _mt2_cells(m, t))


def _mt2_cells(m: int, t: int):
    """The s >= 3 cells of the size-(mt+2) enumeration: for each (s, l),
    yields s, l, free = mt - st and the three binomials C(m,s), C(free,l)
    and C(st,(s-2)-l) whose product times 2^{free-l} is the cell's count."""
    for s in range(3, m + 1):
        free = m * t - s * t  # independent edges under the m-s unchosen vertices
        for ell in range(0, min(s - 2, free) + 1):
            yield s, ell, free, comb(m, s), comb(free, ell), comb(s * t, (s - 2) - ell)


def without_root_mt3_lower(m: int, t: int) -> int:
    """Lower bound C(m,3) 2^{mt-3t} on the size-(mt+3) count avoiding the
    root (choose 3 depth-1 vertices, then any transversal of the remaining
    mt-3t matching edges)."""
    if m < 3:
        raise ValueError("need m >= 3")
    if t < 1:
        raise ValueError("need t >= 1")
    return comb(m, 3) * (1 << (m * t - 3 * t))


def break_sufficient(m: int, t: int) -> bool:
    """Sufficient condition for a log-concavity break at mt+2 in the
    three-level family: with f the avoiding-the-root counts,

        f(mt+2)^2 < 2^{mt} f(mt+3).

    When true, the full sequence breaks at mt+2, because the sequence
    equals f beyond mt+1 while the value at mt+1 gains the extra 2^{mt}
    sets that contain the root.
    """
    f = without_root_poly(m, t)
    k = m * t
    return f.coeff(k + 2) ** 2 < (1 << k) * f.coeff(k + 3)


# -- term-ratio audit for the dominance argument ------------------------------


def _audit_repr(self):
    """The dataclass repr, each int, bare or in a tuple, and each Fraction
    written through int_to_str: repr() refuses ints past the int/str digit
    limit, and the terms and ratios of a paper-scale audit pass it."""

    def shown(value):
        if isinstance(value, Fraction):
            return "Fraction(%s, %s)" % (int_to_str(value.numerator), int_to_str(value.denominator))
        return int_repr(value)

    values = ("%s=%s" % (f.name, shown(getattr(self, f.name))) for f in fields(self))
    return "%s(%s)" % (type(self).__qualname__, ", ".join(values))


def _audit_reduce(self):
    """Pickle each Fraction as its (numerator, denominator) ints: Python
    3.10 pickles a Fraction through str(), which refuses a paper-scale
    audit's ratios past the int/str digit limit."""
    values = [getattr(self, f.name) for f in fields(self)]
    fractions = tuple(i for i, value in enumerate(values) if isinstance(value, Fraction))
    for i in fractions:
        values[i] = values[i].numerator, values[i].denominator
    return _audit_rebuild, (type(self), tuple(values), fractions)


def _audit_rebuild(cls, values, fractions):
    values = list(values)
    for i in fractions:
        values[i] = Fraction(*values[i])
    return cls(*values)


@dataclass(frozen=True)
class RatioRow:
    """One (s, l) term of the size-(mt+2) enumeration, compared against the
    dominant C(m,2) 2^{mt-2t} term.

    term       exact integer contribution of the (s, l) cell
    ratio      term / (C(m,2) 2^{mt-2t}), exact rational
    bound_log2 5 s log2(m) - s t / 3 as an exact rational when m is a
               power of two, else None (the bound check itself never
               needs logarithms)
    steps_ok   all four intermediate bounds hold for this cell
    final_ok   the cell's plain ratio (no C(m,2)) is at most 2^bound_log2
    Both verdicts are integer comparisons; ratio and bound_log2 are the
    only Fractions, built for the report.
    """

    s: int
    ell: int
    term: int
    ratio: Fraction
    bound_log2: Fraction | None
    steps_ok: bool
    final_ok: bool

    __repr__ = _audit_repr
    __reduce__ = _audit_reduce


@dataclass(frozen=True)
class RatioAudit:
    """All rows plus the run's verdicts and regime bookkeeping."""

    m: int
    t: int
    rows: tuple
    max_ratio: Fraction
    total_ratio: Fraction
    all_steps_ok: bool
    all_final_ok: bool
    t_le_m: bool
    regime_ok: bool  # m <= 2^{t/16}, checked exactly as m^16 <= 2^t

    __repr__ = _audit_repr
    __reduce__ = _audit_reduce


def audit_term_ratios(m: int, t: int) -> RatioAudit:
    """Audit every (s, l) term of the size-(mt+2) enumeration against the
    bound chain that shows the C(m,2) 2^{mt-2t} term dominates.

    Per row, the four intermediate bounds:

        C(m,s) <= m^s
        C(mt-st, l) <= (mt)^s        (uses l <= s)
        C(st, (s-2)-l) <= (st)^s
        (s-2) t + l >= s t / 3       (uses s >= 3)

    and the final bound on the plain ratio, with e = (s-2) t + l,
    C(m,s) C(mt-st,l) C(st,(s-2)-l) / 2^e <= 2^{5 s log2(m) - st/3},
    cubed and cross-multiplied to one integer comparison (no logarithms,
    no floats, no Fractions).  Each row's ratio is built from the small
    binomials as binoms / (C(m,2) 2^e).  The summary records whether the
    dominance hypotheses t <= m and m <= 2^{t/16} hold; the per-row bounds
    are checked regardless.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    if t < 2:
        raise ValueError("need t >= 2")
    log2m = Fraction(m.bit_length() - 1) if m & (m - 1) == 0 else None
    pairs = comb(m, 2)
    rows = []
    for s, ell, free, c_m, c_free, c_st in _mt2_cells(m, t):
        binoms = c_m * c_free * c_st
        e = (s - 2) * t + ell  # term / dominant = binoms / (C(m,2) 2^e)
        steps_ok = (
            c_m <= m**s and c_free <= (m * t) ** s and c_st <= (s * t) ** s and 3 * e >= s * t
        )
        rows.append(
            RatioRow(
                s=s,
                ell=ell,
                term=binoms << (free - ell),
                ratio=Fraction(binoms, pairs << e),
                bound_log2=None if log2m is None else 5 * s * log2m - Fraction(s * t, 3),
                steps_ok=steps_ok,
                final_ok=binoms**3 << (s * t) <= m ** (15 * s) << (3 * e),
            )
        )
    return RatioAudit(
        m=m,
        t=t,
        rows=tuple(rows),
        max_ratio=max((r.ratio for r in rows), default=Fraction(0)),
        total_ratio=Fraction(sum(r.term for r in rows), pairs << (m * t - 2 * t)),
        all_steps_ok=all(r.steps_ok for r in rows),
        all_final_ok=all(r.final_ok for r in rows),
        t_le_m=t <= m,
        regime_ok=m**16 <= 1 << t,
    )
