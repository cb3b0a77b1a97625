"""Diagnostics for positive integer sequences and per-tree analysis reports.

A positive sequence (a_k) is log-concave when a_k^2 >= a_{k-1} a_{k+1}
everywhere; it is *broken at k* when the strict reverse inequality holds.
Every verdict here is exact: lc_breaks screens long entries in floating
point but decides every close call by integer arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .indpoly import indpoly_tree
from .intpoly import int_to_str, str_to_int
from .trees import RootedTree, independence_number


# lc_breaks screens with logarithms only when the middle entry of its
# sequence has more bits than this.  Measured (benchmarks/layers.py,
# "lc_breaks" table), the screen takes 0.79-0.84x the exact scan's time at
# 128 bits on 32-2,048 entries and 0.63-0.71x at 192, but 0.97-1.27x at
# 64 bits and 1.10-1.41x at 32, where the two products per index cost
# about as much as a logarithm per entry and the float pass.  Search's
# trees (n <= 40, entries below 2**40) keep the exact scan.
_SCREEN_MIN_BITS = 128


def lc_breaks(seq):
    """Indices k with seq[k]^2 < seq[k-1] * seq[k+1], ascending.

    The scan covers every interior index 1 <= k <= len-2.  Entries must be
    positive; the break notion is only meaningful for positive sequences.

    The answer is exact.  When the middle entry has more than
    _SCREEN_MIN_BITS bits, each k is first screened in floating point:
    with L[i] = math.log2(seq[i]), d = 2 L[k] - L[k-1] - L[k+1] and
    tol = 2^-36 (max L + 1), d > tol means no break at k, d < -tol a break,
    and only |d| <= tol falls back to the exact integer comparison.  Each
    L[i] is within (L[i] + 1) 2^-52 of log2 seq[i] (one rounding of the
    entry or of its frexp mantissa, one of the logarithm and one of adding
    the exponent), and d within (max L + 1) 2^-47 of the exact difference
    after its two subtractions, so the sign of a d past tol is the sign of
    the exact one, with a margin of 2^11.  The middle entry stands in for
    the largest, near which an independence sequence peaks: max() of a
    sequence of 20 entries costs a fifth of its exact scan.
    """
    a = list(seq)
    if not a:
        raise ValueError("sequence must be nonempty")
    for v in a:
        if v <= 0:
            raise ValueError("sequence entries must be positive, got %r" % (v,))
    if a[len(a) // 2].bit_length() <= _SCREEN_MIN_BITS:
        return [k for k in range(1, len(a) - 1) if a[k] * a[k] < a[k - 1] * a[k + 1]]
    logs = list(map(math.log2, a))
    tol = (max(logs) + 1) * 2.0**-36
    return [
        k
        for k in range(1, len(a) - 1)
        if (d := 2 * logs[k] - logs[k - 1] - logs[k + 1]) <= tol
        and (d < -tol or a[k] * a[k] < a[k - 1] * a[k + 1])
    ]


def is_unimodal(seq):
    """(flag, mode_range): whether the sequence weakly rises then weakly
    falls; mode_range is the (lo, hi) index interval attaining the maximum
    when unimodal, None otherwise."""
    a = list(seq)
    if not a:
        raise ValueError("sequence must be nonempty")
    m = max(a)
    lo = a.index(m)
    hi = len(a) - 1 - a[::-1].index(m)
    for i in range(lo, hi + 1):
        if a[i] != m:
            return False, None
    for i in range(lo):
        if a[i] > a[i + 1]:
            return False, None
    for i in range(hi, len(a) - 1):
        if a[i] < a[i + 1]:
            return False, None
    return True, (lo, hi)


def tail_start(alpha: int) -> int:
    """First index of the guaranteed-decreasing tail: ceil((2*alpha - 1)/3)."""
    return (2 * alpha + 1) // 3


def tail_monotone(seq, alpha: int) -> bool:
    """Whether seq is weakly decreasing from tail_start(alpha) through alpha.

    Requires alpha == len(seq) - 1 (the sequence must run 0..alpha).
    """
    a = list(seq)
    if alpha != len(a) - 1:
        raise ValueError(
            "alpha must equal len(seq)-1, got alpha=%d len=%d" % (alpha, len(a))
        )
    return all(a[k] >= a[k + 1] for k in range(tail_start(alpha), alpha))


@dataclass(frozen=True)
class AnalysisReport:
    """Everything we diagnose about one tree's independence sequence."""

    n: int
    alpha: int
    coeffs: tuple
    breaks: tuple
    is_log_concave: bool
    is_unimodal: bool
    mode_lo: int | None
    mode_hi: int | None
    tail_start: int
    tail_monotone: bool


def analyze_sequence(n: int, coeffs) -> AnalysisReport:
    """Assemble a report from a vertex count and an independence sequence."""
    cs = tuple(coeffs)
    alpha = len(cs) - 1
    breaks = tuple(lc_breaks(cs))
    uni, mode = is_unimodal(cs)
    return AnalysisReport(
        n=n,
        alpha=alpha,
        coeffs=cs,
        breaks=breaks,
        is_log_concave=not breaks,
        is_unimodal=uni,
        mode_lo=mode[0] if mode else None,
        mode_hi=mode[1] if mode else None,
        tail_start=tail_start(alpha),
        tail_monotone=tail_monotone(cs, alpha),
    )


def analyze(tree: RootedTree) -> AnalysisReport:
    """Full report for a tree; deterministic in the input tree."""
    report = analyze_sequence(tree.n, indpoly_tree(tree).coeffs)
    if report.alpha != independence_number(tree):
        raise RuntimeError("independence polynomial degree disagrees with alpha")
    return report


# the JSON form keeps the dataclass's field order; coefficient values are
# decimal strings
_JSON_FIELDS = tuple(f.name for f in fields(AnalysisReport))


def report_to_json(report: AnalysisReport) -> str:
    """Serialize a report; big integers become decimal strings."""
    return json.dumps(dict(vars(report), coeffs=[int_to_str(c) for c in report.coeffs]))


def report_from_json(text: str) -> AnalysisReport:
    """Inverse of report_to_json; round-trips byte-identically."""
    obj = json.loads(text)
    if tuple(obj) != _JSON_FIELDS:
        raise ValueError("unexpected report fields: %r" % list(obj))
    obj.update(coeffs=tuple(map(str_to_int, obj["coeffs"])), breaks=tuple(obj["breaks"]))
    return AnalysisReport(**obj)
