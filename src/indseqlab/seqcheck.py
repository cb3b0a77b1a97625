"""Diagnostics for positive integer sequences and per-tree analysis reports.

A positive sequence (a_k) is log-concave when a_k^2 >= a_{k-1} a_{k+1}
everywhere; it is *broken at k* when the strict reverse inequality holds.
All comparisons here are exact integer arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .indpoly import indpoly_tree
from .intpoly import int_to_str, str_to_int
from .trees import RootedTree, independence_number


def lc_breaks(seq):
    """Indices k with seq[k]^2 < seq[k-1] * seq[k+1], ascending.

    The scan covers every interior index 1 <= k <= len-2.  Entries must be
    positive; the break notion is only meaningful for positive sequences.
    """
    a = list(seq)
    if not a:
        raise ValueError("sequence must be nonempty")
    for v in a:
        if v <= 0:
            raise ValueError("sequence entries must be positive, got %r" % (v,))
    return [k for k in range(1, len(a) - 1) if a[k] * a[k] < a[k - 1] * a[k + 1]]


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
