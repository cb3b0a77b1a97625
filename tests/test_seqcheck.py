"""Sequence diagnostics and reports: breaks, unimodality, tails, JSON."""

import json
import math
import random

import pytest

from indseqlab import seqcheck
from indseqlab.indpoly import indpoly_sst, indpoly_tree
from indseqlab.intpoly import IntPolynomial, mul
from indseqlab.seqcheck import (
    analyze,
    analyze_sequence,
    is_unimodal,
    lc_breaks,
    report_from_json,
    report_to_json,
    tail_monotone,
    tail_start,
)
from indseqlab.trees import path, random_tree, spider, tmt1


def test_lc_breaks_basics():
    assert lc_breaks([1, 3, 1]) == []
    assert lc_breaks([1, 1, 1]) == []
    assert lc_breaks([1, 2, 5]) == [1]  # 4 < 5
    assert lc_breaks([2, 2, 4, 2, 9]) == [1, 3]
    assert lc_breaks([5]) == []
    with pytest.raises(ValueError):
        lc_breaks([1, 0, 1])
    with pytest.raises(ValueError):
        lc_breaks([])
    # equality is not a break
    assert lc_breaks([1, 2, 4]) == []


def exact_breaks(a):
    """The plain exact scan that lc_breaks screens."""
    return [k for k in range(1, len(a) - 1) if a[k] * a[k] < a[k - 1] * a[k + 1]]


@pytest.fixture
def log2_calls(monkeypatch):
    """How many entries lc_breaks took a logarithm of."""
    calls = []
    real = math.log2

    def spy(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(math, "log2", spy)
    return calls


def near_ties(a):
    """a, and a with each interior entry moved by -1 and by +1 in turn:
    every one a tie or within one unit of a tie at three indices."""
    yield a
    for k in range(1, len(a) - 1):
        for step in (-1, 1):
            yield a[:k] + [a[k] + step] + a[k + 1 :]


def test_lc_breaks_screen_exact_ties(log2_calls):
    # a_k = p^k q^(N-k) has a_k^2 == a_(k-1) a_(k+1) at every k, with entries
    # of 5,000+ bits; no logarithm can tell these from a break
    for p, q, n in ((3, 5, 400), (2, 3, 900), (7, 1, 600)):
        a = [p**k * q ** (n - k) << 5001 for k in range(n + 1)]
        assert min(a).bit_length() > 5001
        assert lc_breaks(a) == exact_breaks(a) == []
        assert len(log2_calls) == n + 1
        log2_calls.clear()


def test_lc_breaks_screen_near_ties():
    # +-1 off a tie: the break appears or vanishes at k and its neighbours
    for p, q, n in ((3, 5, 16), (2, 3, 9)):
        tie = [p**k * q ** (n - k) * 5**2200 for k in range(n + 1)]
        for a in near_ties(tie):
            assert lc_breaks(a) == exact_breaks(a)
    k = 4
    tie[k] -= 1
    assert lc_breaks(tie) == [k]
    tie[k] += 2
    assert lc_breaks(tie) == [k - 1, k + 1]


def test_lc_breaks_screen_huge_entries():
    rng = random.Random(1024)
    # past 2**1024, where log2 reads the int's top digits, and 10^5 bits
    for bits, size in ((1030, 60), (4000, 40), (100_000, 12)):
        for _ in range(5):
            a = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(size)]
            assert lc_breaks(a) == exact_breaks(a)
        tie = [3**k * 2 ** (bits - 2 * k) for k in range(size)]
        for a in near_ties(tie):
            assert lc_breaks(a) == exact_breaks(a)


def test_lc_breaks_screen_mixed_sizes():
    # tiny and huge entries side by side: the tolerance follows the largest
    rng = random.Random(77)
    big = 2**5000
    assert lc_breaks([1, 2, big, 3, 1, big + 1, big, 1]) == exact_breaks([1, 2, big, 3, 1, big + 1, big, 1])
    for _ in range(300):
        pool = (1, 2, 3, rng.getrandbits(64) + 1, big + rng.getrandbits(64), big * rng.getrandbits(8) + 1)
        a = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        assert lc_breaks(a) == exact_breaks(a)
    # T(2^5 1^15) and T(2^6 1^17): 375- and 843-bit entries, 3 and 8 breaks
    for counts, breaks in (([2] * 5 + [1] * 15, 3), ([2] * 6 + [1] * 17, 8)):
        seq = indpoly_sst(counts).coeffs
        assert lc_breaks(seq) == exact_breaks(seq) and len(exact_breaks(seq)) == breaks


def test_lc_breaks_size_gate(log2_calls):
    # a middle entry of up to _SCREEN_MIN_BITS bits takes the exact scan
    # alone, whatever the other entries; one bit more and every entry is
    # screened
    gate = seqcheck._SCREEN_MIN_BITS
    rng = random.Random(gate)
    for bits, screened in ((gate, False), (gate + 1, True)):
        for _ in range(50):
            a = [rng.getrandbits(rng.choice((bits, 2 * bits))) + 1 for _ in range(rng.randint(1, 30))]
            a[len(a) // 2] = rng.getrandbits(bits - 1) | 1 << (bits - 1)
            log2_calls.clear()
            assert lc_breaks(a) == exact_breaks(a)
            assert len(log2_calls) == (len(a) if screened else 0)
    # search-size sequences (n <= 40, entries below 2**40) stay exact
    for n in range(26, 41):
        coeffs = indpoly_tree(random_tree(n, n)).coeffs
        log2_calls.clear()
        assert lc_breaks(coeffs) == exact_breaks(coeffs) and not log2_calls


def test_lc_breaks_messages():
    with pytest.raises(ValueError, match="^sequence must be nonempty$"):
        lc_breaks([])
    # the first entry that is not positive is named, big or small
    cases = (([1, 0, 1], 0), ([3, -2, 0, 1], -2), ([4, 0, -5], 0), ([2**3000, 1, 0], 0), ([5, -(2**300)], -(2**300)))
    for seq, bad in cases:
        with pytest.raises(ValueError) as info:
            lc_breaks(seq)
        assert str(info.value) == "sequence entries must be positive, got %r" % (bad,)


def test_lc_breaks_on_family_polynomials():
    assert lc_breaks(indpoly_tree(tmt1(4, 4)).coeffs) == [18]
    assert len(lc_breaks(indpoly_sst([2, 2, 2, 2] + [1] * 9).coeffs)) == 2


def test_is_unimodal():
    assert is_unimodal([1, 2, 2, 1]) == (True, (1, 2))
    assert is_unimodal([1, 3, 2, 3]) == (False, None)
    assert is_unimodal([5]) == (True, (0, 0))
    assert is_unimodal([2, 2, 2]) == (True, (0, 2))
    assert is_unimodal([1, 2, 3]) == (True, (2, 2))
    assert is_unimodal([3, 2, 1]) == (True, (0, 0))
    assert is_unimodal([1, 2, 1, 2]) == (False, None)
    assert is_unimodal([2, 1, 3]) == (False, None)
    assert is_unimodal([3, 1, 2]) == (False, None)
    with pytest.raises(ValueError):
        is_unimodal([])


def test_spider_sequences_unimodal():
    for t in range(1, 51):
        seq = indpoly_tree(spider(t, 2)).coeffs
        assert lc_breaks(seq) == []  # log-concave ...
        flag, _ = is_unimodal(seq)
        assert flag  # ... hence unimodal for positive sequences


def test_tail_monotone():
    assert tail_start(2) == 1
    assert tail_start(20) == 13
    assert tail_monotone([1, 2, 1], 2) is True
    assert tail_monotone([1, 5, 2, 3], 3) is False
    with pytest.raises(ValueError):
        tail_monotone([1, 2, 1], 3)


def test_analyze_path2():
    r = analyze(path(2))
    assert (r.n, r.alpha, r.coeffs, r.breaks) == (2, 1, (1, 2), ())
    assert r.is_log_concave and r.is_unimodal
    assert (r.mode_lo, r.mode_hi) == (1, 1)
    assert r.tail_monotone


def test_analyze_tmt1_44():
    r = analyze(tmt1(4, 4))
    assert r.n == 37 and r.alpha == 20
    assert r.breaks == (18,)
    assert not r.is_log_concave
    assert r.is_unimodal
    assert r.tail_start == 13 and r.tail_monotone


def test_analyze_checks_alpha(monkeypatch):
    monkeypatch.setattr(seqcheck, "independence_number", lambda tree: -1)
    with pytest.raises(RuntimeError, match="disagrees with alpha"):
        analyze(path(2))


def test_analyze_deterministic():
    a = analyze(random_tree(25, 7))
    b = analyze(random_tree(25, 7))
    assert a == b
    assert report_to_json(a) == report_to_json(b)


def test_breaks_empty_iff_log_concave_on_random_trees():
    rng = random.Random(88)
    for _ in range(120):
        r = analyze(random_tree(rng.randint(1, 24), rng.getrandbits(64)))
        assert r.is_log_concave == (len(r.breaks) == 0)
        if r.is_log_concave:
            assert r.is_unimodal
        assert r.tail_monotone


def test_report_json_roundtrip():
    r = analyze(tmt1(3, 4))
    text = report_to_json(r)
    back = report_from_json(text)
    assert back == r
    assert report_to_json(back) == text
    obj = json.loads(text)
    assert list(obj.keys()) == [
        "n", "alpha", "coeffs", "breaks", "is_log_concave", "is_unimodal",
        "mode_lo", "mode_hi", "tail_start", "tail_monotone",
    ]
    # coefficients are decimal strings, exact
    assert obj["coeffs"][0] == "1"
    with pytest.raises(ValueError):
        report_from_json('{"n": 1}')


def test_report_json_roundtrip_past_the_str_digit_limit():
    # 5,001 digits: str()/int() refuse it under the default 4,300-digit limit
    big = 10**5000 + 1
    r = analyze_sequence(3, [1, big, 1])
    text = report_to_json(r)
    assert json.loads(text)["coeffs"][1] == "1" + "0" * 4999 + "1"
    back = report_from_json(text)
    assert back == r
    assert report_to_json(back) == text
    with pytest.raises(ValueError):
        report_from_json(text.replace('"1", "1', '"1", "x1'))


def random_log_concave(rng, max_len=24):
    """Positive log-concave sequence with no internal zeros: pointwise
    product of a binomial row and 2^(concave integer sequence)."""
    size = rng.randint(1, max_len)
    increments = sorted((rng.randint(-6, 6) for _ in range(size - 1)), reverse=True)
    exponent = 0
    exps = [0]
    for inc in increments:
        exponent += inc
        exps.append(exponent)
    shift = -min(exps)
    n = size - 1
    from math import comb

    return [comb(n, k) * (1 << (e + shift)) for k, e in enumerate(exps)]


def test_convolution_preserves_log_concavity():
    rng = random.Random(424242)
    for _ in range(1000):
        a = random_log_concave(rng)
        b = random_log_concave(rng)
        assert lc_breaks(a) == []
        assert lc_breaks(b) == []
        prod = mul(IntPolynomial(a), IntPolynomial(b))
        assert lc_breaks(prod.coeffs) == []


def test_analyze_sequence_direct():
    r = analyze_sequence(5, (1, 5, 6, 1))
    assert r.alpha == 3 and r.breaks == ()
    assert r.mode_lo == 2 and r.mode_hi == 2
