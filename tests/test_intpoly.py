"""Polynomial arithmetic: examples with known values plus randomized laws."""

import random
from math import comb

import pytest

from indseqlab.intpoly import (
    ONE,
    X,
    ZERO,
    IntPolynomial,
    _linear_power,
    add,
    coeff,
    convolve,
    int_repr,
    int_to_str,
    mul,
    poly_pow,
)
from indseqlab.indpoly import indpoly_sst, root_split
from indseqlab.rng import SplitMix64, derive_seed
from indseqlab.seqcheck import lc_breaks, tail_monotone
from indseqlab.trees import FamilySpec, RootedTree, path, prufer_decode, sst, tree_from_edges


def P(*cs):
    return IntPolynomial(cs)


def test_canonical_form():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0, 0).coeffs == (0,)
    assert IntPolynomial([]).coeffs == (0,)
    assert P(0).is_zero and ZERO.is_zero
    assert not P(0, 1).is_zero


def test_degree():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert X.degree == 1
    assert P(1, 2, 3).degree == 2


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial([1.0, 2])
    with pytest.raises(TypeError):
        IntPolynomial(["3"])


def test_add_examples():
    assert P(1, 1) + P(1, 1) == P(2, 2)
    p = P(3, 1, 4)
    assert p + ZERO == p
    assert P(0, 1) + P(0, 0, 24) == P(0, 1, 24)
    # cancellation re-canonicalizes
    assert P(1, 5) + P(1, -5) == P(2)


def test_mul_examples():
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)
    assert P(1, 2) * P(1, 2) == P(1, 4, 4)
    # square of the 5-path polynomial; expected values from the subset-sweep
    # oracle run on the 10-vertex two-component forest
    assert P(1, 5, 6, 1) * P(1, 5, 6, 1) == P(1, 10, 37, 62, 46, 12, 1)
    assert P(1, 1) * ZERO == ZERO


def test_pow_examples():
    assert poly_pow(P(9, 9, 9), 0) == ONE
    assert poly_pow(ZERO, 0) == ONE
    assert poly_pow(P(1, 2), 4) == P(1, 8, 24, 32, 16)
    assert X**3 == P(0, 0, 0, 1)
    with pytest.raises(ValueError):
        poly_pow(ONE, -1)


def test_linear_power_matches_binomial_sum_and_repeated_convolve():
    # (a + bx)^e against the sum of C(e, k) a^(e-k) b^k x^k and against e
    # convolutions, zeros and negatives included; a constant base (b = 0)
    # gives the single coefficient a^e, not a row padded with zeros
    for a in range(-3, 4):
        for b in range(-3, 4):
            acc = [1]
            for e in range(41):
                want = [comb(e, k) * a ** (e - k) * b**k for k in range(e + 1)]
                assert acc == want, (a, b, e)
                assert _linear_power(a, b, e) == (want if b else want[:1]), (a, b, e)
                acc = convolve(acc, [a, b])


def test_coeff_examples():
    assert coeff(P(1, 2), 5) == 0
    h22 = X * poly_pow(P(1, 2), 4)  # x(1+2x)^4
    assert h22.coeff(5) == 16
    assert h22.coeff(0) == 0
    with pytest.raises(ValueError):
        h22.coeff(-1)


def rand_poly(rng, max_deg=64, bits=128):
    size = rng.randint(1, max_deg + 1)
    cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(size)]
    return IntPolynomial(cs)


def test_mul_commutative_and_associative():
    rng = random.Random(12345)
    for _ in range(1000):
        p, q, r = (rand_poly(rng) for _ in range(3))
        pq = mul(p, q)
        assert pq == mul(q, p)
        assert mul(pq, r) == mul(p, mul(q, r))


def test_pow_equals_repeated_mul():
    rng = random.Random(777)
    for _ in range(60):
        p = rand_poly(rng, max_deg=12, bits=32)
        acc = ONE
        for e in range(17):
            assert poly_pow(p, e) == acc
            acc = mul(acc, p)


def test_degree_and_leading_coefficient_of_products():
    rng = random.Random(31)
    for _ in range(300):
        p, q = rand_poly(rng, 40, 64), rand_poly(rng, 40, 64)
        if p.is_zero or q.is_zero:
            continue
        pq = mul(p, q)
        assert pq.degree == p.degree + q.degree
        assert pq.coeffs[-1] == p.coeffs[-1] * q.coeffs[-1]


def test_hash_and_equality():
    assert hash(P(1, 2)) == hash(P(1, 2, 0))
    assert P(1, 2) != P(2, 1)
    assert len(P(1, 2, 3)) == 3
    assert list(P(4, 5)) == [4, 5]


def test_repr_past_the_str_digit_limit():
    # 5,001 digits: str() refuses it under the default 4,300-digit limit
    big = 10**5000 + 1
    assert repr(P(1, big)) == "IntPolynomial([1, 1%s1])" % ("0" * 4999)
    assert repr(P(*([big] * 9))).endswith(", ... deg=8])")


def test_int_repr_is_repr_with_ints_past_the_digit_limit():
    big = 10**5000
    for value in (0, -7, True, 2.5, "5", None, [], (), (3,), (True,), [3, 2.5, "x"], (2.0, 1), [(1, [2])], {1: 2}):
        assert int_repr(value) == repr(value)
    assert int_repr([-big, (big,)]) == "[-%s, (%s,)]" % (int_to_str(big), int_to_str(big))


# B = 10**5000 has 5,001 digits; each message names it through int_to_str
# rather than raising str()'s digit-limit error in its place
B = 10**5000
DIGITS = "1" + "0" * 5000
LIMIT_MESSAGES = [
    (lambda: FamilySpec("Path", [B]), "Path: parameters must be a tuple of ints, got [%s]" % DIGITS),
    (lambda: RootedTree([-1, B]), "parent of 1 out of range: %s" % DIGITS),
    (lambda: path(3).neighbors(B), "vertex %s out of range" % DIGITS),
    (lambda: prufer_decode([B, 0], 4), "sequence entry %s out of range 0..3" % DIGITS),
    (lambda: prufer_decode([], B), "sequence length must be n-2 = %s, got 0" % int_to_str(B - 2)),
    (lambda: tree_from_edges(2, [(0, B)]), "edge (0, %s) out of range 0..1" % DIGITS),
    (lambda: sst([B, 0]), "child counts must be >= 1, got [%s, 0]" % DIGITS),
    (lambda: indpoly_sst([B, 0]), "child counts must be >= 1, got [%s, 0]" % DIGITS),
    (lambda: ONE.coeff(-B), "coefficient index must be >= 0, got -%s" % DIGITS),
    (lambda: poly_pow(ONE, -B), "exponent must be >= 0, got -%s" % DIGITS),
    (lambda: derive_seed(1, -B), "sample index must be >= 0, got -%s" % DIGITS),
    (lambda: SplitMix64(1).randbelow_many(3, -B), "draw count must be >= 0, got -%s" % DIGITS),
    (lambda: tail_monotone([1, 1], B), "alpha must equal len(seq)-1, got alpha=%s len=2" % DIGITS),
    (lambda: lc_breaks([1, -B]), "sequence entries must be positive, got -%s" % DIGITS),
    (lambda: root_split(path(3), B), "vertex %s out of range" % DIGITS),
]


@pytest.mark.parametrize("call,message", LIMIT_MESSAGES, ids=[m[1][:24] for m in LIMIT_MESSAGES])
def test_messages_name_ints_past_the_digit_limit(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
