"""Dense univariate polynomials over Python's arbitrary-precision integers.

An IntPolynomial doubles as an exact integer sequence: coefficient k is
the number of independent sets of size k when the polynomial came out of
one of the counting routines.  All arithmetic is exact; nothing here ever
touches floating point.

Multiplication is exact convolution (`convolve`) on the standard
library's big numbers.  Short operands go schoolbook.  Longer ones use
Kronecker substitution (Harvey 2009, "Faster polynomial multiplication
via multipoint Kronecker substitution"): each operand is packed into one
big number, one coefficient per fixed-width slot, the two numbers are
multiplied, and the product is cut back into slots.  A slot is wide
enough that no product coefficient carries into the next one.  Small
packings multiply as CPython ints; large ones as `decimal.Decimal`,
whose libmpdec backend multiplies huge operands by a number-theoretic
transform.  A fixed size, LEAF_MAX_BITS, caps each operand libmpdec
multiplies, and so the transform's working memory.  Three rules cover
the Decimal range:

- up to twice LEAF_MAX_BITS, two points: for slots of D digits, each
  operand is packed at +X and -X, X = 10**ceil(D/2), each half the
  packing, and the two products of half-size operands give the even and
  the odd product coefficients;
- up to four times it, four points: X = 10**ceil((D + 1)/4), and the
  products at +X and -X of the operands and of their reversals, each
  operand a quarter of the packing, give every coefficient's low half
  from the first pair and its high half from the second;
- past that, the operands split Karatsuba-style first.

A Decimal product drops each operand once it has been multiplied and turns
its results into digits in two halves, so its peak memory is the first
product held while the second is computed, and that multiply's transform;
at four points, also the slots of the first pair while the second is
computed.
"""

from __future__ import annotations

import decimal
import re
import sys
from decimal import Decimal
from itertools import repeat

# operands with at most this many coefficients multiply schoolbook
SCHOOLBOOK_MAX = 8
# packed operands up to this many bits multiply as ints, larger as Decimals
BINARY_MAX_BITS = 1 << 18
# Wider slots stay binary: int() refuses digit strings past 4,300 digits
# (about 14,000 bits), and unpacking through Decimal instead costs more
# than the transform saves.
DECIMAL_MAX_SLOT_BITS = 13_000
# Each operand libmpdec multiplies packs into about this many bits at
# most, which caps the transform buffers it allocates for one product:
# packings up to twice it are evaluated at two points of half the size, up
# to four times it at four points of a quarter, and larger ones split
# Karatsuba-style.  Measured with one-point leaves and
# Karatsuba (benchmarks/layers.py, BENCH_9.json "layers"), 2**22 ran
# reproduce, T(2^8 1^27) and Tmt1:60,60 26-29% faster than 2**21 for 5%
# more peak RSS; 2**23 was another 23-28% faster for 11% more again.
LEAF_MAX_BITS = 1 << 22

# Exact products only: any rounding raises instead of losing digits.  A
# private context, so the caller's decimal settings are never touched.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def int_to_str(c: int) -> str:
    """str(c) for an int of any size.

    str() refuses ints past the interpreter's int/str digit limit (4,300
    digits by default); Decimal has no such limit and gives the same
    string.
    """
    try:
        return str(c)
    except ValueError:
        return str(Decimal(c))


def int_repr(x):
    """repr(x), writing ints, bare or in a list or tuple, by int_to_str."""
    if type(x) in (list, tuple):
        items = ", ".join(map(int_repr, x)) + ("," if type(x) is tuple and len(x) == 1 else "")
        return ("[%s]" if type(x) is list else "(%s)") % items
    return int_to_str(x) if type(x) is int else repr(x)


def str_to_int(s: str) -> int:
    """The int that int_to_str wrote as s, for a string of any length.

    Only that text is read: an optional "-", then ASCII digits with no
    leading zero ("0" alone, never "-0"); anything else raises ValueError.
    Strings past the int/str digit limit go through Decimal.
    """
    if not (type(s) is str and re.fullmatch("0|-?[1-9][0-9]*", s)):
        raise ValueError("not a decimal integer as int_to_str writes it: %r" % (s,))
    try:
        return int(s)
    except ValueError:
        return int(Decimal(s))


def _ladd(u, v):
    """Elementwise sum of coefficient lists; the shorter is zero-padded."""
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, c in enumerate(v):
        out[i] += c
    return out


def convolve(a, b):
    """Exact product of two coefficient lists over Python ints.

    The result has len(a)+len(b)-1 entries, or none when an operand is
    empty, and is not canonicalized.  Pass the same object twice to
    square: the operand is then packed once.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) <= SCHOOLBOOK_MAX:
        return _schoolbook(a, b)
    if min(a) >= 0 and min(b) >= 0:
        return _convolve_nonneg(a, b)
    # slots hold nonnegative values only: a = ap - an and b = bp - bn
    ap, an = _split_signs(a)
    bp, bn = (ap, an) if b is a else _split_signs(b)
    pos = _ladd(_convolve_nonneg(ap, bp), _convolve_nonneg(an, bn))
    neg = _ladd(_convolve_nonneg(ap, bn), _convolve_nonneg(an, bp))
    return [p - q for p, q in zip(pos, neg)]


def _split_signs(a):
    return [c if c > 0 else 0 for c in a], [-c if c < 0 else 0 for c in a]


def _schoolbook(a, b):
    if len(b) < len(a):
        a, b = b, a  # the Python-level outer loop over the shorter operand
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _convolve_nonneg(a, b):
    """convolve() for nonempty operands with nonnegative coefficients."""
    na, nb = len(a), len(b)
    if min(na, nb) <= SCHOOLBOOK_MAX:
        return _schoolbook(a, b)
    # every product coefficient is a sum of min(na, nb) terms below
    # max(a) * max(b), so it stays below 2**slot
    slot = max(a).bit_length() + max(b).bit_length() + min(na, nb).bit_length()
    packed = slot * max(na, nb)
    decimal_slot = slot <= DECIMAL_MAX_SLOT_BITS
    if packed > 4 * LEAF_MAX_BITS or (packed > LEAF_MAX_BITS and not decimal_slot):
        return _karatsuba(a, b)
    if packed > 2 * LEAF_MAX_BITS:
        return _kronecker_four_point(a, b, slot)
    if packed > BINARY_MAX_BITS and decimal_slot:
        return _kronecker_two_point(a, b, slot)
    return _kronecker_binary(a, b, slot)


def _karatsuba(a, b):
    # split both operands at h: a = a0 + x^h a1, then
    # a*b = z0 + x^h (z1 - z0 - z2) + x^{2h} z2 with z1 = (a0+a1)(b0+b1);
    # a square stays a square in all three products
    h = max(len(a), len(b)) >> 1
    a0, a1 = a[:h], a[h:]
    b0, b1 = (a0, a1) if b is a else (b[:h], b[h:])
    sa = _ladd(a0, a1)
    sb = sa if b is a else _ladd(b0, b1)
    z0 = _convolve_nonneg(a0, b0)
    z2 = _convolve_nonneg(a1, b1) if a1 and b1 else []
    z1 = _convolve_nonneg(sa, sb)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
        out[i + h] -= c
    for i, c in enumerate(z1):
        out[i + h] += c
    for i, c in enumerate(z2):
        out[i + h] -= c
        out[i + 2 * h] += c
    return out


def _pack_slots(coeffs, width):
    """The int holding nonnegative coefficients, lowest first, one per
    width-byte slot."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _unpack_slots(value, width, count):
    """The lowest `count` width-byte slots of a nonnegative int, lowest first."""
    raw = value.to_bytes(width * count, "little")
    chunks = [raw[i : i + width] for i in range(0, len(raw), width)]
    return list(map(int.from_bytes, chunks, repeat("little")))


def _kronecker_binary(a, b, slot):
    width = (slot + 7) >> 3  # bytes per slot
    x = _pack_slots(a, width)
    y = x if b is a else _pack_slots(b, width)
    return _unpack_slots(x * y, width, len(a) + len(b) - 1)


def _decimal_width(slot):
    """Decimal digits per slot of `slot` bits: 10**width > 2**slot."""
    return slot * 30103 // 100000 + 1


def _decimal_pack(coeffs, width, exponent=0):
    """The Decimal holding nonnegative coefficients, lowest first, one per
    width-digit slot, times 10**exponent."""
    # one format call writes the digit string, with no list of pieces
    return Decimal(("%%0%dd" % width * len(coeffs) + "E%d" % exponent) % tuple(reversed(coeffs)))


def _digit_limit():
    """The interpreter's int/str digit limit; 0 is no limit, and Pythons
    before 3.10.7 have none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _kronecker_two_point(a, b, slot):
    # Two-point Kronecker substitution (Harvey 2009): with slots of D
    # digits, d = ceil(D/2) and X = 10**d, the product c = C_even(x^2) +
    # x C_odd(x^2) has every coefficient below 10**D <= X^2, so the digits
    # of C_even(X^2) and X C_odd(X^2), from _plus_minus_x, are its slots:
    # two half-size multiplies where Karatsuba takes three.
    d = (_decimal_width(slot) + 1) >> 1
    width = 2 * d
    # Slots of up to DECIMAL_MAX_SLOT_BITS bits fit int() and str() under the
    # default digit limit.  A limit lowered below the slot sends the product
    # to ints.
    if 0 < _digit_limit() < width:
        return _kronecker_binary(a, b, slot)

    def halves(coeffs):
        return _decimal_pack(coeffs[0::2], width), _decimal_pack(coeffs[1::2], width, d)

    even, odd = _plus_minus_x(a, b, halves)
    n = len(a) + len(b) - 1
    out = [0] * n
    out[0::2] = _decimal_slots(even, width, (n + 1) >> 1)
    out[1::2] = _decimal_slots(odd, width, n >> 1, d)
    return out


def _kronecker_four_point(a, b, slot):
    # Four-point Kronecker substitution (Harvey 2009, KS4): with slots of D
    # digits, r = ceil((D + 1)/4), X = 10**r and Z = X^2, an operand
    # a(x) = A0(x^4) + x A1(x^4) + x^2 A2(x^4) + x^3 A3(x^4) packs at +-X
    # as (A0 + X^2 A2) +- (X A1 + X^3 A3), each phase in slots of 4r
    # digits: a quarter of the packing at 10**D.  The two-point step then
    # gives the base-Z digits of C_even(Z) and C_odd(Z), where each
    # coefficient, below 10**D <= Z^2/10, spans two Z-digits and overlaps
    # its neighbours.  The same step on the reversed operands gives the
    # digits of the reversed halves, read from the other end, and
    # _two_slot_coefficients takes each coefficient's low Z-digit from the
    # first and its high one from the second: four quarter-size multiplies
    # where Karatsuba over two-point products takes six.
    r = (_decimal_width(slot) + 4) >> 2
    width = 4 * r
    # the phases are written in fields of 4r digits; under a digit limit
    # below that, the product splits and its halves check their own slots
    if 0 < _digit_limit() < width:
        return _karatsuba(a, b)

    field = "%%0%dd" % width

    def halves(coeffs):
        # E(X^2) and X O(X^2) of coeffs and of its reversal, each in a
        # one-item list for _plus_minus_x to take: phase k, coeffs[k::4],
        # is written in digits once, and its fields read lowest first are
        # phase (m - 1 - k) % 4 of the reversal
        m = len(coeffs)
        sums = [Decimal(0)] * 4
        for k in range(4):
            fields = list(map(field.__mod__, coeffs[k::4]))
            j = (m - 1 - k) % 4
            sums[k & 1] = _EXACT.add(sums[k & 1], _EXACT.scaleb(Decimal("".join(reversed(fields))), k * r))
            sums[2 + (j & 1)] = _EXACT.add(sums[2 + (j & 1)], _EXACT.scaleb(Decimal("".join(fields)), j * r))
        return [tuple(sums[:2])], [tuple(sums[2:])]

    n = len(a) + len(b) - 1
    ha, hra = halves(a)
    hb, hrb = (ha, hra) if b is a else halves(b)
    digits = []
    for x, y in ((ha, hb), (hra, hrb)):
        even, odd = _plus_minus_x(x, y, list.pop)
        digits.append(_decimal_slots(even, 2 * r, ((n + 1) >> 1) + 1))
        digits.append(_decimal_slots(odd, 2 * r, (n >> 1) + 1, r))
    low_even, low_odd, high_even, high_odd = digits
    del digits
    # c reversed has c_(n-1) first: for even n its even half is C_odd's
    if not n & 1:
        high_even, high_odd = high_odd, high_even
    z = 10 ** (2 * r)
    out = [0] * n
    out[0::2] = _two_slot_coefficients(low_even, high_even, z)
    del low_even, high_even
    out[1::2] = _two_slot_coefficients(low_odd, high_odd, z)
    return out


def _plus_minus_x(a, b, halves):
    """C_even(X^2) and X C_odd(X^2) of c = a b, each as a one-item list
    for _decimal_slots, where halves(coeffs) gives E(X^2) and X O(X^2)
    for an operand E(x^2) + x O(x^2).

    With U = a(X) b(X) and V = a(-X) b(-X), (U - V)/2 = X C_odd(X^2) and
    U - (U - V)/2 = C_even(X^2).  Each operand is dropped once it has been
    multiplied.  Digit strings, not ints, cross between the two number
    types: int <-> Decimal conversion of a packed operand takes time
    quadratic in its size.
    """

    def at_plus_minus_x(coeffs):
        even, odd = halves(coeffs)
        return _EXACT.add(even, odd), _EXACT.subtract(even, odd)

    ap, am = at_plus_minus_x(a)
    bp, bm = (ap, am) if b is a else at_plus_minus_x(b)
    u = _EXACT.multiply(ap, bp)
    del ap, bp
    v = _EXACT.multiply(am, bm)
    del am, bm
    odd = _EXACT.divide(_EXACT.subtract(u, v), 2)
    return [_EXACT.subtract(u, odd)], [odd]


def _two_slot_coefficients(low, high, z):
    """The coefficients e_0 .. e_(m-1), each below z^2/10, of a polynomial
    E from the m + 1 base-z digits of E(z), `low`, and those of its
    reversal, `high`, both lowest first.

    Digit j of E(z) is the low half of e_j plus the high half of e_(j-1)
    and a carry from below; digit m - 1 - j of the reversal is the low
    half of e_j plus the high half of e_(j+1) and a carry from below,
    which there means from e_(j+1).  One pass up j takes the low half l
    from `low`, carrying the high half and carry of e_(j-1) up in p, and
    the high half from `high`, carrying down in delta what the digit there
    held above l.  Since every high half is below z/10, neither carry is
    ambiguous.  The pass closes on the top digit of each: anything else
    raises ArithmeticError, so inconsistent digits never pass silently.
    """
    m = len(low) - 1
    out = []
    p, delta = 0, high[m]
    for g, g_rev in zip(low, reversed(high[:m])):
        lo = g - p
        carry = lo < 0
        if carry:
            lo += z
        d = g_rev - lo
        if d < 0:
            d += z
            delta -= 1
        out.append(lo + z * delta)
        p = delta + carry
        delta = d
    if delta or p != low[m]:
        raise ArithmeticError("four-point digits do not close")
    return out


def _decimal_slots(box, width, count, skip=0):
    """The `count` slots of `width` digits above the lowest `skip` digits of
    a nonnegative integral Decimal, lowest first.

    `box` is a one-item list holding the Decimal; it is taken out, so that
    it is dropped as soon as it is split.  str() holds two copies of a
    Decimal's digits at once, so the value goes to digits in two halves,
    split at a slot boundary; shift() keeps as many low digits as its
    context's precision.
    """
    value = box.pop()
    half = count >> 1
    high = value.shift(-(skip + half * width), _EXACT)
    low = value.shift(-skip, decimal.Context(prec=skip + half * width))
    del value
    out = _digit_slots(str(low), width, half)
    del low
    return out + _digit_slots(str(high), width, count - half)


def _digit_slots(digits, width, count):
    """The lowest `count` slots of `width` digits of a digit string, lowest
    first."""
    # no leading zeros: only the top slot may be short, and those above are 0
    out = [int(digits[max(i - width, 0) : i]) for i in range(len(digits), 0, -width)]
    out += repeat(0, count - len(out))
    return out


def _strip(coeffs):
    """Drop trailing zeros; the zero polynomial keeps a single 0."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end]) if end != len(coeffs) else tuple(coeffs)


class IntPolynomial:
    """Immutable dense polynomial with int coefficients.

    ``coeffs[k]`` is the coefficient of x^k.  Canonical form: the highest
    stored coefficient is nonzero, except the zero polynomial which is
    stored as the single coefficient 0.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = list(coeffs)
        if not cs:
            cs = [0]
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(
                    "coefficients must be int, got %s" % type(c).__name__
                )
        self._coeffs = _strip(cs)

    @classmethod
    def _raw(cls, coeffs):
        # trusted constructor: coeffs is a list of ints, possibly padded
        self = object.__new__(cls)
        self._coeffs = _strip(coeffs)
        return self

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if len(self._coeffs) == 1 and self._coeffs[0] == 0:
            return -1
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs == (0,)

    def coeff(self, k: int) -> int:
        """Coefficient of x^k; 0 beyond the degree."""
        if k < 0:
            raise ValueError("coefficient index must be >= 0, got %s" % int_to_str(k))
        return self._coeffs[k] if k < len(self._coeffs) else 0

    def __iter__(self):
        return iter(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return mul(self, other)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return poly_pow(self, e)

    def __repr__(self):
        cs = self._coeffs
        if len(cs) > 8:
            shown = ", ".join(int_to_str(c) for c in cs[:4])
            return "IntPolynomial([%s, ... deg=%d])" % (shown, len(cs) - 1)
        return "IntPolynomial([%s])" % ", ".join(int_to_str(c) for c in cs)


ZERO = IntPolynomial((0,))
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def add(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Coefficient-wise sum."""
    return IntPolynomial._raw(_ladd(p.coeffs, q.coeffs))


def mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact convolution product; p * p packs its operand once."""
    if p.is_zero or q.is_zero:
        return ZERO
    return IntPolynomial._raw(convolve(p.coeffs, q.coeffs))


def _linear_power(a, b, e):
    """Coefficients of (a + bx)^e for e >= 0, lowest first.

    Each c(k) = C(e, k) a^(e-k) b^k comes from the one before by the exact
    recurrence c(k+1) = c(k) (e-k) b / ((k+1) a): e steps of one product
    and one exact quotient in place of squaring polynomials.  A constant
    base (b = 0) gives the single coefficient a^e.
    """
    if not b:
        return [a**e]
    if not a:
        return [0] * e + [b**e]
    row = [a**e]
    for k in range(e):
        row.append(row[-1] * ((e - k) * b) // ((k + 1) * a))
    return row


def _binomial_row(n):
    """Coefficients of (1 + x)^n, C(n, 0) .. C(n, n)."""
    return _linear_power(1, 1, n)


def _lpow(u, e):
    """Coefficient list u**e for e >= 1: from the binomial row for a
    2-coefficient u, otherwise by repeated squaring."""
    if len(u) == 2:
        return _linear_power(u[0], u[1], e)
    while not e & 1:
        u = convolve(u, u)
        e >>= 1
    result = u
    e >>= 1
    while e:
        u = convolve(u, u)
        if e & 1:
            result = convolve(result, u)
        e >>= 1
    return result


def poly_pow(p: IntPolynomial, e: int) -> IntPolynomial:
    """p**e by binary exponentiation; p**0 == 1 for every p."""
    if e < 0:
        raise ValueError("exponent must be >= 0, got %s" % int_to_str(e))
    if e == 0:
        return ONE
    return IntPolynomial._raw(_lpow(p.coeffs, e))


def coeff(p: IntPolynomial, k: int) -> int:
    """Coefficient of x^k in p; 0 beyond the degree."""
    return p.coeff(k)
