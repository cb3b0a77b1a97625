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
transform.  Operands past a fixed size split Karatsuba-style first, which
bounds the transform's working memory.
"""

from __future__ import annotations

import decimal
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
# packed operands past this many bits split Karatsuba-style; this caps the
# transform buffers libmpdec allocates for one product
LEAF_MAX_BITS = 1 << 21

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


def str_to_int(s: str) -> int:
    """int(s) for a decimal integer string of any length.

    Strings int() rejects for their syntax are still rejected with its
    ValueError; only strings past the digit limit go through Decimal.
    """
    try:
        return int(s)
    except ValueError:
        digits = s[1:] if s[:1] in ("+", "-") else s
        if not (digits.isascii() and digits.isdigit()):
            raise
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
    if packed > LEAF_MAX_BITS:
        return _karatsuba(a, b)
    if packed > BINARY_MAX_BITS and slot <= DECIMAL_MAX_SLOT_BITS:
        return _kronecker_decimal(a, b, slot)
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


def _kronecker_decimal(a, b, slot):
    # Digit strings, not ints, cross between the two number types: int <->
    # Decimal conversion of a packed operand takes time quadratic in its size.
    width = slot * 30103 // 100000 + 1  # decimal digits; 10**width > 2**slot

    def pack(u):
        return Decimal("".join(int_to_str(c).zfill(width) for c in reversed(u)))

    x = pack(a)
    y = x if b is a else pack(b)
    n = len(a) + len(b) - 1
    digits = str(_EXACT.multiply(x, y)).zfill(n * width)
    return [
        str_to_int(digits[i - width : i]) for i in range(n * width, 0, -width)
    ]


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
            raise ValueError("coefficient index must be >= 0, got %d" % k)
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


def _binomial_row(n):
    """Coefficients of (1 + x)^n, C(n, 0) .. C(n, n), by the exact
    recurrence C(n, k+1) = C(n, k) (n-k) / (k+1)."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def _lpow(u, e):
    """Coefficient list u**e for e >= 1, by repeated squaring."""
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
        raise ValueError("exponent must be >= 0, got %d" % e)
    if e == 0:
        return ONE
    return IntPolynomial._raw(_lpow(p.coeffs, e))


def coeff(p: IntPolynomial, k: int) -> int:
    """Coefficient of x^k in p; 0 beyond the degree."""
    return p.coeff(k)
