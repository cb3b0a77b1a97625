"""Independence polynomials of trees and forests, exactly.

The generic route is the DP carrying per-vertex pairs (in, out) =
(sets containing the vertex, sets avoiding it), children before parents:

    in(v)  = x * prod over children c of out(c)
    out(v) = prod over children c of (in(c) + out(c))

with the tree's polynomial being in(root) + out(root).  Spherically
symmetric trees get a per-level fast path, indpoly_sst, that never
materializes the tree.

Both DPs run on plain ints by one width rule, _represented.  Every
coefficient a DP ever holds counts the independent sets of some subforest
of the tree T, so none exceeds i(T) = I(T; 1).  Slots of w bytes with
2**(8w) > i(T) therefore never carry, and the DP evaluated at x = 2**(8w)
holds each polynomial packed one coefficient per slot (Kronecker
substitution over the whole tree); the root's pair is unpacked once.  A
tree on n vertices has i(T) <= 2**(n-1) + 1 < 2**n (the star attains it),
so w = ceil(n/8) is safe without counting; trees on at most
_SLOTS_FROM_N_MAX_VERTICES vertices take that width.  Wider slots cost
more on larger trees, so those take w = ceil(bits(i(T)) / 8) from one pass
of the same DP at x = 1, which gives i(T) exactly.  Packed, a subtree's
polynomial spans its degree times 8w bits however small its own
coefficients are, and the root's products run at CPython's Karatsuba
speed; so a tree whose width 8wn exceeds the DP's bound, the measured
crossover (_PACKED_MAX_BITS for the tree DP, _SST_PACKED_MAX_BITS for the
fast path), runs the same DP on coefficient lists instead, whose products
`intpoly.convolve` packs one at a time with slots fitted to the operands.
A tree that runs on lists even in one-byte slots needs no width and skips
the count.  A subset-sweep oracle (shared code with nothing else) provides
an independent cross-check up to 22 vertices.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass

from .intpoly import IntPolynomial, _binomial_row, _ladd, _lpow, _unpack_slots, convolve
from .trees import RootedTree, _level_counts, tree_from_edges

ORACLE_MAX_VERTICES = 22
# the subset sweep keeps one bitset of 2**_SWEEP_LOW bits per set size
_SWEEP_LOW = 16
# A tree runs the DP packed while 8 * w * n, a bound on its packed
# polynomial's width in bits, is at most this.  Measured (BENCH_5.json),
# spiders and complete binary trees break even between 2**16 and 2**17.5,
# random trees and caterpillars near 2**18, paths past it.
_PACKED_MAX_BITS = 1 << 16
# Trees on at most this many vertices take w = ceil(n/8) byte slots rather
# than counting i(T) first.  Measured (benchmarks/layers.py, BENCH_7.json
# "layers"), slots from n take 0.58-0.95x the time of counting for every
# shape up to 112 vertices; at 120-128 caterpillars, spiders and random
# trees lose (up to 1.11x), and past 160 most shapes do (up to 1.41x).  A
# multiple of 8, so a star at the bound fills its slots exactly.
_SLOTS_FROM_N_MAX_VERTICES = 112
# indpoly_sst runs packed while 8 * w * n is at most this.  Measured
# (benchmarks/layers.py, BENCH_6.json) on 8 * w * (alpha + 1), which is
# about half of 8 * w * n on every shape timed: trees below 2**15 bits of
# that run 2-5x faster packed, the two representations break even from
# about 2**17 to 2**18.5, and trees past 2**19 run 1.4x (T(2^6 1^17)) to
# 5x (T(2^7 1^23)) slower packed.
_SST_PACKED_MAX_BITS = 1 << 19


# raw coefficient-list helpers; IntPolynomial wraps only the final results


def _lproduct(factors):
    """Product of coefficient lists, smallest pair first.

    Pairing the two shortest factors keeps the convolution sizes balanced
    on high-degree vertices; the result is order-independent.
    """
    if len(factors) <= 2:
        if not factors:
            return [1]
        return factors[0] if len(factors) == 1 else convolve(*factors)
    heap = [(len(f), i, f) for i, f in enumerate(factors)]
    heapq.heapify(heap)
    tie = len(factors)
    while len(heap) > 1:
        _, _, f = heapq.heappop(heap)
        _, _, g = heapq.heappop(heap)
        h = convolve(f, g)
        heapq.heappush(heap, (len(h), tie, h))
        tie += 1
    return heap[0][2]


def _lshift(p):
    return [0] + p


# The DP's arithmetic in one representation of polynomials, as (one, add,
# times_x, product of a list, c-th power, L -> (1 + x)^L): on coefficient
# lists here, and on packed ints by _packed.
_ON_LISTS = ([1], _ladd, _lshift, _lproduct, _lpow, _binomial_row)


def _packed(shift):
    """The DP's arithmetic on ints standing for polynomials evaluated at
    x = 2**shift, so that times x is a shift; shift 0 counts the sets."""
    return 1, operator.add, shift.__rlshift__, math.prod, pow, ((1 << shift) + 1).__pow__


def _evaluate(tree: RootedTree, arithmetic):
    """(in(root), out(root)) by the DP over the tree's breadth-first order
    reversed, so each vertex after its children, computed with
    `arithmetic`, one of the tables above.

    Leaves are never stored: a leaf child contributes out = 1 to in(v),
    which is skipped, and in + out = 1 + x to out(v), so L leaf children
    fold into one (1 + x)^L factor, kept per distinct L.  Child values are
    dropped once their parent holds them.
    """
    one, add, times_x, prod, _, binomial = arithmetic
    children = tree.children
    ins = [None] * tree.n
    outs = [None] * tree.n
    rows = {}
    for v in reversed(tree.order):
        kids = children[v]
        if not kids:
            continue
        child_outs = []
        totals = []
        for c in kids:
            if children[c]:
                o = outs[c]
                child_outs.append(o)
                totals.append(add(ins[c], o))
                ins[c] = outs[c] = None
        leaves = len(kids) - len(child_outs)
        if leaves:
            row = rows.get(leaves)
            if row is None:
                row = rows[leaves] = binomial(leaves)
            totals.append(row)
        ins[v] = times_x(prod(child_outs))
        outs[v] = prod(totals)
    if not children[tree.root]:
        return times_x(one), one
    return ins[tree.root], outs[tree.root]


def _unpack(value, w):
    """Coefficient list of a positive int packed in w-byte slots."""
    return _unpack_slots(value, w, -(-value.bit_length() // (8 * w)))


def _represented(dp, n, bound):
    """(values, coeffs): the values dp(arithmetic) computes for a tree on n
    vertices, and coeffs(*values), the coefficient list of their sum.

    The one width rule of both DPs (see the module docstring): w-byte
    slots from n up to _SLOTS_FROM_N_MAX_VERTICES vertices, else from a
    count pass at x = 1; packed ints while 8wn <= bound, else coefficient
    lists, with no count pass when one-byte slots already span more.
    """
    if 8 * n <= bound:
        count = (1 << n) - 1 if n <= _SLOTS_FROM_N_MAX_VERTICES else sum(dp(_packed(0)))
        w = (count.bit_length() + 7) >> 3
        if 8 * w * n <= bound:
            return dp(_packed(8 * w)), lambda *values: _unpack(sum(values), w)
    return dp(_ON_LISTS), lambda *values: functools.reduce(_ladd, values)


def _root_pair(tree: RootedTree):
    """((in(root), out(root)), coeffs): the root's pair as the DP holds it,
    packed ints or coefficient lists by the width rule, and its decoder
    (see _represented)."""
    return _represented(functools.partial(_evaluate, tree), tree.n, _PACKED_MAX_BITS)


def indpoly_tree(tree: RootedTree) -> IntPolynomial:
    """Independence polynomial of a rooted tree by the tree DP."""
    (ins, outs), coeffs = _root_pair(tree)
    return IntPolynomial._raw(coeffs(ins, outs))


def _levels(counts, arithmetic):
    """(in, out) at the root of the spherically symmetric tree with the
    given per-level child counts, computed with `arithmetic`."""
    one, add, times_x, _, power, _ = arithmetic
    inp, outp = times_x(one), one
    for c in reversed(counts):
        # the larger out first, while the smaller new in does not exist yet
        outp, inp = power(add(inp, outp), c), times_x(power(outp, c))
    return inp, outp


def indpoly_sst(child_counts) -> IntPolynomial:
    """Independence polynomial of the spherically symmetric tree with the
    given per-level child counts, computed level by level.

    All subtrees hanging at one depth are identical, so one (in, out) pair
    per level suffices: at the leaves in = x, out = 1; one level up with c
    children below, in = x * out_below^c and out = (in_below + out_below)^c.
    Every in, out, in + out and power of them is the polynomial of a
    subforest of T, so the tree DP's width rule holds here too, with n
    the vertex count and _SST_PACKED_MAX_BITS the bound (see the module
    docstring).  Agrees with indpoly_tree on the materialized tree.
    """
    counts, n = _level_counts(child_counts)
    values, coeffs = _represented(functools.partial(_levels, counts), n, _SST_PACKED_MAX_BITS)
    return IntPolynomial._raw(coeffs(*values))


def indpoly_forest(trees) -> IntPolynomial:
    """Product of the component polynomials; the empty forest gives 1."""
    return IntPolynomial._raw(
        _lproduct([list(indpoly_tree(t).coeffs) for t in trees])
    )


@dataclass(frozen=True)
class RootSplit:
    """Independence polynomial split at a vertex: the polynomial of sets
    avoiding it plus the polynomial of sets containing it."""

    without_root: IntPolynomial
    with_root: IntPolynomial

    @property
    def total(self) -> IntPolynomial:
        return self.without_root + self.with_root


def root_split(tree: RootedTree, v: int) -> RootSplit:
    """Split the independence polynomial of `tree` at vertex v.

    without_root counts the independent sets avoiding v (the forest
    tree - v); with_root counts those containing v, which is x times the
    polynomial of the forest tree - N[v].  Their sum is indpoly_tree(tree).
    Both are the DP's (out, in) pair at the root once v and 0 swap labels.
    """
    if not 0 <= v < tree.n:
        raise ValueError("vertex %d out of range" % v)

    def swap(u):
        return 0 if u == v else v if u == 0 else u

    rerooted = tree_from_edges(tree.n, [(swap(p), swap(c)) for p, c in tree.edges()])
    (with_r, without), coeffs = _root_pair(rerooted)
    return RootSplit(
        without_root=IntPolynomial._raw(coeffs(without)),
        with_root=IntPolynomial._raw(coeffs(with_r)),
    )


def indpoly_oracle(tree: RootedTree) -> IntPolynomial:
    """Independent brute-force count over all 2^n vertex subsets (see
    independent_set_counts).  No code shared with indpoly_tree; raises
    ValueError past ORACLE_MAX_VERTICES = 22 vertices."""
    return IntPolynomial._raw(independent_set_counts(tree.neighbor_masks()))


@functools.cache
def _avoid_patterns(low):
    """avoids[u] for u < low: bit S of a 2**low-bit set is set iff u is not
    in S -- runs of 2^u ones, 2^u zeros.  Built once per low (at most
    _SWEEP_LOW + 1 tuples), on first use."""
    avoids = []
    for u in range(low):
        pattern, period = (1 << (1 << u)) - 1, 2 << u
        while period < 1 << low:
            pattern |= pattern << period
            period <<= 1
        avoids.append(pattern)
    return tuple(avoids)


def independent_set_counts(neighbor_masks):
    """Count independent sets by size via a sweep over all vertex subsets.

    neighbor_masks[v] is the bitmask of vertices adjacent to v.  Returns
    counts[k] = number of independent k-subsets, for k = 0..n.  The low
    L = min(n, 16) vertices are swept as bitsets: bit S of level[k] is
    set iff S, a subset of {0..L-1}, is independent with |S| = k.  Each
    independent subset T of the remaining vertices then adds the sets of
    level[k] that avoid N(T).  Budget-limited to n <= 22 (a 4M-subset
    sweep).
    """
    n = len(neighbor_masks)
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(
            "subset sweep limited to n <= %d, got n=%d" % (ORACLE_MAX_VERTICES, n)
        )
    low = min(n, _SWEEP_LOW)
    avoids = _avoid_patterns(low)

    def avoiding(nbrs, width):
        # sets of width bits avoiding every low vertex in nbrs
        pattern = (1 << width) - 1
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            pattern &= avoids[u]
            nbrs &= nbrs - 1
        return pattern

    level = [1] + [0] * low
    for v in range(low):
        # S + {v} is independent iff S is and S avoids N(v); its bit is S + 2^v
        avoid = avoiding(neighbor_masks[v] & ((1 << v) - 1), 1 << v)
        for k in range(v, -1, -1):
            level[k + 1] |= (level[k] & avoid) << (1 << v)
    counts = [0] * (n + 1)
    high = range(low, n)
    for t in range(1 << len(high)):
        verts = [v for i, v in enumerate(high) if t >> i & 1]
        nbrs = 0
        for v in verts:
            nbrs |= neighbor_masks[v]
        if nbrs >> low & t:
            continue  # T itself is not independent
        avoid = avoiding(nbrs & ((1 << low) - 1), 1 << low)
        for k, bits in enumerate(level):
            counts[k + len(verts)] += (bits & avoid).bit_count()
    return counts
