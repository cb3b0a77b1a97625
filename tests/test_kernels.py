"""The convolution and subset-sweep kernels against naive references, on
every path each kernel takes."""

import math
import random
import sys
import tracemalloc
from itertools import zip_longest

import pytest

from indseqlab import indpoly, intpoly
from indseqlab.indpoly import ORACLE_MAX_VERTICES, independent_set_counts, indpoly_tree
from indseqlab.intpoly import IntPolynomial, convolve
from indseqlab.trees import build_family, parse_family, random_tree, star


def naive_convolve(a, b):
    # reference product, written independently of the kernel
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


def random_coeffs(rng, size, bits, signed=True):
    lo = -(1 << bits) if signed else 0
    return [rng.randint(lo, 1 << bits) for _ in range(size)]


def test_py_convolve_matches_naive():
    rng = random.Random(2024)
    for _ in range(200):
        a = random_coeffs(rng, rng.randint(1, 70), rng.choice([4, 32, 128]))
        b = random_coeffs(rng, rng.randint(1, 70), rng.choice([4, 32, 128]))
        assert convolve(a, b) == naive_convolve(a, b)


def test_py_convolve_empty_and_singleton():
    assert convolve([], [1, 2]) == []
    assert convolve([1, 2], []) == []
    assert convolve([], []) == []
    assert convolve([7], [3]) == [21]
    assert convolve([-7], [3, 0, 5]) == [-21, 0, -35]


@pytest.fixture
def paths_taken(monkeypatch):
    """Names of the multiplication paths the kernel entered."""
    taken = set()
    for name in ("_schoolbook", "_kronecker_binary", "_kronecker_two_point", "_karatsuba"):
        inner = getattr(intpoly, name)

        def spy(*args, _inner=inner, _name=name):
            taken.add(_name)
            return _inner(*args)

        monkeypatch.setattr(intpoly, name, spy)
    return taken


# (paths entered, coefficient count, coefficient bits, leaf cap).  Binary
# packs up to 2^18 bits per operand; up to twice the leaf cap the product
# is evaluated at +-X as Decimals, and past that it splits Karatsuba-style
# first.  300 x 303 coefficients of 1,000 bits pack into 608,727 bits:
# below the default cap, and between a cap of 2^19 and twice it.
PATH_SIZES = [
    ({"_schoolbook"}, intpoly.SCHOOLBOOK_MAX, 300, None),
    ({"_kronecker_binary"}, 60, 64, None),
    ({"_kronecker_binary"}, 30, 9000, None),  # slots too wide for decimal
    ({"_karatsuba", "_kronecker_binary"}, 30, 9000, 1 << 19),  # and past the cap
    ({"_kronecker_two_point"}, 300, 1000, None),
    ({"_kronecker_two_point"}, 300, 1000, 1 << 19),
    ({"_karatsuba", "_kronecker_two_point"}, 300, 1000, 1 << 18),
]


def path_id(paths, size, bits, leaf_cap):
    # The Decimal range below the leaf cap keeps the id it had when the
    # one-point leaf _kronecker_decimal took it, before the two-point
    # kernel took the whole range.
    if paths == {"_kronecker_two_point"} and leaf_cap is None:
        paths = {"_kronecker_decimal"}
    return "%s-%d-%d" % ("+".join(sorted(paths)), size, bits)


@pytest.mark.parametrize(
    "paths,size,bits,leaf_cap",
    PATH_SIZES,
    ids=[path_id(*row) for row in PATH_SIZES],
)
def test_convolve_paths_match_naive(monkeypatch, paths_taken, paths, size, bits, leaf_cap):
    if leaf_cap is not None:
        monkeypatch.setattr(intpoly, "LEAF_MAX_BITS", leaf_cap)
    rng = random.Random(size)
    a = random_coeffs(rng, size, bits, signed=False)
    b = random_coeffs(rng, size + 3, bits, signed=False)
    ab = naive_convolve(a, b)
    assert convolve(a, b) == ab
    assert paths_taken == paths
    assert convolve(b, a) == ab
    # squaring packs the operand once and must give the same product
    assert convolve(a, a) == naive_convolve(a, list(a))
    # signed operands split into four nonnegative products
    s = random_coeffs(rng, size, bits)
    assert convolve(s, b) == naive_convolve(s, b)
    assert convolve(s, s) == naive_convolve(s, list(s))
    # all-zero operands, alone and against a nonzero one
    zeros = [0] * size
    assert convolve(zeros, b) == [0] * (2 * size + 2)
    assert convolve(zeros, zeros) == [0] * (2 * size - 1)


def test_convolve_unbalanced_operands():
    rng = random.Random(4)
    for short, long_, bits in [(9, 400, 64), (20, 900, 1200), (12, 250, 6000)]:
        a = random_coeffs(rng, short, bits)
        b = random_coeffs(rng, long_, bits)
        assert convolve(a, b) == naive_convolve(a, b)
        assert convolve(b, a) == naive_convolve(a, b)


def leaf_slot(a, b):
    # the slot _convolve_nonneg hands its leaves
    return max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()


def slot_digits(slot):
    return slot * 30103 // 100000 + 1


def test_decimal_leaf_matches_naive():
    # the shapes the Decimal range takes below the leaf cap, where one
    # point used to suffice, evaluated at +-X
    rng = random.Random(9)
    dense = random_coeffs(rng, 40, 700, signed=False)
    sparse = [c if rng.random() < 0.2 else 0 for c in random_coeffs(rng, 60, 300, signed=False)]
    cases = [
        (dense, dense),  # a square
        (dense[:9], random_coeffs(rng, 300, 50, signed=False)),  # lopsided
        (dense + [0] * 7, dense[:20] + [0] * 5),  # zero top slots: a short digit string
        (dense[:10] + [0] * 30, dense[:10] + [0] * 30),  # the high half all zero
        ([0] * 30 + dense[:10], [0] * 30 + dense[:10]),  # the low half all zero
        (sparse, sparse),  # zero runs in both halves, at the cut too
        ([0] * 12, dense),  # an all-zero operand
        ([0] * 12, [0] * 12),
    ]
    for a, b in cases:
        want = naive_convolve(a, b)
        assert intpoly._kronecker_two_point(a, b, leaf_slot(a, b)) == want
    assert any(not c for c in naive_convolve(sparse, sparse))
    # a top product coefficient of exactly D digits: 10**30 in slots of
    # D = 31 digits, so 2d = 32
    assert slot_digits(100) == 31 and 10**31 > 2**100
    a = [1] * 9 + [10**15]
    want = naive_convolve(a, a)
    assert len(str(want[-1])) == 31
    assert intpoly._kronecker_two_point(a, a, 100) == want
    b = [7] * 12 + [10**15]
    assert intpoly._kronecker_two_point(a, b, 100) == naive_convolve(a, b)


def test_two_point_matches_naive():
    rng = random.Random(15)
    dense = random_coeffs(rng, 41, 700, signed=False)
    cases = [
        (dense, dense),  # a square of odd length
        (dense[:40], dense[:40]),  # a square of even length
        (dense, dense[:40]),  # odd against even
        (dense[:40], random_coeffs(rng, 35, 500, signed=False)),  # even against odd
        ([0] + dense[1:], [0] + dense[1:]),  # zero first coefficients
        (dense[:-1] + [0], dense[:30] + [0]),  # zero last coefficients
        ([0] + dense[1:-1] + [0], [0] + dense[1:-1] + [0]),
        (dense[:9], random_coeffs(rng, 300, 50, signed=False)),  # 9 against 300
        (random_coeffs(rng, 300, 50, signed=False), dense[:9]),
        ([1] * 30, random_coeffs(rng, 31, 3000, signed=False)),  # 1 against 3,000 bits
        ([rng.getrandbits(3000) for _ in range(30)], [1, 0] * 15),
        ([(1 << 700) - 1] * 41, [(1 << 700) - 1] * 41),  # the largest coefficients the slot allows
        ([0] * 12, dense),  # an all-zero operand
    ]
    for a, b in cases:
        want = naive_convolve(a, b)
        assert intpoly._kronecker_two_point(a, b, leaf_slot(a, b)) == want
    # slots of an even and an odd digit count, so that 2d is D and D + 1
    widths = {slot_digits(leaf_slot(a, b)) % 2 for a, b in cases}
    assert widths == {0, 1}
    # a top coefficient of exactly D digits, as in the Decimal leaf's test:
    # 10**30 in slots of D = 31 digits, so 2d = 32
    a = [1] * 9 + [10**15]
    assert intpoly._kronecker_two_point(a, a, 100) == naive_convolve(a, a)
    b = [7] * 12 + [10**15]
    assert intpoly._kronecker_two_point(a, b, 100) == naive_convolve(a, b)


def test_small_decimal_leaves_match_naive(monkeypatch, paths_taken):
    # every packed product goes Decimal: up to 2**13 bits it is evaluated
    # at +-X, and past that it splits Karatsuba-style first, so the small
    # operands here take both paths
    monkeypatch.setattr(intpoly, "BINARY_MAX_BITS", 0)
    monkeypatch.setattr(intpoly, "LEAF_MAX_BITS", 1 << 12)
    rng = random.Random(12)
    a = random_coeffs(rng, 70, 40, signed=False)
    cases = [
        (a, a),
        (a, random_coeffs(rng, 65, 90, signed=False)),
        (a[:9], random_coeffs(rng, 200, 60, signed=False)),
        (a + [0] * 30, a[:30] + [0] * 20),
        ([c if rng.random() < 0.2 else 0 for c in a], a),
        ([0] * 40, a),
        (random_coeffs(rng, 50, 60), random_coeffs(rng, 45, 60)),  # signed
    ]
    for x, y in cases:
        want = naive_convolve(x, y)
        assert convolve(x, y) == want
        assert convolve(y, x) == want
    assert {"_karatsuba", "_kronecker_two_point"} <= paths_taken
    assert "_kronecker_binary" not in paths_taken


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int/str digit limit"
)


@needs_digit_limit
def test_decimal_slots_stay_under_the_digit_limit():
    # the Decimal kernel converts each slot of 2d = 2 ceil(D/2) digits with
    # plain int() and str(), so the widest slot it takes must fit CPython's
    # default digit limit
    width = slot_digits(intpoly.DECIMAL_MAX_SLOT_BITS)
    assert 10**width > 2**intpoly.DECIMAL_MAX_SLOT_BITS
    assert width + (width & 1) <= sys.int_info.default_max_str_digits
    # a product at that slot: 40 coefficients of 6,497 bits, 3,914 digits
    rng = random.Random(13)
    a = [rng.getrandbits(6497) | 1 << 6496 for _ in range(40)]
    assert leaf_slot(a, a) == intpoly.DECIMAL_MAX_SLOT_BITS
    assert intpoly._kronecker_two_point(a, a, leaf_slot(a, a)) == naive_convolve(a, a)


@needs_digit_limit
def test_decimal_leaf_under_a_lowered_digit_limit(paths_taken):
    # PYTHONINTMAXSTRDIGITS can lower the limit to 640 digits; wider slots
    # then multiply as ints.  61 slots of up to 5,006 bits pack into less
    # than the default leaf cap.
    rng = random.Random(14)
    a = [rng.getrandbits(2500) for _ in range(60)]
    b = [rng.getrandbits(2500) for _ in range(61)]
    assert 61 * leaf_slot(a, b) <= intpoly.LEAF_MAX_BITS
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert convolve(a, b) == naive_convolve(a, b)
    finally:
        sys.set_int_max_str_digits(saved)
    assert paths_taken == {"_kronecker_two_point", "_kronecker_binary"}


@needs_digit_limit
@pytest.mark.parametrize("limit", [640, 1507])
def test_two_point_under_a_lowered_digit_limit(monkeypatch, paths_taken, limit):
    # 61 slots of 5,006 bits pack into 305,366 bits, between a lowered cap
    # of 2^18 and twice it.  The slot has D = 1,507 digits, so the
    # two-point slots have 2d = 1,508: past a limit of 640 digits, and past
    # one of exactly D.
    monkeypatch.setattr(intpoly, "LEAF_MAX_BITS", 1 << 18)
    rng = random.Random(16)
    a = [rng.getrandbits(2500) | 1 << 2499 for _ in range(60)]
    b = [rng.getrandbits(2500) | 1 << 2499 for _ in range(61)]
    assert slot_digits(leaf_slot(a, b)) == 1507
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert convolve(a, b) == naive_convolve(a, b)
    finally:
        sys.set_int_max_str_digits(saved)
    assert paths_taken == {"_kronecker_two_point", "_kronecker_binary"}


def decimal_peak_ratio(count):
    # traced peak of one square of `count` coefficients of 5,162 bits,
    # reproduce's top-level width, over the packed operand
    rng = random.Random(count)
    a = [rng.getrandbits(5162) | 1 << 5161 for _ in range(count)]
    slot = leaf_slot(a, a)
    assert intpoly.BINARY_MAX_BITS < count * slot <= 2 * intpoly.LEAF_MAX_BITS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        intpoly._kronecker_two_point(a, a, slot)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (count * slot / 8), count * slot


def test_decimal_leaf_peak_memory():
    # 200 coefficients, below the leaf cap.  The peak, measured 5.1x, is
    # the first product held while the second is computed, and that
    # multiply's transform.
    ratio, packed = decimal_peak_ratio(200)
    assert packed <= intpoly.LEAF_MAX_BITS
    assert ratio < 7.5


def test_two_point_peak_memory():
    # 420 coefficients, just past the leaf cap; measured 6.3x
    ratio, packed = decimal_peak_ratio(420)
    assert intpoly.LEAF_MAX_BITS < packed
    assert ratio < 7.5


def random_graph_masks(rng, n, p):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def naive_independent_counts(masks):
    # per-subset pair test, no memoization at all
    n = len(masks)
    counts = [0] * (n + 1)
    for sub in range(1 << n):
        verts = [v for v in range(n) if sub >> v & 1]
        if all(not (masks[u] >> v & 1) for i, u in enumerate(verts) for v in verts[i + 1 :]):
            counts[len(verts)] += 1
    return counts


def branching_independent_counts(masks):
    # I(G) = I(G - v) + x I(G - N[v]) on the lowest live vertex v, memoized
    memo = {0: [1]}

    def count(alive):
        if alive not in memo:
            v = (alive & -alive).bit_length() - 1
            rest = alive & ~(1 << v)
            with_v = [0] + count(rest & ~masks[v])
            memo[alive] = [x + y for x, y in zip_longest(count(rest), with_v, fillvalue=0)]
        return memo[alive]

    counts = count((1 << len(masks)) - 1)
    return counts + [0] * (len(masks) + 1 - len(counts))


def test_py_subset_sweep_matches_naive():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 11)
        masks = random_graph_masks(rng, n, rng.choice([0.1, 0.3, 0.7]))
        assert independent_set_counts(masks) == naive_independent_counts(masks)


def relabelled(masks, perm):
    # the same graph with vertex v renamed perm[v]
    out = [0] * len(masks)
    for v, nbrs in enumerate(masks):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(masks)) if nbrs >> u & 1)
    return out


def shuffled(rng, masks):
    perm = list(range(len(masks)))
    rng.shuffle(perm)
    return relabelled(masks, perm)


@pytest.mark.parametrize("n", range(0, ORACLE_MAX_VERTICES + 1))
def test_subset_sweep_every_size(n):
    # n > 16 adds vertices outside the bitset sweep: the first n - 16 of a
    # post-order, whose independent subsets are grouped by their
    # neighbours in the sweep.  Shuffled labels move them, isolated
    # vertices restart the depth-first search, and the edgeless graph and
    # K_n leave every subset or none of them independent.
    rng = random.Random(n)
    graphs = [random_graph_masks(rng, n, p) for p in (0.0, 0.15, 0.5)]
    if n > 16:
        graphs += [shuffled(rng, masks) for masks in graphs]
        forest = random_tree(n - 3, n).neighbor_masks() + [0, 0, 0]
        graphs.append(shuffled(rng, forest))
    for masks in graphs:
        assert independent_set_counts(masks) == branching_independent_counts(masks)
    assert independent_set_counts([0] * n) == [math.comb(n, k) for k in range(n + 1)]
    everyone = (1 << n) - 1
    assert independent_set_counts([everyone ^ 1 << v for v in range(n)]) == ([1, n] + [0] * n)[: n + 1]
    if n:
        tree = random_tree(n, n)
        assert IntPolynomial(independent_set_counts(tree.neighbor_masks())) == indpoly_tree(tree)


# trees of 19..22 vertices whose first post-order vertices, larger subtree
# first, border one or two vertices of the bitset sweep: a comb, a
# caterpillar, a path, a star, spiders and spherically symmetric trees
NAMED_SHAPES = (
    "Cat:" + ",".join(["1"] * 11),
    "Cat:0,2,0,2,0,2,0,2,0,2,0",
    "Path:22",
    "Star:22",
    "Spider:10",
    "Spider:7,3",
    "SST:4,4",
    "SST:3,3,1",
    "Tmt1:3,3",
    "Tmt1:2,4",
)


@pytest.mark.parametrize("spec", NAMED_SHAPES)
def test_subset_sweep_named_shapes(spec):
    # as built, with the labels reversed (the star's centre last) and shuffled
    tree = build_family(parse_family(spec))
    masks = tree.neighbor_masks()
    n = len(masks)
    for graph in (masks, relabelled(masks, range(n - 1, -1, -1)), shuffled(random.Random(spec), masks)):
        assert IntPolynomial(independent_set_counts(graph)) == indpoly_tree(tree)


@pytest.mark.parametrize("n", range(6, ORACLE_MAX_VERTICES + 1))
def test_subset_sweep_random_trees_match_the_dp(n):
    # Rand:n,1..16: from n = 18 most of these trees have a high subset T
    # other than {} whose key N(T) among the low vertices is empty
    for seed in range(1, 17):
        tree = random_tree(n, seed)
        assert IntPolynomial(independent_set_counts(tree.neighbor_masks())) == indpoly_tree(tree)


def popcount_passes(monkeypatch, masks):
    """The bitset lists independent_set_counts popcounts, one per pass."""
    passes = []
    real = indpoly._popcounts

    def spy(sets):
        sets = tuple(sets)
        passes.append(sets)
        return real(sets)

    monkeypatch.setattr(indpoly, "_popcounts", spy)
    independent_set_counts(masks)
    monkeypatch.undo()
    return passes


def test_subset_sweep_counts_each_key_once(monkeypatch):
    # Every independent singleton is set in level 1, so two keys never mask
    # the levels alike: a repeated pass means a key, the empty key of T = {}
    # above all, was popcounted twice.
    for n in range(6, ORACLE_MAX_VERTICES + 1):
        for seed in range(1, 17):
            passes = popcount_passes(monkeypatch, random_tree(n, seed).neighbor_masks())
            assert len(set(passes)) == len(passes), (n, seed)
            # the unmasked levels, all singletons in level 1, once
            assert sum(p[1].bit_count() == min(n, 16) for p in passes) == 1, (n, seed)
            if n <= 16:
                # T = {} is the only T and seeds the counts alone
                assert len(passes) == 1


@pytest.mark.parametrize("spec", ["Cat:" + ",".join(["1"] * 11), "Path:22", "Star:22"])
def test_high_vertices_border_one_sweep_vertex(spec):
    # Taking the larger subtree first, the 6 high vertices are the far end
    # of the comb's spine or the path, or 6 leaves of the star, next to one
    # vertex of the bitset sweep.  Lowest label first, the comb's would be
    # 6 pendant leaves on 6 spine vertices.
    masks = build_family(parse_family(spec)).neighbor_masks()
    order = indpoly._sweep_order(masks, 6)
    assert sorted(order) == list(range(22))
    high = sum(1 << v for v in order[16:])
    border = 0
    for v in order[16:]:
        border |= masks[v] & ~high
    assert border.bit_count() == 1


def test_subset_sweep_refuses_malformed_masks():
    # each answer would depend on which end of an edge the sweep reads
    with pytest.raises(ValueError, match="edge 0-1 is listed at 0 only"):
        independent_set_counts([2, 0])
    with pytest.raises(ValueError, match="edge 1-0 is listed at 1 only"):
        independent_set_counts([0, 1])
    # the lowest neighbour first
    with pytest.raises(ValueError, match="edge 0-1 is listed at 0 only"):
        independent_set_counts([6, 0, 0])
    # two one-sided edges, one listed at its lower end and one at its higher
    with pytest.raises(ValueError, match="edge 0-2 is listed at 0 only"):
        independent_set_counts([4, 1, 0])
    loop = [0] * 17
    loop[16] = 1 << 16
    with pytest.raises(ValueError, match="vertex 16 is its own neighbour"):
        independent_set_counts(loop)
    with pytest.raises(ValueError, match="vertex 2 has a neighbour outside 0..2"):
        independent_set_counts([2, 1, 1 << 3])
    with pytest.raises(ValueError, match="vertex 0 has a neighbour outside 0..1"):
        independent_set_counts([-2, 1])
    # such a pair on 18 vertices, where 0 and 17 come first in the
    # post-order and are not swept as bitsets: 0 lists 17, and 4 lists 1,
    # which the search reaches first, through 3
    balanced = [0] * 18
    balanced[0], balanced[1], balanced[3], balanced[4] = 1 << 17, 1 << 3, 1 << 1 | 1 << 4, 1 << 1 | 1 << 3
    assert sorted(indpoly._sweep_order(balanced, 2)[16:]) == [0, 17]
    with pytest.raises(ValueError, match="edge 0-17 is listed at 0 only"):
        independent_set_counts(balanced)
    # a self-loop on a vertex the bitsets sweep, with no relabelling
    loop = star(6).neighbor_masks()
    loop[3] |= 1 << 3
    with pytest.raises(ValueError, match="vertex 3 is its own neighbour"):
        independent_set_counts(loop)
    # On 20 vertices the sweep relabels: vertex 9 of Rand:20,1 is high
    # (label 17) and vertex 2 low (label 4), also once 9 or 2 lists the
    # other alone.  Each fault is named in the labels as given.
    masks = random_tree(20, 1).neighbor_masks()
    assert not masks[9] >> 2 & 1
    for v, u in ((9, 2), (2, 9)):
        bad = list(masks)
        bad[v] |= 1 << u
        order = indpoly._sweep_order(bad, 4)
        assert (order.index(9), order.index(2)) == (17, 4)
        with pytest.raises(ValueError, match="^edge %d-%d is listed at %d only$" % (v, u, v)):
            independent_set_counts(bad)
    for v, mask, msg in [(9, masks[9] | 1 << 20, "vertex 9 has a neighbour outside 0..19"),
                         (2, -masks[2], "vertex 2 has a neighbour outside 0..19"),
                         (9, masks[9] | 1 << 9, "vertex 9 is its own neighbour"),
                         (2, masks[2] | 1 << 2, "vertex 2 is its own neighbour")]:
        bad = list(masks)
        bad[v] = mask
        with pytest.raises(ValueError, match="^%s$" % msg):
            independent_set_counts(bad)


def test_subset_sweep_budget_enforced():
    with pytest.raises(ValueError):
        independent_set_counts([0] * (ORACLE_MAX_VERTICES + 1))


def names_reached(fn, module):
    """The names fn's code refers to, with those of every function of
    `module` that it names, transitively: nested code (comprehensions,
    lambdas) is read with its function, and a functools.cache wrapper is
    followed to the function it wraps."""
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
        for name in set(code.co_names) - names:
            names.add(name)
            obj = getattr(module, name, None)
            obj = getattr(obj, "__wrapped__", obj)
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "__code__"):
                codes.append(obj.__code__)
    return names


def test_subset_sweep_shares_no_code_with_the_dp():
    # the oracle checks the tree DP only while it is written apart from it
    names = names_reached(independent_set_counts, indpoly)
    assert {"_fault", "_sweep_order", "_relabelled", "_avoid_patterns"} <= names
    dp = {"_evaluate", "_root_pair", "_packed", "_ON_LISTS", "_lproduct", "_levels",
          "_unpack", "convolve", "tree_from_edges", "RootedTree"}
    assert not names & dp
