"""Independence polynomial routes: DP, fast path, forests, split, oracle."""

import functools
import itertools
import random

import pytest

from indseqlab import indpoly
from indseqlab.indpoly import (
    independent_set_counts,
    indpoly_forest,
    indpoly_oracle,
    indpoly_sst,
    indpoly_tree,
    root_split,
)
from indseqlab.intpoly import IntPolynomial, poly_pow
from indseqlab.rng import derive_seed
from indseqlab.trees import (
    caterpillar,
    independence_number,
    path,
    prufer_decode,
    random_tree,
    spider,
    star,
    tmt1,
    tree_from_edges,
)


def P(*cs):
    return IntPolynomial(cs)


def each_representation(test):
    """Run the test twice: with every tree's DP and every level recursion
    forced onto packed ints, then onto coefficient lists, whatever their
    width."""

    @functools.wraps(test)
    def run():
        for bound in (1 << 62, 0):
            with pytest.MonkeyPatch.context() as mp:
                for name in ("_PACKED_MAX_BITS", "_SST_PACKED_MAX_BITS"):
                    mp.setattr(indpoly, name, bound)
                test()

    return run


def packed_width(tree):
    """8 w n, the width bound the DP compares with _PACKED_MAX_BITS."""
    count = sum(indpoly_tree(tree).coeffs)
    return 8 * ((count.bit_length() + 7) // 8) * tree.n


def path_poly(n):
    """I(P_n) by the recurrence I(P_n) = I(P_{n-1}) + x I(P_{n-2})."""
    prev, cur = [1], [1, 1]  # I(P_0), I(P_1)
    for _ in range(n - 1):
        nxt = cur + [0]
        for k, c in enumerate(prev):
            nxt[k + 1] += c
        prev, cur = cur, nxt
    return IntPolynomial(cur)


def test_small_trees():
    assert indpoly_tree(path(1)) == P(1, 1)
    assert indpoly_tree(path(2)) == P(1, 2)
    assert indpoly_tree(spider(2, 2)) == P(1, 5, 6, 1)  # the 5-path
    assert indpoly_tree(star(4)) == P(1, 4, 3, 1)


@each_representation
def test_sst_star_closed_form():
    # star with t leaves: (1+x)^t + x
    for t in range(1, 13):
        want = poly_pow(P(1, 1), t) + P(0, 1)
        assert indpoly_sst([t]) == want


@each_representation
def test_sst_matches_generic_dp():
    from indseqlab.trees import sst

    for counts in [[2, 2, 2, 2] + [1] * 9, [3, 1, 2], [1, 1, 1, 1, 1], [4]]:
        assert indpoly_sst(counts) == indpoly_tree(sst(counts))
    for m in range(1, 7):
        for t in range(1, 7):
            assert indpoly_sst([m, t, 1]) == indpoly_tree(tmt1(m, t))


@each_representation
def test_sst_matches_generic_dp_exhaustive():
    # every level profile up to depth 6 with child counts 1..3
    from indseqlab.trees import sst

    for depth in range(1, 7):
        for counts in itertools.product((1, 2, 3), repeat=depth):
            assert indpoly_sst(counts) == indpoly_tree(sst(counts))


def sst_packed_width(counts):
    """8 w n, the width indpoly_sst compares with _SST_PACKED_MAX_BITS: w
    from n up to the slot bound, from i(T) past it."""
    from indseqlab.trees import sst

    n = sst(counts).n
    count = (1 << n) - 1 if n <= indpoly._SLOTS_FROM_N_MAX_VERTICES else sum(indpoly_sst(counts).coeffs)
    return 8 * ((count.bit_length() + 7) // 8) * n


def test_sst_on_each_side_of_the_packed_bound():
    from indseqlab.trees import sst

    cases = [[t, 1] for t in range(380, 460, 10)]
    cases += [[m, m, 1] for m in (18, 19, 20, 21)]
    cases += [[1] * n for n in range(700, 1000, 60)]
    cases.sort(key=sst_packed_width)
    bound = indpoly._SST_PACKED_MAX_BITS
    split = sum(sst_packed_width(counts) <= bound for counts in cases)
    assert 3 <= split <= len(cases) - 3
    # verify's widest packed call and reproduce's narrowest call on lists
    sides = {(300, 1): True, (2,) * 6 + (1,) * 17: False}
    for counts, packed in sides.items():
        assert (sst_packed_width(counts) <= bound) == packed, counts
    unpack = indpoly._unpack
    for counts in cases[split - 3 : split + 3] + list(sides):
        want = indpoly_tree(sst(counts))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indpoly, "_unpack", lambda value, w: calls.append(w) or unpack(value, w))
            assert indpoly_sst(counts) == want
        # packed (one unpack at the root) exactly when within the bound
        assert bool(calls) == (sst_packed_width(counts) <= bound), counts
        for forced in (0, 1 << 62):  # both representations agree
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(indpoly, "_SST_PACKED_MAX_BITS", forced)
                assert indpoly_sst(counts) == want, counts


def test_sst_rejects_bad_counts():
    with pytest.raises(ValueError):
        indpoly_sst([])
    with pytest.raises(ValueError):
        indpoly_sst([2, 0])


def test_forest_products():
    assert indpoly_forest([]) == P(1)
    assert indpoly_forest([path(2), path(2)]) == P(1, 4, 4)
    m_copies = indpoly_forest([spider(3, 2)] * 3)
    assert m_copies == poly_pow(indpoly_tree(spider(3, 2)), 3)
    # 4 disjoint copies of the 9-vertex spider, 36 vertices total
    assert indpoly_forest([spider(4, 2)] * 4) == poly_pow(indpoly_tree(spider(4, 2)), 4)


def forest_masks(trees):
    masks = []
    offset = 0
    for t in trees:
        masks.extend(m << offset for m in t.neighbor_masks())
        offset += t.n
    return masks


def test_forest_matches_subset_sweep():
    # 21-vertex forest of three spiders checked against the subset sweep
    trees = [spider(3, 2)] * 3
    counts = independent_set_counts(forest_masks(trees))
    assert IntPolynomial(counts) == indpoly_forest(trees)


def test_root_split_single_vertex():
    rs = root_split(path(1), 0)
    assert rs.without_root == P(1)
    assert rs.with_root == P(0, 1)
    assert rs.total == P(1, 1)


def test_root_split_three_level_family():
    rs = root_split(tmt1(2, 2), 0)
    s22 = indpoly_tree(spider(2, 2))
    assert rs.without_root == poly_pow(s22, 2)
    assert rs.with_root == P(0, 1) * poly_pow(P(1, 2), 4)
    assert rs.total == indpoly_tree(tmt1(2, 2))


def test_root_split_matching_side_vanishes():
    for m in range(2, 7):
        for t in range(2, 7):
            h = root_split(tmt1(m, t), 0).with_root
            k = m * t
            assert h.coeff(k + 1) == 2**k
            assert h.degree == k + 1  # zero everywhere past mt+1


def test_root_split_identity_random():
    rng = random.Random(2718)
    for _ in range(1000):
        n = rng.randint(1, 20)
        tree = random_tree(n, rng.getrandbits(64))
        v = rng.randrange(n)
        rs = root_split(tree, v)
        assert rs.total == indpoly_tree(tree)
        assert rs.with_root.coeff(0) == 0
    with pytest.raises(ValueError):
        root_split(path(3), 5)


def _masks_without(tree, removed):
    """Neighbor masks of the forest tree - removed, relabelled 0..k-1."""
    keep = [u for u in range(tree.n) if u not in removed]
    index = {u: i for i, u in enumerate(keep)}
    masks = [0] * len(keep)
    for p, c in tree.edges():
        if p in index and c in index:
            masks[index[p]] |= 1 << index[c]
            masks[index[c]] |= 1 << index[p]
    return masks


@each_representation
def test_root_split_matches_subset_sweep():
    # root_split shares the DP with indpoly_tree; the sweep shares nothing
    rng = random.Random(1414)
    for _ in range(200):
        n = rng.randint(1, 14)
        tree = random_tree(n, rng.getrandbits(64))
        for v in range(n):
            rs = root_split(tree, v)
            without = independent_set_counts(_masks_without(tree, {v}))
            closed = {v, *tree.neighbors(v)}
            with_v = [0] + independent_set_counts(_masks_without(tree, closed))
            assert rs.without_root == IntPolynomial(without)
            assert rs.with_root == IntPolynomial(with_v)


@each_representation
def test_leaf_folding_smallest_trees():
    # n = 1: the root is itself a leaf; n = 2: one leaf child
    for n in (1, 2):
        assert indpoly_tree(path(n)) == indpoly_oracle(path(n))
    assert indpoly_tree(path(1)) == P(1, 1)
    assert indpoly_tree(path(2)) == P(1, 2)


@each_representation
def test_leaf_folding_stars():
    # a hub whose children are all leaves: (1+x)^(n-1) + x
    for n in range(2, 23):
        want = poly_pow(P(1, 1), n - 1) + P(0, 1)
        assert indpoly_tree(star(n)) == want == indpoly_oracle(star(n))


@each_representation
def test_leaf_folding_caterpillars_with_zero_pendants():
    for pendants in ([0], [0, 0], [0, 3], [3, 0], [0, 0, 2, 0, 0], [1, 0, 4, 0, 1, 0], [0, 5, 0, 0, 5]):
        tree = caterpillar(pendants)
        assert indpoly_tree(tree) == indpoly_oracle(tree), pendants


@each_representation
def test_leaf_folding_brooms():
    # a handle path 0 - 1 - ... - (k-1) ending in `bristles` leaves, rooted
    # at the handle's far end and, relabelled, at the bristles' hub
    for k in range(1, 8):
        for bristles in range(1, 22 - k + 1, 3):
            edges = [(i, i + 1) for i in range(k - 1)]
            edges += [(k - 1, k + j) for j in range(bristles)]
            n = k + bristles
            swap = {0: k - 1, k - 1: 0}
            hub_rooted = [(swap.get(u, u), swap.get(w, w)) for u, w in edges]
            for tree in (tree_from_edges(n, edges), tree_from_edges(n, hub_rooted)):
                assert indpoly_tree(tree) == indpoly_oracle(tree), (k, bristles)


@each_representation
def test_long_path_matches_fibonacci_recurrence():
    # 3,000 levels deep, so a recursive DP would overflow the interpreter
    # stack
    assert indpoly_tree(path(3000)) == path_poly(3000)


@each_representation
def test_slots_exactly_filled():
    # i(T) of exactly 8w bits fills w-byte slots, the narrowest the no-carry
    # bound allows: star(8) takes w = 1 from its 8 vertices (path(11) takes
    # w = 2 from its 11), and path(114), past the slot bound, w = 10 from
    # counting
    for tree, count in ((star(8), 2**7 + 1), (path(11), 233)):
        poly = indpoly_tree(tree)
        assert sum(poly.coeffs) == count and count.bit_length() == 8
        assert poly == indpoly_oracle(tree)
        rs = root_split(tree, tree.n - 1)
        assert rs.total == poly
    assert 114 > indpoly._SLOTS_FROM_N_MAX_VERTICES
    poly = indpoly_tree(path(114))
    assert poly == path_poly(114) and sum(poly.coeffs).bit_length() == 80
    assert root_split(path(114), 57).total == poly


def test_count_pass_runs_only_above_the_slot_bound(monkeypatch):
    # up to the bound the slots are w = ceil(n/8) bytes without counting;
    # past it the DP first runs at x = 1, which is _packed(0)
    bound = indpoly._SLOTS_FROM_N_MAX_VERTICES
    shifts = []
    packed = indpoly._packed
    monkeypatch.setattr(indpoly, "_packed", lambda shift: shifts.append(shift) or packed(shift))
    rng = random.Random(112)
    sizes = (9, 40, bound - 1, bound, bound + 1, bound + 9)
    cases = [(n, functools.partial(indpoly_tree, random_tree(n, rng.getrandbits(64)))) for n in sizes]
    # the fast path follows the same rule: spiders of 111 and 113 vertices
    cases += [(2 * t + 1, functools.partial(indpoly_sst, [t, 1])) for t in (55, 56)]
    assert bound in (111, 112)
    for n, poly_of in cases:
        shifts.clear()
        count_bits = sum(poly_of().coeffs).bit_length()
        if n <= bound:
            assert shifts == [8 * ((n + 7) // 8)], n
        else:
            assert shifts == [0, 8 * ((count_bits + 7) // 8)], n


def test_count_pass_skipped_where_lists_are_sure(monkeypatch):
    # a tree whose one-byte slots already span more than its bound runs on
    # lists whatever i(T) is, so it never counts; here the bound is moved
    # down to 8 * 150
    shifts = []
    packed = indpoly._packed
    monkeypatch.setattr(indpoly, "_packed", lambda shift: shifts.append(shift) or packed(shift))
    monkeypatch.setattr(indpoly, "_PACKED_MAX_BITS", 8 * 150)
    rng = random.Random(150)
    for n, counts in ((150, True), (151, False)):
        tree = random_tree(n, rng.getrandbits(64))
        shifts.clear()
        poly = indpoly_tree(tree)
        assert (0 in shifts) == counts, n
        with monkeypatch.context() as mp:
            mp.setattr(indpoly, "_PACKED_MAX_BITS", 0)
            assert indpoly_tree(tree) == poly


@each_representation
def test_trees_on_each_side_of_the_slot_bound():
    bound = indpoly._SLOTS_FROM_N_MAX_VERTICES
    rng = random.Random(113)
    for n in (bound - 1, bound, bound + 1):
        cases = [(path(n), path_poly(n)), (star(n), poly_pow(P(1, 1), n - 1) + P(0, 1))]
        cases += [(random_tree(n, rng.getrandbits(64)), None) for _ in range(3)]
        cases.append((caterpillar([3] * (n // 4 - 1) + [n % 4 + 3]), None))
        for tree, want in cases:
            assert tree.n == n
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(indpoly, "_PACKED_MAX_BITS", 0)
                on_lists = indpoly_tree(tree)
            assert want is None or on_lists == want
            assert indpoly_tree(tree) == on_lists
            assert root_split(tree, n // 2).total == on_lists
    # a star at the bound fills its slots exactly: i = 2^(n-1) + 1 has n bits
    count = sum(indpoly_tree(star(bound)).coeffs)
    assert count == 2 ** (bound - 1) + 1
    assert count.bit_length() == 8 * ((bound + 7) // 8)


@each_representation
def test_wide_stars():
    # split at the hub (0) and at a leaf (n - 1); at the shipped bound
    # Star:256 is the widest star run packed and Star:257 the first on lists
    for n in (1, 2, 3, 40, 200, 256, 257):
        want = poly_pow(P(1, 1), n - 1) + P(0, 1)
        tree = star(n)
        assert indpoly_tree(tree) == want
        assert root_split(tree, 0).total == want
        assert root_split(tree, n - 1).total == want


def test_stars_follow_the_width_rule(monkeypatch):
    # a star is packed while 8 w n <= _PACKED_MAX_BITS, like any tree: 8 * 32
    # * 256 is the bound itself, 8 * 33 * 257 is past it
    calls = []
    unpack = indpoly._unpack
    monkeypatch.setattr(indpoly, "_unpack", lambda value, w: calls.append(w) or unpack(value, w))
    for n, unpacked in ((256, [32]), (257, [])):
        want = poly_pow(P(1, 1), n - 1) + P(0, 1)
        calls.clear()
        assert indpoly_tree(star(n)) == want
        assert calls == unpacked, n
        for v in (0, n - 1):
            calls.clear()
            assert root_split(star(n), v).total == want
            assert calls == unpacked * 2, (n, v)  # without and with the root


def test_trees_on_each_side_of_the_packed_bound():
    rng = random.Random(77)
    cases = [(path(n), path_poly(n)) for n in range(200, 400, 10)]
    cases += [(random_tree(n, rng.getrandbits(64)), None) for n in (300, 350, 400, 450)]
    cases.sort(key=lambda case: packed_width(case[0]))
    bound = indpoly._PACKED_MAX_BITS
    split = sum(packed_width(tree) <= bound for tree, _ in cases)
    assert 3 <= split <= len(cases) - 3
    for tree, want in cases[split - 3 : split + 3]:  # the nearest on each side
        got = indpoly_tree(tree)
        assert want is None or got == want
        for forced in (0, 1 << 62):  # both representations agree
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(indpoly, "_PACKED_MAX_BITS", forced)
                assert indpoly_tree(tree) == got
                assert root_split(tree, tree.n // 2).total == got


def test_oracle_examples():
    assert indpoly_oracle(path(2)) == P(1, 2)
    t22 = tmt1(2, 2)
    orc = indpoly_oracle(t22)
    assert orc.coeff(2) == 11 * 10 // 2 - 10  # pairs minus edges
    assert orc == indpoly_tree(t22)


def test_oracle_budget():
    with pytest.raises(ValueError):
        indpoly_oracle(path(23))
    assert indpoly_oracle(path(22)).degree == 11


def test_oracle_equivalence_exhaustive_small():
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            tree = tree_from_edges(n, prufer_decode(seq, n))
            assert indpoly_tree(tree) == indpoly_oracle(tree)


def test_oracle_equivalence_random():
    for n in range(9, 17):
        for i in range(100):
            tree = random_tree(n, derive_seed(n, i))
            assert indpoly_tree(tree) == indpoly_oracle(tree)


def test_sequence_invariants_on_families():
    trees = [tmt1(m, t) for m in range(1, 9) for t in range(1, 9)]
    trees += [path(n) for n in range(1, 12)] + [star(n) for n in range(2, 12)]
    for tree in trees:
        p = indpoly_tree(tree)
        assert p.coeff(0) == 1
        assert p.coeff(1) == tree.n
        assert p.degree == independence_number(tree)
        assert all(c > 0 for c in p.coeffs)


def test_tmt1_unique_maximum_independent_set():
    # unique only for m >= 2: with a single branch, the root plus any
    # transversal of the t matching edges also reaches size t+1
    for m in range(2, 9):
        for t in range(1, 9):
            assert indpoly_sst([m, t, 1]).coeffs[-1] == 1
    for t in range(1, 9):
        assert indpoly_sst([1, t, 1]).coeffs[-1] == 1 + 2**t
