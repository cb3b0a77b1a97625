"""Independence polynomial routes: DP, fast path, forests, split, oracle."""

import itertools
import random

import pytest

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


def test_small_trees():
    assert indpoly_tree(path(1)) == P(1, 1)
    assert indpoly_tree(path(2)) == P(1, 2)
    assert indpoly_tree(spider(2, 2)) == P(1, 5, 6, 1)  # the 5-path
    assert indpoly_tree(star(4)) == P(1, 4, 3, 1)


def test_sst_star_closed_form():
    # star with t leaves: (1+x)^t + x
    for t in range(1, 13):
        want = poly_pow(P(1, 1), t) + P(0, 1)
        assert indpoly_sst([t]) == want


def test_sst_matches_generic_dp():
    from indseqlab.trees import sst

    for counts in [[2, 2, 2, 2] + [1] * 9, [3, 1, 2], [1, 1, 1, 1, 1], [4]]:
        assert indpoly_sst(counts) == indpoly_tree(sst(counts))
    for m in range(1, 7):
        for t in range(1, 7):
            assert indpoly_sst([m, t, 1]) == indpoly_tree(tmt1(m, t))


def test_sst_matches_generic_dp_exhaustive():
    # every level profile up to depth 6 with child counts 1..3
    from indseqlab.trees import sst

    for depth in range(1, 7):
        for counts in itertools.product((1, 2, 3), repeat=depth):
            assert indpoly_sst(counts) == indpoly_tree(sst(counts))


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
