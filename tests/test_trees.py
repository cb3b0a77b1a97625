"""Tree construction, parsing, random generation, independence number."""

import hashlib
import heapq
import itertools
import json
import random

import pytest

from indseqlab.rng import SplitMix64
from indseqlab.trees import (
    FamilySpec,
    RootedTree,
    TreeParseError,
    build_family,
    caterpillar,
    edge_list_text,
    independence_number,
    parse_edge_list,
    parse_family,
    path,
    prufer_decode,
    random_tree,
    spider,
    sst,
    star,
    tmt1,
    tree_from_edges,
    validate_tree,
)


def test_tmt1_shape():
    t = tmt1(4, 3)
    assert t.n == 1 + 4 + 2 * 4 * 3 == 29
    validate_tree(t)
    depths = t.depths()
    assert depths.count(1) == 4
    assert depths.count(2) == 12
    assert depths.count(3) == 12


def test_tmt1_depth_counts_across_grid():
    for m in range(1, 5):
        for t in range(1, 5):
            d = tmt1(m, t).depths()
            assert d.count(1) == m and d.count(2) == m * t and d.count(3) == m * t


def test_sst_vertex_counts():
    t = sst([2, 2, 2, 2] + [1] * 9)
    assert t.n == (2**5 - 1) + 9 * 2**4 == 175
    validate_tree(t)
    assert sst([3]).n == 4
    assert sst([2, 3]).n == 1 + 2 + 6


def test_sst_matches_independent_generator():
    # independently written breadth-first construction: level offsets are
    # computed arithmetically, parents by integer division
    def sst_by_offsets(counts):
        widths = [1]
        for c in counts:
            widths.append(widths[-1] * c)
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + w)
        parent = [-1] * offsets[-1]
        for lvl, c in enumerate(counts):
            for j in range(widths[lvl + 1]):
                parent[offsets[lvl + 1] + j] = offsets[lvl] + j // c
        return parent

    specs = []
    for depth in range(1, 6):
        for counts in itertools.product([1, 2, 3], repeat=depth):
            specs.append(list(counts))
    for counts in specs:
        assert list(sst(counts).parent) == sst_by_offsets(counts)


def test_small_families():
    assert path(1).n == 1
    assert path(1).children == ((),)
    assert path(4).depths() == [0, 1, 2, 3]
    assert star(5).children[0] == (1, 2, 3, 4)
    assert spider(2, 2).n == 5
    assert spider(3, 1).n == 4  # legs of length 1 give a star
    cat = caterpillar([2, 0, 1])
    assert cat.n == 3 + 3
    validate_tree(cat)


def test_family_rejects_bad_parameters():
    for bad in ["Tmt1:0,3", "Tmt1:3", "SST:", "SST:2,0", "Spider:0", "Path:0",
                "Star:-1", "Rand:1", "Cat:-1", "Nope:3", "Tmt1:a,b"]:
        with pytest.raises(ValueError):
            parse_family(bad)


def test_parse_family_roundtrip():
    spec = parse_family("Tmt1:4,3")
    assert spec == FamilySpec("Tmt1", (4, 3))
    assert str(spec) == "Tmt1:4,3"
    assert build_family(spec).n == 29
    assert parse_family("Spider:3").params == (3,)
    assert build_family(parse_family("Spider:3,4")).n == 13
    assert build_family(parse_family("Rand:12,99")) == random_tree(12, 99)


def test_rooted_tree_invariant_errors():
    with pytest.raises(ValueError):
        RootedTree([])
    with pytest.raises(ValueError):
        RootedTree([0])  # root must have parent -1
    with pytest.raises(ValueError):
        RootedTree([-1, 5])  # parent out of range
    with pytest.raises(ValueError):
        RootedTree([-1, 2, 1])  # 2-cycle off the root


def test_parse_edge_list_basics():
    t = parse_edge_list("0 1\n1 2")
    assert t.n == 3 and t.parent == (-1, 0, 1)
    t = parse_edge_list("# comment\n\n1 0\n 2 1 \n")
    assert t.n == 3 and t.parent == (-1, 0, 1)
    assert parse_edge_list("").n == 1


@pytest.mark.parametrize(
    "text,msg",
    [
        ("0 1\n2 3", "disconnected"),
        ("0 1\n1 2\n2 0", "cycle"),
        ("0 0", "self-loop"),
        ("0 1\n1 0", "duplicate"),
        ("0 -2", "negative"),
        ("0 1 2", "expected"),
        ("0 x", "non-integer"),
    ],
)
def test_parse_edge_list_diagnostics(text, msg):
    with pytest.raises(TreeParseError, match=msg):
        parse_edge_list(text)


def test_parse_figure_tree():
    # the 29-vertex three-level tree, round-tripped through edge text
    t = tmt1(4, 3)
    parsed = parse_edge_list(edge_list_text(t))
    assert parsed.n == 29
    assert independence_number(parsed) == (1 + 3) * 4 == 16
    assert parsed == t


def test_edge_text_roundtrip_on_random_trees():
    rng = random.Random(4242)
    for _ in range(50):
        t = random_tree(rng.randint(1, 40), rng.getrandbits(64))
        assert parse_edge_list(edge_list_text(t)) == t


def test_independence_numbers():
    assert independence_number(path(1)) == 1
    for m in range(1, 9):
        for t in range(1, 9):
            assert independence_number(tmt1(m, t)) == (1 + t) * m
    for n in range(2, 8):
        assert independence_number(star(n)) == n - 1
        assert independence_number(path(n)) == (n + 1) // 2


def test_prufer_exhaustive_bijection():
    # every sequence decodes to a valid tree; all trees distinct (Cayley)
    for n in range(2, 7):
        seen = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            edges = prufer_decode(seq, n)
            t = tree_from_edges(n, edges)
            validate_tree(t)
            key = frozenset((min(u, v), max(u, v)) for u, v in edges)
            assert key not in seen
            seen.add(key)
        assert len(seen) == n ** (n - 2)


def heap_prufer_decode(seq, n):
    """Reference decoder: pop the smallest leaf from a heap each step."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        edges.append((heapq.heappop(leaves), s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def test_prufer_decode_matches_heap_reference_exhaustive():
    for n in range(2, 9):
        for seq in itertools.product(range(n), repeat=n - 2):
            assert prufer_decode(seq, n) == heap_prufer_decode(seq, n), seq


def test_prufer_decode_matches_heap_reference_random():
    rng = random.Random(1729)
    for _ in range(200):
        n = rng.randint(2, 500)
        # few distinct labels make long runs of interior vertices
        labels = rng.choice([n, max(1, n // 10), 2])
        seq = [rng.randrange(labels) for _ in range(n - 2)]
        assert prufer_decode(seq, n) == heap_prufer_decode(seq, n)


@pytest.mark.parametrize("n", [1, 2, 3, 2**63 + 1, 2**64 - 1])
def test_randbelow_many_equals_repeated_randbelow(n):
    # 2**63 + 1 rejects almost half of all draws
    for seed in (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15):
        for k in (0, 1, 7, 64):
            one, many = SplitMix64(seed), SplitMix64(seed)
            assert many.randbelow_many(n, k) == [one.randbelow(n) for _ in range(k)]
            assert many.next_u64() == one.next_u64()  # same state after


def test_randbelow_many_validation():
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow_many(0, 3)
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow_many(5, -1)


def test_prufer_validation():
    with pytest.raises(ValueError):
        prufer_decode([], 1)
    with pytest.raises(ValueError):
        prufer_decode([0], 2)
    with pytest.raises(ValueError):
        prufer_decode([5], 3)


def test_tree_from_edges_validation():
    with pytest.raises(TreeParseError, match="out of range"):
        tree_from_edges(2, [(0, 5)])
    with pytest.raises(TreeParseError, match="expected"):
        tree_from_edges(3, [(0, 1)])
    assert tree_from_edges(1, []).n == 1


def test_random_tree_determinism():
    assert random_tree(1, 5).n == 1
    assert random_tree(2, 123).parent == (-1, 0)
    a = random_tree(30, 42)
    b = random_tree(30, 42)
    assert a == b and edge_list_text(a) == edge_list_text(b)
    assert random_tree(30, 43) != a  # astronomically unlikely to collide
    with pytest.raises(ValueError):
        random_tree(0, 1)


def test_random_trees_pinned():
    # SHA-256 of the parent arrays, one JSON line per tree; recorded with a
    # heap-based Pruefer decoder and per-draw randbelow calls, so any drift
    # of the sampler shows here
    h = hashlib.sha256()
    for n in range(1, 61):
        for seed in range(20):
            h.update(json.dumps(random_tree(n, seed).parent).encode() + b"\n")
    assert h.hexdigest() == "cd0885e1b2ca29729856222f49f270630674f6312182bf569844c7e34dbfacad"


def test_random_tree_spread():
    # different seeds should not all give the same tree
    trees = {edge_list_text(random_tree(8, s)) for s in range(40)}
    assert len(trees) > 30


@pytest.mark.parametrize(
    "text",
    ["Tmt1:3,2", "Tmt1:1,1", "SST:2,3,1", "SST:1", "Spider:4", "Spider:2,5",
     "Spider:3,1", "Path:2", "Path:7", "Star:2", "Star:6", "Path:1", "Star:1",
     "Cat:0,2,0,3", "Cat:1", "Rand:15,7", "Rand:1,3"],
)
def test_family_spec_sst_mapping(text):
    spec = parse_family(text)
    counts = spec.sst_counts()
    if spec.family in ("Rand", "Cat") or text in ("Path:1", "Star:1"):
        assert counts is None and spec.sst_vertex_count() is None
    else:
        tree = build_family(spec)
        assert spec.sst_vertex_count() == tree.n
        assert sst(counts) == tree


def test_validate_tree_on_all_families():
    for spec in ["Tmt1:3,2", "SST:2,2,2", "Spider:4", "Spider:2,5",
                 "Cat:0,2,0,3", "Path:7", "Star:6", "Rand:15,7"]:
        validate_tree(build_family(parse_family(spec)))
