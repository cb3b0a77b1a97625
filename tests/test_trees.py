"""Tree construction, parsing, random generation, independence number."""

import collections
import contextlib
import copy
import hashlib
import heapq
import itertools
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import tracemalloc

import pytest

from indseqlab import indpoly, rng as rng_module
from indseqlab.indpoly import indpoly_oracle, indpoly_tree, root_split
from indseqlab.rng import _LANE_BLOCK, SplitMix64
from indseqlab.seqcheck import analyze
from indseqlab.trees import (
    FamilySpec,
    _decoded,
    _random_decoded,
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


def sst_by_offsets(counts):
    """Parent array of sst(counts), written independently: level offsets
    are computed arithmetically, parents by integer division."""
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


def test_sst_matches_independent_generator():
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


@pytest.mark.parametrize(
    "build,args",
    [(tmt1, (0, 3)), (tmt1, (3, 0)), (spider, (0,)), (spider, (3, 0)), (path, (0,)),
     (star, (0,)), (caterpillar, ([],)), (sst, ([2, 0],))],
)
def test_constructors_reject_bad_input(build, args):
    # spider(3, 0) has legs of no length: an error, not a star
    with pytest.raises(ValueError):
        build(*args)


def test_constructor_errors_name_the_spec():
    with pytest.raises(ValueError, match=r"^Tmt1:0,3: m and t must be >= 1$"):
        tmt1(0, 3)
    with pytest.raises(ValueError, match=r"^Spider:3,0: leg length must be >= 1$"):
        spider(3, 0)


def test_family_rejects_bad_parameters():
    for bad in ["Tmt1:0,3", "Tmt1:3", "SST:", "SST:2,0", "Spider:0", "Path:0",
                "Star:-1", "Rand:1", "Cat:-1", "Nope:3", "Tmt1:a,b"]:
        with pytest.raises(ValueError):
            parse_family(bad)
    # int() also reads underscores and non-ASCII digits; a token may not
    for bad in ["Path:1_0", "Path:\uff13", "Rand:12,\u0669", "Tmt1:4,_3"]:
        with pytest.raises(ValueError, match="^non-integer parameter in "):
            parse_family(bad)
    # a sign still reaches the family's range check
    with pytest.raises(ValueError, match="^Cat:-1: pendant counts must be >= 0$"):
        parse_family("Cat:-1")
    with pytest.raises(ValueError, match="^Star:-1: n must be >= 1$"):
        parse_family("Star:-1")


def test_family_parameters_read_only_as_str_writes_them():
    # int() reads each of these, and str() of the spec would write other
    # text back (Path:5, Rand:5,0); a parameter is read as str() writes it
    for bad in ["Path: 5", "Path:+5", "Path:5 ", "Path:05", "Rand:5,-0", "Path:1_0",
                "Path:\u0664"]:
        with pytest.raises(ValueError, match="^non-integer parameter in "):
            parse_family(bad)
    for good in ["Path:5", "Rand:5,0", "Cat:0,3", "Rand:12,-7"]:
        assert str(parse_family(good)) == good


def test_edge_list_vertices_read_only_as_str_writes_them():
    for text in ["+0 01", "0 01", "-0 1", "0 +1", "0 1_0", "\u0664 1"]:
        with pytest.raises(TreeParseError, match="^line 1: non-integer vertex in "):
            parse_edge_list(text)


def test_family_spec_checked_when_built():
    # a spec built directly is checked too, before any method can see it
    for family, params, msg in [("Tmt1", (3,), "Tmt1:3: expected parameters m,t"),
                                ("Path", (), "Path:: expected parameter n"),
                                ("Cat", (-2,), "Cat:-2: pendant counts must be >= 0"),
                                ("Nope", (1,), "Nope:1: unknown family")]:
        with pytest.raises(ValueError, match="^" + re.escape(msg)):
            FamilySpec(family, params)
    # a parameter past the int/str digit limit is named in full, as int_to_str writes it
    big = "1" + "0" * 5000
    with pytest.raises(ValueError, match="^Tmt1:%s: expected parameters m,t$" % big):
        FamilySpec("Tmt1", (10**5000,))
    assert str(FamilySpec("Path", (10**5000,))) == "Path:" + big
    # parameters are ints: a bool, float or str is refused by name, not
    # built (Path:True was one vertex) or left to raise TypeError later
    for family, params in [("Path", (True,)), ("Star", (True,)), ("Path", (3.5,)),
                           ("Spider", (3, 2.5)), ("Cat", (2.0, 1)), ("Tmt1", ("4", 3)),
                           ("Path", [3]), ("Path", 3)]:
        msg = "%s: parameters must be a tuple of ints, got %r" % (family, params)
        with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
            FamilySpec(family, params)
    with pytest.raises(ValueError, match=re.escape("Spider: parameters must be a tuple of ints, got (3, 2.5)")):
        spider(3, 2.5)
    with pytest.raises(ValueError, match=re.escape("Cat: parameters must be a tuple of ints, got (2.0, 1)")):
        caterpillar([2.0, 1])


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
    t = parse_edge_list("0 1  # root edge\n1 2#\n")
    assert t.n == 3 and t.parent == (-1, 0, 1)
    assert parse_edge_list("").n == 1


@pytest.mark.parametrize(
    "text,msg",
    [
        ("0 1\n2 3", "disconnected"),
        ("0 1\n1 2\n2 0\n3 4", "not reachable"),
        ("0 1\n1 2\n2 0", "cycle"),
        ("0 0", "self-loop"),
        ("0 1\n1 0", "duplicate"),
        ("0 -2", "negative"),
        ("0 1 2", "expected"),
        ("0 x", "non-integer"),
        ("0 2_0", "line 1: non-integer vertex"),
        ("0 1\n1 \uff12", "line 2: non-integer vertex"),
        ("\u0660 1", "line 1: non-integer vertex"),
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


def test_decoding_is_a_children_first_order():
    # the decoder's parent array roots the tree at n - 1, its order lists
    # each vertex after its children, and random_tree is that tree rerooted
    # at 0
    for n in range(2, 7):
        for seq in itertools.product(range(n), repeat=n - 2):
            parent, order = _decoded(list(seq), n)
            assert sorted(order) == list(range(n)) and order[-1] == n - 1
            position = {v: i for i, v in enumerate(order)}
            assert all(position[v] < position[p] for v, p in enumerate(parent) if p >= 0)
            assert prufer_decode(seq, n) == [(v, parent[v]) for v in order[:-1]]
    for n in (1, 2, 9, 40):
        parent, order = _random_decoded(n, n)
        edges = {frozenset((v, p)) for v, p in enumerate(parent) if p >= 0}
        assert edges == {frozenset(e) for e in random_tree(n, n).edges()}


def rejection_draws(seed, n, k):
    """k draws from [0, n) by a plain rejection loop over next_u64, and the
    stream's next word after them; n == 1 takes no draw."""
    rng = SplitMix64(seed)
    out = []
    while n > 1 and len(out) < k:
        u = rng.next_u64()
        if u < (1 << 64) - (1 << 64) % n:
            out.append(u % n)
    return out + [0] * (k - len(out)), rng.next_u64()


@pytest.mark.parametrize("n", [1, 2, 3, 40, 2**63 + 1, 2**64 - 1, 2**64])
def test_randbelow_many_equals_repeated_randbelow(n):
    # 2**63 + 1 rejects almost half of all draws, so its rounds of lanes
    # fall short; the counts lie below, at and past one round, and span
    # several
    for seed in (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15):
        for k in (0, 1, 2, 7, 64, _LANE_BLOCK - 1, _LANE_BLOCK, _LANE_BLOCK + 1, 3 * _LANE_BLOCK + 5):
            draws, after = rejection_draws(seed, n, k)
            one, many = SplitMix64(seed), SplitMix64(seed)
            assert many.randbelow_many(n, k) == draws
            assert [one.randbelow(n) for _ in range(k)] == draws
            assert many.next_u64() == one.next_u64() == after  # same state after


@pytest.mark.parametrize("block", [16, 128])
def test_randbelow_many_under_any_lane_block(monkeypatch, block):
    # _LANE_BLOCK alone sets a round's size: each lane count's constants
    # are built when a round of that count first runs
    monkeypatch.setattr(rng_module, "_LANE_BLOCK", block)
    for n in (5, 2**63 + 1):
        for seed in (0, 1, 0x9E3779B97F4A7C15):
            for k in (block - 1, block, block + 1, 200):
                draws, after = rejection_draws(seed, n, k)
                many = SplitMix64(seed)
                assert many.randbelow_many(n, k) == draws
                assert many.next_u64() == after


def test_lane_constants_built_on_first_use():
    # a fresh interpreter: importing the package draws nothing and builds
    # no lane constants; random_tree(26, 1) draws its 24-entry Pruefer
    # sequence in one round of 24 lanes
    probe = (
        "import indseqlab\n"
        "from indseqlab import rng, trees\n"
        "print(rng._lanes.cache_info().currsize)\n"
        "trees.random_tree(26, 1)\n"
        "print(rng._lanes.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n1\n")


def test_randbelow_many_peak_memory():
    # a round has at most _LANE_BLOCK lanes, so 200,000 draws from [0, 3),
    # cached small ints, peak at about the list they return
    tracemalloc.start()
    try:
        draws = SplitMix64(1).randbelow_many(3, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(draws) == 200_000 and set(draws) == {0, 1, 2}
    assert peak <= 1.02 * sys.getsizeof(draws)


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_randbelow_many_validation():
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow_many(5, -1)
    # 1 <= n <= 2**64: at 2**64 every word is a draw; past it none would be
    # accepted, so it is refused at once rather than looped on
    for seed in (0, 5):
        words = [SplitMix64(seed).next_u64()]
        assert SplitMix64(seed).randbelow(2**64) == words[0]
        assert SplitMix64(seed).randbelow_many(2**64, 1) == words
    for n in (0, -1, -(2**64), 2**64 + 1, 2**65, 10**5000):
        with within(5), pytest.raises(ValueError, match=r"needs 1 <= n <= 2\*\*64"):
            SplitMix64(1).randbelow(n)
        with within(5), pytest.raises(ValueError, match=r"needs 1 <= n <= 2\*\*64"):
            SplitMix64(1).randbelow_many(n, 3)


def test_randbelow_draws_pinned():
    # SHA-256 of both methods' draws and the next word after them, one JSON
    # line per (n, seed); recorded with each method's own rejection loop
    h = hashlib.sha256()
    for n in (1, 2, 3, 15, 2**63 + 1, 2**64 - 1, 2**64):
        for seed in (0, 1, 7, 2**64 - 1, 0x9E3779B97F4A7C15):
            rng = SplitMix64(seed)
            draws = rng.randbelow_many(n, 33) + [rng.randbelow(n) for _ in range(33)]
            h.update(json.dumps(draws + [rng.next_u64()]).encode() + b"\n")
    assert h.hexdigest() == "18a14ad7c8c917926d60893c4c5922053b51f618ed9ccc0896221d6dbd3f4ebe"


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
    with pytest.raises(TreeParseError, match="at least one vertex"):
        tree_from_edges(0, [])
    assert tree_from_edges(1, []).n == 1


def test_tree_from_edges_checks_the_count_before_allocating():
    # a million claimed vertices and no edge: refused before n adjacency
    # lists are built
    tracemalloc.start()
    try:
        with pytest.raises(TreeParseError, match="^expected 999999 edges for 1000000 vertices, got 0$"):
            tree_from_edges(10**6, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(TreeParseError, match="^expected 9{5000} edges for 10{5000} vertices, got 0$"):
        tree_from_edges(10**5000, [])
    # an edge out of range is still named before a wrong count
    with pytest.raises(TreeParseError, match=r"^edge \(0, 5\) out of range 0\.\.2$"):
        tree_from_edges(3, [(0, 5)])
    with pytest.raises(TreeParseError, match="^expected 2 edges for 3 vertices, got 3$"):
        tree_from_edges(3, [(0, 1), (1, 2), (2, 0)])


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


# spec -> (per-level child counts, or None for a family that is not
# spherically symmetric, and the vertex count), written out by hand
SPEC_SHAPES = {
    "Tmt1:3,2": ([3, 2, 1], 1 + 3 + 2 * 3 * 2),
    "Tmt1:1,1": ([1, 1, 1], 1 + 1 + 2 * 1 * 1),
    "SST:2,3,1": ([2, 3, 1], 1 + 2 + 6 + 6),
    "SST:1": ([1], 2),
    "Spider:4": ([4, 1], 1 + 4 * 2),
    "Spider:2,5": ([2, 1, 1, 1, 1], 1 + 2 * 5),
    "Spider:3,1": ([3], 4),
    "Path:2": ([1], 2),
    "Path:7": ([1] * 6, 7),
    "Star:2": ([1], 2),
    "Star:6": ([5], 6),
    "Path:1": (None, 1),
    "Star:1": (None, 1),
    "Cat:0,2,0,3": (None, 4 + 5),
    "Cat:1": (None, 2),
    "Rand:15,7": (None, 15),
    "Rand:1,3": (None, 1),
}


@pytest.mark.parametrize("text", list(SPEC_SHAPES))
def test_family_spec_sst_mapping(text):
    spec = parse_family(text)
    levels, n = SPEC_SHAPES[text]
    tree = build_family(spec)
    assert spec.sst_counts() == levels
    assert tree.n == n
    assert spec.vertex_count() == n
    if levels is None:
        want = {"Cat": lambda *ps: caterpillar(ps), "Rand": random_tree}.get(spec.family)
        assert tree == (want(*spec.params) if want else RootedTree([-1]))
    else:
        # the named constructors build through sst_counts as well, so the
        # hand-written levels and an independent generator are the reference
        assert list(tree.parent) == sst_by_offsets(levels)
    named = {"Tmt1": tmt1, "SST": lambda *ps: sst(ps), "Spider": spider, "Path": path,
             "Star": star, "Cat": lambda *ps: caterpillar(ps), "Rand": random_tree}
    assert named[spec.family](*spec.params) == tree


def test_validate_tree_on_all_families():
    for spec in ["Tmt1:3,2", "SST:2,2,2", "Spider:4", "Spider:2,5",
                 "Cat:0,2,0,3", "Path:7", "Star:6", "Rand:15,7"]:
        validate_tree(build_family(parse_family(spec)))


def bfs_order(parent):
    """Breadth-first order from the root, children in ascending vertex
    order, computed from the parent array alone with a queue."""
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    queue, order = collections.deque([0]), []
    while queue:
        v = queue.popleft()
        order.append(v)
        queue.extend(kids[v])
    return tuple(order)


def test_order_is_breadth_first():
    rng = random.Random(77)
    trees = [sst([2, 3, 1]), sst([1] * 9), caterpillar([2, 0, 3, 1]), caterpillar([0]),
             tree_from_edges(6, [(3, 1), (0, 3), (5, 0), (2, 5), (4, 3)]),
             parse_edge_list("2 0\n2 1\n0 3\n3 4\n1 5"), parse_edge_list("")]
    trees += [random_tree(rng.randint(1, 60), rng.getrandbits(64)) for _ in range(40)]
    for tree in trees:
        assert tree.order == bfs_order(tree.parent)
        validate_tree(tree)


def test_root_split_walks_the_rerooted_order(monkeypatch):
    # root_split relabels v as the root through tree_from_edges; the DP
    # then walks that tree's own order, children first
    seen = []
    root_pair = indpoly._root_pair

    def spy(parent, order):
        seen.append((parent, order))
        return root_pair(parent, order)

    monkeypatch.setattr(indpoly, "_root_pair", spy)
    tree = random_tree(20, 5)
    for v in (0, 7, 19):
        split = root_split(tree, v)
        parent, order = seen[-1]
        rerooted = RootedTree(parent)
        assert tuple(order) == bfs_order(parent)[::-1]
        assert len(rerooted.children[0]) == len(tree.neighbors(v))
        validate_tree(rerooted)
        assert split.total == indpoly_oracle(tree)


def test_validate_tree_checks_order():
    tree = tmt1(3, 2)
    for bad, msg in [(tree.order[::-1], "permutation"),
                     (tree.order[:1] + tree.order[2:] + tree.order[1:2], "precedes its parent"),
                     (tree.order[:-1] + tree.order[-2:-1], "permutation"),
                     (tree.order[:-1], "lengths")]:
        broken = copy.copy(tree)
        object.__setattr__(broken, "order", bad)
        with pytest.raises(ValueError, match=msg):
            validate_tree(broken)
    validate_tree(copy.copy(tree))


def test_trees_are_immutable():
    tree = tmt1(3, 2)
    before = (tree.n, tree.root, tree.parent, tree.children, tree.order)
    for name in ("n", "root", "parent", "children", "order"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(tree, name, getattr(tree, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(tree, name)
    assert (tree.n, tree.root, tree.parent, tree.children, tree.order) == before
    clone = copy.copy(tree)
    assert clone == tree and clone.order == tree.order and clone.children == tree.children
    validate_tree(clone)


def test_pickle_round_trip():
    # returned objects can be sent to worker processes
    tree = random_tree(40, 3)
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree and back.children == tree.children and back.order == tree.order
    validate_tree(back)
    poly = indpoly_tree(tree)
    assert pickle.loads(pickle.dumps(poly)) == poly
    report = analyze(tree)
    assert pickle.loads(pickle.dumps(report)) == report
