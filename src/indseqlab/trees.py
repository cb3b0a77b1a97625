"""Rooted trees: named families, edge-list parsing, random generation, queries.

Vertices are 0..n-1 with the root at 0.  Constructed families are numbered
breadth-first from the root so that a given spec always produces the same
tree, byte for byte.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .intpoly import int_repr, int_to_str, str_to_int
from .rng import SplitMix64


class TreeParseError(ValueError):
    """Raised when an edge-list text does not describe a single tree."""


class RootedTree:
    """A rooted tree on vertices 0..n-1.

    ``parent[v]`` is the parent of v (-1 for the root); ``children[v]``
    holds v's children in ascending vertex order; ``order`` lists every
    vertex breadth-first from the root, so each after its parent.
    Instances are immutable and safe to share: assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ("n", "root", "parent", "children", "order")

    def __init__(self, parent):
        par = tuple(parent)
        n = len(par)
        if n == 0:
            raise ValueError("a tree has at least one vertex")
        if par[0] != -1:
            raise ValueError("vertex 0 must be the root (parent -1)")
        kids = [[] for _ in range(n)]
        for v in range(1, n):
            p = par[v]
            if not 0 <= p < n:
                raise ValueError("parent of %d out of range: %s" % (v, int_to_str(p)))
            if p == v:
                raise ValueError("vertex %d is its own parent" % v)
            kids[p].append(v)
        children = tuple(map(tuple, kids))
        # reachability from the root rules out parent cycles; a vertex has
        # one parent, so none is listed twice
        order = [0]
        for v in order:
            order.extend(children[v])
        if len(order) != n:
            raise ValueError("parent array is cyclic or disconnected")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "root", 0)
        init(self, "parent", par)
        init(self, "children", children)
        init(self, "order", tuple(order))

    def __setattr__(self, name, value):
        raise AttributeError("RootedTree is immutable: cannot set %r" % name)

    def __delattr__(self, name):
        raise AttributeError("RootedTree is immutable: cannot delete %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild from the parent array, which
        # __setattr__ would refuse to restore slot by slot
        return RootedTree, (self.parent,)

    def edges(self):
        """(parent, child) pairs, one per non-root vertex."""
        return [(self.parent[v], v) for v in range(1, self.n)]

    def neighbors(self, v: int):
        """Sorted neighbor list of v."""
        if not 0 <= v < self.n:
            raise ValueError("vertex %s out of range" % int_to_str(v))
        nb = list(self.children[v])
        if v != self.root:
            nb.append(self.parent[v])
        nb.sort()
        return nb

    def neighbor_masks(self):
        """Adjacency as bitmasks: bit u of masks[v] set iff u ~ v."""
        masks = [0] * self.n
        for v in range(1, self.n):
            p = self.parent[v]
            masks[v] |= 1 << p
            masks[p] |= 1 << v
        return masks

    def depths(self):
        """Distance from the root for every vertex."""
        d = [0] * self.n
        for v in self.order[1:]:
            d[v] = d[self.parent[v]] + 1
        return d

    def __eq__(self, other):
        if isinstance(other, RootedTree):
            return self.parent == other.parent
        return NotImplemented

    def __hash__(self):
        return hash(self.parent)

    def __repr__(self):
        return "RootedTree(n=%d)" % self.n


def validate_tree(tree: RootedTree) -> None:
    """Re-check every RootedTree invariant from scratch; raises on violation.

    Used by tests as an independent validator (the constructor performs
    the same checks, so this guards against mutation bugs too).
    """
    n = tree.n
    if n < 1:
        raise ValueError("empty vertex set")
    if tree.root != 0 or tree.parent[0] != -1:
        raise ValueError("root must be vertex 0 with parent -1")
    if len(tree.parent) != n or len(tree.children) != n or len(tree.order) != n:
        raise ValueError("field lengths disagree with n")
    if tree.order[0] != 0 or sorted(tree.order) != list(range(n)):
        raise ValueError("order is not a permutation of the vertices, root first")
    position = [0] * n
    for i, v in enumerate(tree.order):
        position[v] = i
    edge_count = 0
    for v in range(1, n):
        p = tree.parent[v]
        if not 0 <= p < n or p == v:
            raise ValueError("bad parent of %d: %d" % (v, p))
        if v not in tree.children[p]:
            raise ValueError("child lists disagree with parent array")
        if position[v] < position[p]:
            raise ValueError("vertex %d precedes its parent in order" % v)
        edge_count += 1
    if edge_count != n - 1:
        raise ValueError("expected %d edges, found %d" % (n - 1, edge_count))
    for v in range(n):
        ks = tree.children[v]
        if list(ks) != sorted(set(ks)):
            raise ValueError("children of %d not strictly ascending" % v)
        for c in ks:
            if tree.parent[c] != v:
                raise ValueError("parent array disagrees with child lists")
    seen = set()
    stack = [0]
    while stack:
        v = stack.pop()
        if v in seen:
            raise ValueError("cycle reached vertex %d twice" % v)
        seen.add(v)
        stack.extend(tree.children[v])
    if len(seen) != n:
        raise ValueError("only %d of %d vertices reachable from root" % (len(seen), n))


# -- named families ---------------------------------------------------------

FAMILIES = ("Tmt1", "SST", "Spider", "Cat", "Path", "Star", "Rand")


@dataclass(frozen=True)
class FamilySpec:
    """A named tree family instance, e.g. FamilySpec("Tmt1", (4, 3)), checked
    when built: params not a tuple of ints fitting the family raise ValueError."""

    family: str
    params: tuple

    def __post_init__(self):
        _check_params(self)

    def __str__(self):
        return "%s:%s" % (self.family, ",".join(map(int_to_str, self.params)))

    def sst_counts(self):
        """Per-level child counts when the family is spherically symmetric
        (for indpoly_sst, which never materializes the tree), else None.
        Path:1 and Star:1, a single vertex, have no levels."""
        fam, ps = self.family, self.params
        if fam == "Tmt1":
            return [ps[0], ps[1], 1]
        if fam == "SST":
            return list(ps)
        if fam == "Spider":
            leg = ps[1] if len(ps) == 2 else 2
            return [ps[0]] + [1] * (leg - 1)
        if fam == "Path" and ps[0] >= 2:
            return [1] * (ps[0] - 1)
        if fam == "Star" and ps[0] >= 2:
            return [ps[0] - 1]
        return None

    def vertex_count(self):
        """Vertex count from the parameters, without building the tree or
        its level counts when one parameter alone sizes it: n for Path,
        Star and Rand, 1 + t * len for Spider, spine plus pendants for Cat,
        and from the level counts for Tmt1 and SST."""
        fam, ps = self.family, self.params
        if fam in ("Path", "Star", "Rand"):
            return ps[0]
        if fam == "Spider":
            return 1 + ps[0] * (ps[1] if len(ps) == 2 else 2)
        if fam == "Cat":
            return len(ps) + sum(ps)
        return _level_counts(self.sst_counts())[1]


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family syntax, e.g. "Tmt1:4,3" or "SST:2,2,1".

    Syntax: Tmt1:m,t  SST:c0,c1,...  Spider:t[,len]  Cat:p1,p2,...
    Path:n  Star:n  Rand:n,seed.  Each parameter is an integer as str()
    writes it (intpoly.str_to_int), so str() of the spec gives the text back.
    """
    name, sep, rest = text.partition(":")
    if not sep or name not in FAMILIES:
        raise ValueError(
            "unknown family spec %r (expected one of %s)" % (text, ", ".join(FAMILIES))
        )
    try:
        params = tuple(map(str_to_int, rest.split(","))) if rest else ()
    except ValueError:
        raise ValueError("non-integer parameter in %r" % text) from None
    return FamilySpec(name, params)


def build_family(spec: FamilySpec) -> RootedTree:
    """Materialize a FamilySpec as a breadth-first-numbered rooted tree;
    spherically symmetric families through their level counts, the one
    map the fast path uses too."""
    counts = spec.sst_counts()
    if counts is not None:
        return sst(counts)
    if spec.family == "Rand":
        return random_tree(*spec.params)
    # a caterpillar (Path:1 and Star:1 are one bare spine vertex), numbered
    # breadth-first: the pendants of spine vertex k, then spine vertex k+1
    ps = spec.params if spec.family == "Cat" else (0,)
    parent = [-1]
    spine_v = 0
    for i, p in enumerate(ps):
        for _ in range(p):
            parent.append(spine_v)
        if i + 1 < len(ps):
            parent.append(spine_v)
            spine_v = len(parent) - 1
    return RootedTree(parent)


def _check_params(spec):
    """Raise ValueError unless the spec's parameters fit its family."""
    fam, ps = spec.family, spec.params

    def need(cond, msg):
        if not cond:
            raise ValueError("%s: %s" % (spec, msg))

    if type(ps) is not tuple or any(type(p) is not int for p in ps):
        raise ValueError("%s: parameters must be a tuple of ints, got %s" % (fam, int_repr(ps)))
    if fam == "Tmt1":
        need(len(ps) == 2, "expected parameters m,t")
        need(ps[0] >= 1 and ps[1] >= 1, "m and t must be >= 1")
    elif fam == "SST":
        need(len(ps) >= 1, "expected a nonempty child-count list")
        need(all(c >= 1 for c in ps), "child counts must be >= 1")
    elif fam == "Spider":
        need(len(ps) in (1, 2), "expected parameters t[,len]")
        need(ps[0] >= 1, "leg count must be >= 1")
        need(len(ps) == 1 or ps[1] >= 1, "leg length must be >= 1")
    elif fam == "Cat":
        need(len(ps) >= 1, "expected pendant counts, one per spine vertex")
        need(all(p >= 0 for p in ps), "pendant counts must be >= 0")
    elif fam in ("Path", "Star"):
        need(len(ps) == 1, "expected parameter n")
        need(ps[0] >= 1, "n must be >= 1")
    elif fam == "Rand":
        need(len(ps) == 2, "expected parameters n,seed")
        need(ps[0] >= 1, "n must be >= 1")
    else:
        raise ValueError("%s: unknown family (expected one of %s)" % (spec, ", ".join(FAMILIES)))


def _level_counts(child_counts):
    """(counts, n): child_counts as a list and the vertex count of the
    spherically symmetric tree with those per-level child counts; raises
    ValueError unless it is a nonempty list of counts >= 1."""
    counts = list(child_counts)
    if not counts:
        raise ValueError("child-count list must be nonempty")
    if any(c < 1 for c in counts):
        raise ValueError("child counts must be >= 1, got %s" % int_repr(counts))
    n = width = 1
    for c in counts:
        width *= c
        n += width
    return counts, n


def sst(child_counts) -> RootedTree:
    """Spherically symmetric tree: every vertex at depth j has child_counts[j]
    children; vertices at the final depth are leaves.

    Numbered breadth-first, so level j occupies a contiguous index block.
    """
    parent = [-1]
    level = [0]
    for c in _level_counts(child_counts)[0]:
        nxt = []
        for v in level:
            for _ in range(c):
                nxt.append(len(parent))
                parent.append(v)
        level = nxt
    return RootedTree(parent)


def tmt1(m: int, t: int) -> RootedTree:
    """Three-level family: root with m children, each child with t children,
    each grandchild with one child.  1 + m + 2mt vertices."""
    return build_family(FamilySpec("Tmt1", (m, t)))


def spider(t: int, leg_len: int = 2) -> RootedTree:
    """Spider: t legs, each a path of leg_len edges, sharing the root."""
    return build_family(FamilySpec("Spider", (t, leg_len)))


def path(n: int) -> RootedTree:
    """Path on n vertices rooted at one end."""
    return build_family(FamilySpec("Path", (n,)))


def star(n: int) -> RootedTree:
    """Star on n vertices: hub plus n-1 leaves."""
    return build_family(FamilySpec("Star", (n,)))


def caterpillar(pendant_counts) -> RootedTree:
    """Caterpillar: a spine path with pendant_counts[i] pendant leaves on
    spine vertex i.  Zero pendant counts are allowed."""
    return build_family(FamilySpec("Cat", tuple(pendant_counts)))


# -- random trees via Pruefer sequences --------------------------------------


def _decoded(sequence, n: int):
    """(parent, order) of the labeled tree on n >= 2 vertices whose Pruefer
    sequence is `sequence` (length n-2, entries in 0..n-1, unchecked).

    parent[v] is v's parent with the tree rooted at n-1 (-1 for n-1), and
    order lists the vertices as decoding removes them, smallest leaf
    first, then n-1: each vertex after its children, the root last.
    Linear time: the smallest leaf is tracked by a pointer that only moves
    up, except when removing a leaf turns a smaller vertex into a leaf,
    which is then next.
    """
    degree = [1] * n
    for s in sequence:
        degree[s] += 1
    parent = [-1] * n
    order = []
    ptr = leaf = degree.index(1)
    for s in sequence:
        parent[leaf] = s
        order.append(leaf)
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n - 1
    order += leaf, n - 1
    return parent, order


def _random_decoded(n: int, seed: int):
    """(parent, order) as _decoded gives them for the tree random_tree(n,
    seed) decodes, before its reroot: rooted at n-1, children first."""
    if n == 1:
        return [-1], [0]
    return _decoded(SplitMix64(seed).randbelow_many(n, n - 2), n)


def prufer_decode(sequence, n: int):
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) to the
    n-1 edges of its labeled tree, smallest-leaf-first.

    This is the standard bijection: every labeled tree on n >= 2 vertices
    corresponds to exactly one sequence.  Each edge is (leaf, neighbour)
    in removal order, the last one (leaf, n-1), so the neighbour is the
    leaf's parent with the tree rooted at n-1.
    """
    seq = list(sequence)
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ValueError("sequence length must be n-2 = %s, got %d" % (int_to_str(n - 2), len(seq)))
    for s in seq:
        if not 0 <= s < n:
            raise ValueError("sequence entry %s out of range 0..%s" % (int_repr(s), int_to_str(n - 1)))
    parent, order = _decoded(seq, n)
    return [(v, parent[v]) for v in order[:-1]]


def tree_from_edges(n: int, edge_pairs) -> RootedTree:
    """Orient a known-good edge list into a RootedTree rooted at 0.

    Children come out in ascending vertex order.  Raises TreeParseError if
    the edges do not form a tree on 0..n-1.
    """
    if n < 1:
        raise TreeParseError("a tree has at least one vertex")
    edges = list(edge_pairs)
    # n adjacency lists only for n - 1 edges; a wrong count is reported
    # after every edge's range is checked, as a right one would be
    adj = [[] for _ in range(n)] if len(edges) == n - 1 else defaultdict(list)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TreeParseError("edge %s out of range 0..%s" % (int_repr((u, v)), int_to_str(n - 1)))
        adj[u].append(v)
        adj[v].append(u)
    if len(edges) != n - 1:
        raise TreeParseError(
            "expected %s edges for %s vertices, got %d" % (int_to_str(n - 1), int_to_str(n), len(edges))
        )
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    for u in order:
        for w in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    if len(order) != n:
        missing = min(v for v in range(n) if parent[v] == -2)
        raise TreeParseError("disconnected: vertex %d not reachable from 0" % missing)
    return RootedTree(parent)


def random_tree(n: int, seed: int) -> RootedTree:
    """Uniformly random labeled tree on n vertices, deterministic in (n, seed).

    Draws a Pruefer sequence from a splitmix64 stream (rejection-sampled,
    so exactly uniform) and decodes it; the same (n, seed) pair yields the
    identical tree on every platform.
    """
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    parent = _random_decoded(n, seed)[0]
    # the decoding roots the tree at n-1; reverse the path from 0 up to it
    prev, v = -1, 0
    while v != -1:
        parent[v], prev, v = prev, v, parent[v]
    return RootedTree(parent)


# -- edge-list text ----------------------------------------------------------


def parse_edge_list(text: str) -> RootedTree:
    """Parse edge-list text: one "u v" pair per line, '#' comments ignored.

    Vertices must be 0..n-1 (n inferred from the largest label), each
    written as str() writes it (intpoly.str_to_int).  The tree
    is rooted at vertex 0.  Diagnoses self-loops, duplicate edges, cycles,
    disconnected input, and out-of-range indices.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise TreeParseError("line %d: expected 'u v', got %r" % (lineno, line))
        try:
            u, v = str_to_int(parts[0]), str_to_int(parts[1])
        except ValueError:
            raise TreeParseError(
                "line %d: non-integer vertex in %r" % (lineno, line)
            ) from None
        if u < 0 or v < 0:
            raise TreeParseError("line %d: negative vertex index" % lineno)
        if u == v:
            raise TreeParseError("line %d: self-loop at vertex %s" % (lineno, int_to_str(u)))
        edges.append((u, v))
    if not edges:
        return RootedTree([-1])
    n = max(max(u, v) for u, v in edges) + 1
    seen = set()
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise TreeParseError("duplicate edge %s %s" % tuple(map(int_to_str, key)))
        seen.add(key)
    if len(edges) != n - 1:
        fault = "contains a cycle" if len(edges) > n - 1 else "is disconnected"
        raise TreeParseError("%d edges on %s vertices: input %s" % (len(edges), int_to_str(n), fault))
    return tree_from_edges(n, edges)


def edge_list_text(tree: RootedTree) -> str:
    """Canonical edge-list text: one "u v" per line with u < v, sorted,
    no trailing newline.  parse_edge_list inverts this exactly."""
    return _edge_text(tree.parent)


def _edge_text(parent):
    """edge_list_text of the tree with this parent array, rooted anywhere."""
    pairs = sorted((v, p) if v < p else (p, v) for v, p in enumerate(parent) if p >= 0)
    return "\n".join("%d %d" % e for e in pairs)


# -- independence number ------------------------------------------------------


def independence_number(tree: RootedTree) -> int:
    """Size of the largest independent set, by the two-state tree DP
    (best size with / without the vertex, combined over children)."""
    return _independence_number(tree.parent, tree.order[::-1])


def _independence_number(parent, order) -> int:
    """independence_number over a parent array and an order listing each
    vertex after its children, the root (parent -1) last: each finished
    vertex adds its best sizes to its parent's."""
    take = [1] * len(parent)
    skip = [0] * len(parent)
    for v in order:
        p, t, s = parent[v], take[v], skip[v]
        if p < 0:
            return t if t > s else s
        take[p] += s
        skip[p] += t if t > s else s
