"""Independence polynomials of trees and forests, exactly.

The generic route is the post-order DP carrying per-vertex pairs
(in, out) = (sets containing the vertex, sets avoiding it):

    in(v)  = x * prod over children c of out(c)
    out(v) = prod over children c of (in(c) + out(c))

with the tree's polynomial being in(root) + out(root).  Spherically
symmetric trees get a per-level fast path that never materializes the
tree.  A subset-sweep oracle (shared code with nothing else) provides an
independent cross-check up to 22 vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .intpoly import IntPolynomial, _ladd, _lpow, convolve
from .trees import RootedTree, post_order

ORACLE_MAX_VERTICES = 22
# the subset sweep keeps one bitset of 2**_SWEEP_LOW bits per set size
_SWEEP_LOW = 16


# raw coefficient-list helpers; IntPolynomial wraps only the final results


def _lproduct(factors):
    """Product of coefficient lists, smallest pair first.

    Pairing the two shortest factors keeps the convolution sizes balanced
    on high-degree vertices; the result is order-independent.
    """
    if not factors:
        return [1]
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


def indpoly_tree(tree: RootedTree) -> IntPolynomial:
    """Independence polynomial of a rooted tree by the post-order DP."""
    ins = [None] * tree.n
    outs = [None] * tree.n
    for v in post_order(tree):
        kids = tree.children[v]
        if not kids:
            ins[v] = [0, 1]
            outs[v] = [1]
        else:
            ins[v] = [0] + _lproduct([outs[c] for c in kids])
            outs[v] = _lproduct([_ladd(ins[c], outs[c]) for c in kids])
            for c in kids:  # free child polynomials early
                ins[c] = outs[c] = None
    r = tree.root
    return IntPolynomial._raw(_ladd(ins[r], outs[r]))


def indpoly_sst(child_counts) -> IntPolynomial:
    """Independence polynomial of the spherically symmetric tree with the
    given per-level child counts, computed level by level.

    All subtrees hanging at one depth are identical, so one (in, out) pair
    per level suffices: at the leaves in = x, out = 1; one level up with c
    children below, in = x * out_below^c and out = (in_below + out_below)^c.
    Agrees with indpoly_tree on the materialized tree.
    """
    counts = list(child_counts)
    if not counts:
        raise ValueError("child-count list must be nonempty")
    if any(c < 1 for c in counts):
        raise ValueError("child counts must be >= 1, got %r" % (counts,))
    inp, outp = [0, 1], [1]
    for c in reversed(counts):
        new_out = _lpow(_ladd(inp, outp), c)
        new_in = [0] + _lpow(outp, c)
        inp, outp = new_in, new_out
    return IntPolynomial._raw(_ladd(inp, outp))


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
    """
    if not 0 <= v < tree.n:
        raise ValueError("vertex %d out of range" % v)
    adj = [list(tree.children[u]) for u in range(tree.n)]
    for u in range(1, tree.n):
        adj[u].append(tree.parent[u])
    without = _forest_poly(adj, {v})
    with_r = [0] + _forest_poly(adj, {v, *tree.neighbors(v)})
    return RootSplit(
        without_root=IntPolynomial._raw(without),
        with_root=IntPolynomial._raw(with_r),
    )


def _forest_poly(adj, removed):
    """Coefficients of the independence polynomial of the graph minus the
    removed vertices; each surviving component is a tree, handled by the
    same DP recurrence and multiplied together."""
    n = len(adj)
    assigned = set(removed)
    parts = []
    for start in range(n):
        if start in assigned:
            continue
        # orient the component away from `start`
        parent = {start: -1}
        order = [start]
        for u in order:
            for w in adj[u]:
                if w not in assigned and w not in parent:
                    parent[w] = u
                    order.append(w)
        assigned.update(order)
        ins, outs = {}, {}
        for u in reversed(order):
            kids = [w for w in adj[u] if w not in removed and parent.get(w) == u]
            if not kids:
                ins[u] = [0, 1]
                outs[u] = [1]
            else:
                ins[u] = [0] + _lproduct([outs[w] for w in kids])
                outs[u] = _lproduct([_ladd(ins[w], outs[w]) for w in kids])
                for w in kids:
                    del ins[w], outs[w]
        parts.append(_ladd(ins[start], outs[start]))
    return _lproduct(parts)


def indpoly_oracle(tree: RootedTree) -> IntPolynomial:
    """Independent brute-force count over all 2^n vertex subsets (see
    independent_set_counts).  No code shared with indpoly_tree; raises
    ValueError past ORACLE_MAX_VERTICES = 22 vertices."""
    return IntPolynomial._raw(independent_set_counts(tree.neighbor_masks()))


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
    # avoids[u]: bit S set iff u is not in S -- runs of 2^u ones, 2^u zeros
    avoids = []
    for u in range(low):
        pattern, period = (1 << (1 << u)) - 1, 2 << u
        while period < 1 << low:
            pattern |= pattern << period
            period <<= 1
        avoids.append(pattern)

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
