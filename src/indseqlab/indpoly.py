"""Independence polynomials of trees and forests, exactly.

The generic route is the DP carrying per-vertex pairs (in, out) =
(sets containing the vertex, sets avoiding it), children before parents:

    in(v)  = x * prod over children c of out(c)
    out(v) = prod over children c of (in(c) + out(c))

with the tree's polynomial being in(root) + out(root).  The DP reads only a
parent array and an order listing every vertex after its children, so a
Pruefer decoding feeds it as it comes, rooted at n-1; each finished vertex
is multiplied into its parent's two running products, which on coefficient
lists gather their factors until read (see _evaluate).  Spherically
symmetric trees get a per-level fast path, indpoly_sst, that never
materializes the tree and runs on coefficient lists.  A level's powers of
in + out and of out do not depend on each other; at a large level the
power of out is computed in a helper process forked from the package's
fork server (_fork_context) while this process computes the other (see
_levels); search's workers are the same pipe-served helpers (_Helper).
Helpers are kept for the life of the process: both callers check them out
of one per-process pool (_Pool) and give them back idle, so only a
process's first uses pay for starting them.

The tree DP runs on plain ints by one width rule, in _root_pair.  Every
coefficient the DP ever holds counts the independent sets of some
subforest of the tree T, so none exceeds i(T) = I(T; 1).  Slots of w bytes
with 2**(8w) > i(T) therefore never carry, and the DP evaluated at
x = 2**(8w) holds each polynomial packed one coefficient per slot
(Kronecker substitution over the whole tree); the root's pair is unpacked
once.  A tree on n vertices has i(T) <= 2**(n-1) + 1 < 2**n (the star
attains it), so w = ceil(n/8) is safe without counting; trees on at most
_SLOTS_FROM_N_MAX_VERTICES vertices take that width.  Wider slots cost
more on larger trees, so those take w = ceil(bits(i(T)) / 8) from one pass
of the same DP at x = 1, which gives i(T) exactly.  Packed, a subtree's
polynomial spans its degree times 8w bits however small its own
coefficients are, and the root's products run at CPython's Karatsuba
speed; so a tree whose width 8wn exceeds the measured crossover
_PACKED_MAX_BITS runs the same DP on coefficient lists instead, whose
products `intpoly.convolve` packs one at a time with slots fitted to the
operands.  A tree certain to run on lists needs no width and skips the
count (see _root_pair).  A subset-sweep oracle (shared code with nothing
else) provides an independent cross-check up to 22 vertices: one bitset
per set size over the subsets of 16 vertices, and the independent subsets
of the other ones, chosen from a post-order, grouped by their neighbours
among those 16 (see independent_set_counts).
"""

from __future__ import annotations

import functools
import heapq
import operator
import os
import sys
import threading
from dataclasses import dataclass

from .intpoly import (
    IntPolynomial,
    _binomial_row,
    _ladd,
    _lpow,
    _unpack_slots,
    convolve,
    int_to_str,
)
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
# An SST level sends its power of out to a helper process when c**2 *
# len(out) * bits(max(out)) is at least this (see _levels).  Measured
# (benchmarks/layers.py, BENCH_34.json "offload"), a level sent to a running
# helper took 0.53-0.73x its inline time from 2**19.8 to 2**24.2 in both of
# two runs; from 2**16.2 to 2**19.0, 0.47-0.68x in one run and 0.59-1.08x
# in the other.  Helpers are kept (_Pool), so only a process's first level
# sent pays for starting one.  Of reproduce's trees, T(2^7 1^23) and
# T(2^8 1^27) send their levels from 2**19.8 up, five in all.
_OFFLOAD_MIN_BITS = 1 << 19
# the directory that holds this package, for the fork server (_fork_context)
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SERVER_START = threading.Lock()


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


def _lread(product):
    """Coefficient list of a product gathered as nested pairs by the list
    table's mul, multiplied out smallest pair first."""
    if type(product) is not tuple:
        return product
    factors = []
    while type(product) is tuple:
        product, factor = product
        factors.append(factor)
    factors.append(product)
    return _lproduct(factors)


# The tree DP's arithmetic in one representation of polynomials, as (one,
# add, times x, mul, read, L -> (1 + x)^L); read turns what mul built into a
# polynomial.  Here on coefficient lists, where mul only gathers the pair;
# on packed ints by _packed, where mul multiplies and read is +v, v itself.
_ON_LISTS = ([1], _ladd, lambda p: [0] + p, lambda *pair: pair, _lread, _binomial_row)


def _packed(shift):
    """The tree DP's arithmetic on ints standing for polynomials evaluated
    at x = 2**shift, so that times x is a shift; shift 0 counts the sets."""
    return 1, operator.add, shift.__rlshift__, operator.mul, operator.pos, ((1 << shift) + 1).__pow__


def _evaluate(parent, order, arithmetic):
    """(in(root), out(root)) by the DP over `order`, which lists each vertex
    after its children and the root (parent -1) last, computed with
    `arithmetic`, one of the tables above.

    Each finished vertex multiplies its out into its parent's running
    product for in and its in + out into the one for out, and is dropped.
    Leaves are never stored: a leaf contributes out = 1 to its parent's
    in, which is skipped, and in + out = 1 + x to its out, so L leaf
    children fold into one (1 + x)^L factor, kept per distinct L.
    """
    one, add, times_x, mul, read, binomial = arithmetic
    n = len(parent)
    leaves = [0] * n
    ins, outs = [None] * n, [None] * n  # products over non-leaf children
    rows = {}
    for v in order:
        in_v, count, p = ins[v], leaves[v], parent[v]
        if in_v is not None:
            out_v = outs[v]
            ins[v] = outs[v] = None
        elif not count:
            if p < 0:
                return times_x(one), one
            leaves[p] += 1
            continue
        if count:
            row = rows.get(count) or rows.setdefault(count, binomial(count))
            in_v, out_v = (one, row) if in_v is None else (in_v, mul(out_v, row))
        in_v, out_v = times_x(read(in_v)), read(out_v)
        if p < 0:
            return in_v, out_v
        if ins[p] is None:
            ins[p], outs[p] = out_v, add(in_v, out_v)
        else:
            ins[p], outs[p] = mul(ins[p], out_v), mul(outs[p], add(in_v, out_v))


def _unpack(value, w):
    """Coefficient list of a positive int packed in w-byte slots."""
    return _unpack_slots(value, w, -(-value.bit_length() // (8 * w)))


def _root_pair(parent, order):
    """((in(root), out(root)), coeffs): the root's pair as the DP over
    (parent, order) holds it (see _evaluate), and coeffs(*values), the
    coefficient list of their sum.

    The width rule (see the module docstring): w-byte slots from n up to
    _SLOTS_FROM_N_MAX_VERTICES vertices, else from a count pass at x = 1;
    packed ints while 8wn <= _PACKED_MAX_BITS, else coefficient lists.
    Every tree has at least 2**ceil(n/2) independent sets, the subsets of
    its larger colour class, so 8w >= (n + 2) / 2 and 8wn >= n(n + 2) / 2:
    past that gate lists are certain, and the count pass is skipped.
    """
    n = len(parent)
    if n * (n + 2) <= 2 * _PACKED_MAX_BITS:
        count = (1 << n) - 1 if n <= _SLOTS_FROM_N_MAX_VERTICES else sum(_evaluate(parent, order, _packed(0)))
        w = (count.bit_length() + 7) >> 3
        if 8 * w * n <= _PACKED_MAX_BITS:
            return _evaluate(parent, order, _packed(8 * w)), lambda *values: _unpack(sum(values), w)
    return _evaluate(parent, order, _ON_LISTS), lambda *values: functools.reduce(_ladd, values)


def indpoly_tree(tree: RootedTree) -> IntPolynomial:
    """Independence polynomial of a rooted tree by the tree DP."""
    (ins, outs), coeffs = _root_pair(tree.parent, tree.order[::-1])
    return IntPolynomial._raw(coeffs(ins, outs))


def _fork_context():
    """multiprocessing's fork-server context, its server running, or None
    where there is no fork server.  search's workers and indpoly_sst's
    helper fork from it.  The preload list is process-wide, so it is set
    here alone: whichever of them comes first starts the server with
    indseqlab.search, and so this module, imported.

    Python 3.11's server is handed the caller's sys.path but never sets
    it, so it finds the package only on PYTHONPATH, and a failed preload is
    silent: each child would import the package itself, about 30 ms.  So
    the package's root is put on PYTHONPATH while the server starts.  A
    process made by a plain os.fork() of one whose server runs inherits
    the server's pid but is not its parent, so it cannot check the server:
    there it has none.
    """
    import multiprocessing
    from multiprocessing import forkserver

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return None
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload([__package__ + ".search"])
    with _SERVER_START:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_PACKAGE_ROOT, saved)))
        try:
            forkserver.ensure_running()
        except ChildProcessError:
            return None
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return ctx


def _helper_context(spawn=False):
    """The context that _Helper processes start from, or None where the
    caller runs inline instead: in a daemonic process, which may have no
    children, and where a child could not import the caller's main module,
    which multiprocessing runs first in every child, because its __file__
    names no file (a script read from stdin).  Otherwise the fork server's
    context, its server running (_fork_context); where there is none,
    spawn's if `spawn`, else None."""
    import multiprocessing

    main = getattr(sys.modules["__main__"], "__file__", None)
    if multiprocessing.current_process().daemon or (main is not None and not os.path.isfile(main)):
        return None
    return _fork_context() or (multiprocessing.get_context("spawn") if spawn else None)


def _ignore_sigint():
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and stops its helpers, so they print no tracebacks
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _serve(conn):
    """A helper's loop: for each (function, args) received on conn, reply
    (True, function(*args)), or (False, the exception it raised), until it
    receives None, the stop message, or end of file."""
    _ignore_sigint()
    with conn:
        while True:
            try:
                call = conn.recv()
            except EOFError:
                return
            if call is None:
                return
            function, args = call
            try:
                reply = True, function(*args)
            except Exception as exc:
                reply = False, exc
            conn.send(reply)


class _Helper:
    """A daemonic process, started from `ctx`, that runs one call at a time
    for its caller over a pipe: search's workers and indpoly_sst's helper.
    Calls run in the order sent, and their replies come back in that
    order.  A daemonic process may have no children, so a helper never
    starts helpers of its own.  Callers take helpers from _POOL rather than
    start them."""

    def __init__(self, ctx):
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child,), daemon=True)
        self.process.start()
        child.close()  # so that the helper's end closes when it exits

    def send(self, function, args):
        """Have the helper run function(*args) once the calls sent before
        have run."""
        try:
            self._conn.send((function, args))
        except OSError as exc:
            raise self._exited() from exc

    def poll(self):
        """Whether recv would return or raise now, without waiting."""
        return self._conn.poll()

    def recv(self):
        """The value of the oldest call not yet received, once the helper
        returns it; an exception raised by that call is raised here."""
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._exited() from exc
        if not ok:
            raise value
        return value

    def _exited(self):
        self.process.join()
        return RuntimeError("a helper process exited with code %s before it replied" % self.process.exitcode)

    def close(self, kill):
        """Send the stop message, on which the helper returns, or kill it;
        then close the pipe and join it.  The message, not end of file,
        stops a helper started by plain fork, which holds this end of its
        pipe too."""
        if kill:
            self.process.kill()
        else:
            try:
                self._conn.send(None)
            except OSError:
                pass  # it has exited already; join reaps it
        self._conn.close()
        self.process.join()


class _Pool:
    """This process's idle helpers, kept for later callers.

    take(ctx) checks a helper out: the last one given back, if it is still
    alive, else a new one from ctx; a kept helper that has died is joined
    and dropped, never reused.  A helper belongs to the caller that took
    it until it is given back, so a suspended search generator and an
    indpoly_sst call in the same thread never share a pipe.  A caller
    gives a helper back only once it has received every reply, and on any
    exception, or when its consumer stops early, closes it with kill=True
    instead.  give_back keeps at most os.cpu_count() - 1 idle helpers and
    stops the rest.  Kept helpers are daemonic, so they end with this
    process: multiprocessing's exit handler terminates them, or they read
    end of file.  A plain os.fork() child forgets its parent's kept helpers
    (forget, run after each fork).
    """

    def __init__(self):
        self._idle = []
        self._lock = threading.Lock()

    def forget(self):
        """Start empty, leaving the kept helpers to the process that started
        them.

        In a plain os.fork() child, they are the parent's: the child must
        not use them, and its multiprocessing must not list them among its
        children, since its exit handler would terminate them at the
        child's normal exit.  A lock that another thread held at the fork
        stays held in the child, so the lock is new too."""
        if self._idle:
            from multiprocessing import process

            for helper in self._idle:
                process._children.discard(helper.process)
        self._idle = []
        self._lock = threading.Lock()

    def take(self, ctx):
        """A helper for the caller alone: a kept one, or a new one from ctx."""
        while True:
            with self._lock:
                if not self._idle:
                    return _Helper(ctx)
                helper = self._idle.pop()
            if helper.process.is_alive():
                return helper
            helper.close(kill=True)

    def give_back(self, helpers):
        """Keep helpers that have replied to every call for later callers,
        up to os.cpu_count() - 1 idle ones, and stop the rest."""
        with self._lock:
            room = max((os.cpu_count() or 1) - 1 - len(self._idle), 0)
            self._idle += helpers[:room]
        for helper in helpers[room:]:
            helper.close(kill=False)


_POOL = _Pool()
os.register_at_fork(after_in_child=_POOL.forget)


def _levels(counts):
    """(in, out) at the root of the spherically symmetric tree with the
    given per-level child counts, as coefficient lists.

    A level's two powers, of in + out and of out, do not depend on each
    other.  At a large level, one with c >= 2, out of more than 2
    coefficients and c**2 * len(out) * bits(max(out)) (about the bits its
    squarings of out multiply) at least _OFFLOAD_MIN_BITS, the call
    _lpow(out, c) goes over a pipe to a helper process (_Helper), which
    computes the power of out while this process computes that of
    in + out; the helper's power is received only then, so that its
    unpickling never overlaps this process's own product.  The same _lpow
    runs on the same ints, so the result is the inline one.  One helper
    serves the walk: it is taken from _POOL at the first large level, and
    given back when the walk ends, or killed if it fails; so only a
    process's first walk that sends a level starts one.  The fork server,
    if not yet running, is started at the first level of at least a
    quarter of the bound, so that it starts while the levels up to the
    first large one run.  On one core, and where _helper_context gives no
    context (no fork server, a daemonic process, a caller's main module
    read from stdin), every level runs inline.  A helper that exits before
    returning its power raises RuntimeError.
    """
    inp, outp = [0, 1], [1]
    ctx = helper = None
    try:
        for c in reversed(counts):
            # -1: a level with c = 1 or out of at most 2 coefficients is never sent
            size = c * c * len(outp) * max(outp).bit_length() if c > 1 and len(outp) > 2 else -1
            if ctx is None and size >= _OFFLOAD_MIN_BITS >> 2:
                ctx = (os.cpu_count() or 1) > 1 and _helper_context() or False
            if ctx and size >= _OFFLOAD_MIN_BITS:
                helper = helper or _POOL.take(ctx)
                helper.send(_lpow, (outp, c))
                outp, inp = _lpow(_ladd(inp, outp), c), [0] + helper.recv()
            else:
                # the larger out first, while the smaller new in does not exist yet
                outp, inp = _lpow(_ladd(inp, outp), c), [0] + _lpow(outp, c)
    except BaseException:
        if helper:
            helper.close(kill=True)
        raise
    if helper:
        _POOL.give_back([helper])
    return inp, outp


def indpoly_sst(child_counts) -> IntPolynomial:
    """Independence polynomial of the spherically symmetric tree with the
    given per-level child counts, computed level by level.

    All subtrees hanging at one depth are identical, so one (in, out) pair
    per level suffices: at the leaves in = x, out = 1; one level up with c
    children below, in = x * out_below^c and out = (in_below + out_below)^c.
    The pass runs on coefficient lists, so each product's slots fit its
    operands (`intpoly.convolve`), and a power of a base of degree at most
    1 comes from its binomial row (`intpoly._lpow`).  At a large level
    the power of out is computed in a helper process (see _levels), kept
    idle for later calls once this one returns; a helper imports the
    caller's main module as it starts, so a script that calls this on a
    large tree needs its `if __name__ == "__main__":` guard; a script read
    from stdin runs every level inline.  Agrees with indpoly_tree on the
    materialized tree.
    """
    return IntPolynomial._raw(_ladd(*_levels(_level_counts(child_counts)[0])))


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
        raise ValueError("vertex %s out of range" % int_to_str(v))

    def swap(u):
        return 0 if u == v else v if u == 0 else u

    rerooted = tree_from_edges(tree.n, [(swap(p), swap(c)) for p, c in tree.edges()])
    (with_r, without), coeffs = _root_pair(rerooted.parent, rerooted.order[::-1])
    return RootSplit(
        without_root=IntPolynomial._raw(coeffs(without)),
        with_root=IntPolynomial._raw(coeffs(with_r)),
    )


def indpoly_oracle(tree: RootedTree) -> IntPolynomial:
    """Independence polynomial of `tree` from the subset sweep, which
    counts the independent sets among all 2^n vertex subsets from the
    neighbour masks alone (see independent_set_counts).  No code shared
    with indpoly_tree or the tree builders; raises ValueError past
    ORACLE_MAX_VERTICES = 22 vertices."""
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


def _fault(neighbor_masks):
    """Why neighbor_masks is not a simple undirected graph on 0..n-1, for
    the first vertex that shows it: a bit past n - 1, a self-loop or an
    edge listed at one end only.  None if it is one."""
    n = len(neighbor_masks)
    for v, nbrs in enumerate(neighbor_masks):
        if nbrs >> n:
            return "vertex %d has a neighbour outside 0..%d" % (v, n - 1)
        bit = 1 << v
        if nbrs & bit:
            return "vertex %d is its own neighbour" % v
        while nbrs:
            low = nbrs & -nbrs  # lowest neighbour first
            u = low.bit_length() - 1
            if not neighbor_masks[u] & bit:
                return "edge %d-%d is listed at %d only" % (v, u, v)
            nbrs ^= low
    return None


def _sweep_order(neighbor_masks, high):
    """The vertices in sweep order: a post-order of a depth-first spanning
    forest that takes the child with the larger subtree first, with its
    first `high` vertices moved to the end.  A prefix of a post-order is a
    union of whole subtrees, whose roots hang off one root path; taking
    the larger subtree first keeps that prefix deep in one branch, so few
    vertices border it.  The other vertices keep post-order too: a prefix
    of theirs has smaller largest independent sets than as many vertices
    taken at random, so fewer bitset levels fill: random trees on 16
    vertices sweep in 0.68-0.79x the time of their labels as given
    (BENCH_22.json, "low_vertex_order").

    One walk: visit(v) takes v's highest unseen neighbour while one remains,
    and returns the subtrees found, longest first, then v; n <= 22 deep."""
    n = len(neighbor_masks)
    unseen = (1 << n) - 1

    def visit(v):
        nonlocal unseen
        unseen ^= 1 << v
        subtrees = []
        while fresh := neighbor_masks[v] & unseen:
            subtrees.append(visit(fresh.bit_length() - 1))
        return sum(sorted(subtrees, key=len, reverse=True), []) + [v]

    post = [u for root in range(n) if unseen >> root & 1 for u in visit(root)]
    return post[high:] + post[:high]


def _relabelled(neighbor_masks, order):
    """The graph with vertex order[i] renamed i."""
    label = [0] * len(order)
    for i, v in enumerate(order):
        label[v] = i
    masks = []
    for v in order:
        nbrs, mask = neighbor_masks[v], 0
        while nbrs:
            u = nbrs.bit_length() - 1
            mask |= 1 << label[u]
            nbrs ^= 1 << u
        masks.append(mask)
    return masks


def _popcounts(sets):
    """[s.bit_count() for s in sets]: one popcount pass over bitsets."""
    return list(map(int.bit_count, sets))


def independent_set_counts(neighbor_masks):
    """Count independent sets by size via a sweep over all vertex subsets.

    neighbor_masks[v] is the bitmask of vertices adjacent to v.  _fault
    checks the graph once, before the sweep: a bit past n - 1, a self-loop
    or an edge listed at one end only raises ValueError, so the sweep only
    reads masks.  Returns counts[k] = number of independent k-subsets, for
    k = 0..n.  L = min(n, 16) low vertices are swept as bitsets: bit S of
    level[k] is set iff S, a subset of the low vertices, is independent
    with |S| = k.  The n - L high vertices, at most 6, are the first of a
    post-order that takes the larger subtree first (see _sweep_order), so
    few low vertices border them.  Each independent subset T of the high
    vertices adds the sets of level[k] that avoid N(T) to counts[k + |T|];
    those sets depend only on the key A = N(T) among the low vertices, so
    they are counted once per key and added once per T.  T = {} needs no
    mask: it joins the key A = {} when another T has that key, so the
    unmasked levels are counted once, and otherwise seeds the counts alone
    (with n <= 16 it is the only T).  Budget-limited to n <= 22 (a
    4M-subset sweep).
    """
    n = len(neighbor_masks)
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(
            "subset sweep limited to n <= %d, got n=%d" % (ORACLE_MAX_VERTICES, n)
        )
    fault = _fault(neighbor_masks)
    if fault:
        raise ValueError(fault)
    low = min(n, _SWEEP_LOW)
    masks = neighbor_masks if n == low else _relabelled(neighbor_masks, _sweep_order(neighbor_masks, n - low))
    avoids = _avoid_patterns(low)
    level = [1] + [0] * low
    top = 0  # the largest k with level[k] != 0
    for v in range(low):
        # S + {v} is independent iff S is and S avoids N(v); its bit is S + 2^v
        shift = 1 << v
        below = masks[v] & (shift - 1)
        avoid = (1 << shift) - 1
        while below:
            u = below.bit_length() - 1
            avoid &= avoids[u]
            below ^= 1 << u
        for k in range(top, -1, -1):
            level[k + 1] |= (level[k] & avoid) << shift
        if level[top + 1]:
            top += 1
    # the independent high subsets T, as (T, N(T) among the low vertices, |T|)
    lows = (1 << low) - 1
    subsets = [(0, 0, 0)]
    for v in range(low, n):
        nbrs = masks[v]
        subsets += [(t | 1 << v, a | nbrs & lows, size + 1) for t, a, size in subsets if not nbrs & t]
    # per key, how many of the other T have each size
    sizes_by_key = {}
    for _, a, size in subsets[1:]:
        sizes_by_key.setdefault(a, [0] * (n - low + 1))[size] += 1
    if 0 in sizes_by_key:
        # T = {} shares the unmasked popcounts with the other T keyed 0
        sizes_by_key[0][0] += 1
        counts = [0] * (n + 1)
    else:
        counts = _popcounts(level) + [0] * (n - low)
    for a, sizes in sizes_by_key.items():
        sets = level[: top + 1]
        if a:
            avoid = functools.reduce(operator.and_, [avoids[u] for u in range(low) if a >> u & 1])
            sets = map(avoid.__and__, sets)
        found = _popcounts(sets)
        for j, m in enumerate(sizes):
            if m:
                for k, f in enumerate(found, j):
                    counts[k] += m * f
    return counts
