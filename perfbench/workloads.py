"""The four benchmark workloads, driven through indseqlab's public API only.

Each workload knows three ways to run the same inputs:

* ``cli_pass``: the timed pass, one ``indseqlab.cli.main(argv)`` call per
  input, every output checked against a golden digest;
* ``decompose``: the same work re-issued as calls into the public module
  functions, each call wrapped in a span named ``<module>.<function>``
  (spans live in this file, never inside the package);
* ``replay``: the multiplication traffic of the polynomial routines
  re-issued with public ``intpoly.mul``/``intpoly.add``, so each product
  is timed and binned by operand size; the replay's result must equal the
  library's own.

Inputs come from the workload seed: it picks entries from a fixed pool whose
golden digests were recorded once (``record_golden.py``), so any seed is
checkable.  ``reproduce`` and ``verify`` take no inputs (they run the CLI's
fixed suites), so their seed changes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import os
import random
import sys
import traceback
from time import perf_counter

import indseqlab
from indseqlab import cli, formulas, indpoly, intpoly, search, seqcheck, trees
from indseqlab.rng import SplitMix64, derive_seed

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")

SEARCH_ARGS = ("--n-min", "26", "--n-max", "40", "--samples", "4000")
SEARCH_POOL = tuple(range(1, 33))  # master seeds with recorded goldens
ORACLE_NS = tuple(range(14, 23))
ORACLE_POOL = tuple(range(1, 17))  # tree seeds per n with recorded goldens


# -- digests ------------------------------------------------------------------


def _feed(h, obj):
    # type-tagged and length-prefixed, so distinct structures never collide;
    # ints go through to_bytes, never str(), which has a digit limit
    if isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "big", signed=True)
        h.update(b"i%d:" % len(raw) + raw)
    elif isinstance(obj, str):
        _feed(h, obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d:" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError("cannot digest %s" % type(obj).__name__)


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# -- tracing ------------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent index; -1 for top level)."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self._stack[-1])

    def busy(self, name):
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def calls(self, name):
        return sum(1 for n, _, _, _ in self.spans if n == name)

    def top_level_busy(self):
        return sum(e - s for _, s, e, p in self.spans if p == -1)


class NullTracer:
    """Same interface, records nothing; the untraced twin of Tracer."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


LEN_BUCKETS = ((32, "len_le32"), (1024, "len_le1024"), (None, "len_gt1024"))
BIT_BUCKETS = ((64, "bits_le64"), (1024, "bits_le1024"), (None, "bits_gt1024"))


def _bucket(value, buckets):
    for limit, label in buckets:
        if limit is None or value <= limit:
            return label


class MulCensus:
    """Every replayed intpoly.mul call, binned by the longer operand's
    length x the largest coefficient's bit length."""

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.in_bits = 0  # computed: sum over operands of length x max bits
        self.cells = {}  # (len label, bits label) -> [calls, busy_s]

    def mul(self, p, q):
        start = perf_counter()
        r = intpoly.mul(p, q)
        elapsed = perf_counter() - start
        bp = max(abs(c) for c in p.coeffs).bit_length()
        bq = max(abs(c) for c in q.coeffs).bit_length()
        self.calls += 1
        self.busy_s += elapsed
        self.in_bits += len(p) * bp + len(q) * bq
        key = (_bucket(max(len(p), len(q)), LEN_BUCKETS), _bucket(max(bp, bq), BIT_BUCKETS))
        cell = self.cells.setdefault(key, [0, 0.0])
        cell[0] += 1
        cell[1] += elapsed
        return r

    def power(self, p, e):
        # binary exponentiation in the same order as the library's, so the
        # census sees the operand sizes the real computation multiplies
        result, base = intpoly.ONE, p
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def product(self, factors):
        # smallest pair first, like the tree DP
        if not factors:
            return intpoly.ONE
        heap = [(len(f), i, f) for i, f in enumerate(factors)]
        heapq.heapify(heap)
        tie = len(factors)
        while len(heap) > 1:
            _, _, f = heapq.heappop(heap)
            _, _, g = heapq.heappop(heap)
            h = self.mul(f, g)
            heapq.heappush(heap, (len(h), tie, h))
            tie += 1
        return heap[0][2]

    def sst(self, counts):
        """The per-level recurrence of the indpoly_sst docstring."""
        inp, outp = intpoly.X, intpoly.ONE
        for c in reversed(counts):
            inp, outp = _shift(self.power(outp, c)), self.power(intpoly.add(inp, outp), c)
        return intpoly.add(inp, outp)

    def tree(self, tree):
        """The post-order (in, out) DP of the indpoly_tree docstring."""
        order = [tree.root]
        for v in order:
            order.extend(tree.children[v])
        ins, outs = {}, {}
        for v in reversed(order):
            kids = tree.children[v]
            ins[v] = _shift(self.product([outs[c] for c in kids]))
            outs[v] = self.product([intpoly.add(ins[c], outs[c]) for c in kids])
            for c in kids:
                del ins[c], outs[c]
        return intpoly.add(ins[tree.root], outs[tree.root])


def _shift(p):
    """x * p without a multiplication, as the library does it."""
    return intpoly.IntPolynomial((0,) + p.coeffs)


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    trees_per_pass = 0  # trees whose polynomial one pass evaluates
    threads = 1  # threads a pass runs

    def __init__(self, seed, golden):
        self.rng = random.Random(seed)
        self.golden = golden[self.name]

    def next_entries(self):
        """Inputs of the next pass; one CLI call each."""
        return [None]

    def argv(self, entry):
        raise NotImplementedError

    def golden_for(self, entry):
        return self.golden

    def cli_output(self, entry):
        """(seconds in cli.main, digest of everything the call produced)."""
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argv(entry))
        elapsed = perf_counter() - start
        return elapsed, digest([rc, out.getvalue()])

    def cli_pass(self, entries):
        """(cli seconds, attempted, failed) for one timed pass."""
        seconds, failed = 0.0, 0
        for entry in entries:
            try:
                elapsed, got = self.cli_output(entry)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            seconds += elapsed
            if got != self.golden_for(entry)["cli"]:
                print("%s: output of %r differs from golden" % (self.name, self.argv(entry)), file=sys.stderr)
                failed += 1
        return seconds, len(entries), failed

    def decompose(self, entries, tracer):
        """Digest per entry of the decomposed computation's results."""
        raise NotImplementedError

    def replay(self, entries, census):
        """Replay the products through census; True when results agree."""
        raise NotImplementedError

    def extra_metrics(self, tracer, cli_wall, cpu_s):
        return {}


def _sst_run(tracer, counts, keep):
    with tracer.span("indpoly.indpoly_sst"):
        p = indpoly.indpoly_sst(counts)
    keep[tuple(counts)] = p
    with tracer.span("seqcheck.lc_breaks"):
        return seqcheck.lc_breaks(p.coeffs)


def _replay_sst(counts_list, census, kept):
    for counts in counts_list:
        ref = kept.get(tuple(counts))
        if ref is None:
            ref = indpoly.indpoly_sst(counts)
        if census.sst(counts) != ref:
            return False
    return True


class Reproduce(Workload):
    """`indseqlab reproduce` as shipped: a few huge Karatsuba products."""

    name = "reproduce"

    # the trees of the CLI's fixed claim table
    COUNTS = (
        [[t, t, 1] for t in range(1, 9)]
        + [[m, t, 1] for t in range(2, 9) for m in range(2, 13)]
        + [[2] * m + [1] * n for m, n in ((4, 9), (5, 15), (6, 17), (7, 23), (8, 27))]
    )
    trees_per_pass = len(COUNTS)

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.kept = {}

    def argv(self, entry):
        return ["reproduce"]

    def decompose(self, entries, tracer):
        self.kept = {}
        return [digest([_sst_run(tracer, c, self.kept) for c in self.COUNTS])]

    def replay(self, entries, census):
        return _replay_sst(self.COUNTS, census, self.kept)


class Verify(Workload):
    """`indseqlab verify` with its defaults: thousands of products of up to
    301 coefficients, math.comb and Fraction audits."""

    name = "verify"

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        defaults = cli.build_parser().parse_args(["verify"])
        self.t_max, self.grid = defaults.t_max, defaults.grid_max
        # spiders t=1..t_max plus the Tmt1 grid, each through indpoly_sst
        self.trees_per_pass = self.t_max + self.grid * self.grid
        self.kept = {}

    def argv(self, entry):
        return ["verify"]

    def decompose(self, entries, tracer):
        t_max, g = self.t_max, self.grid
        rng_g = range(1, g + 1)
        self.kept = {}
        ok = []
        with tracer.span("formulas.spider"):
            ok.append(formulas.spider_matches_engine(t_max))
            ok.append(formulas.spider_lc_sweep(t_max))
            ok.append(
                all(
                    formulas.binomial_gap_identity(t, k)
                    for t in range(t_max + 1)
                    for k in range(t + 1)
                )
            )
        split_ok = h_ok = impl_ok = True
        for m in rng_g:
            for t in rng_g:
                with tracer.span("indpoly.indpoly_sst"):
                    whole = indpoly.indpoly_sst([m, t, 1])
                self.kept[(m, t, 1)] = whole
                with tracer.span("formulas.mt_grid"):
                    f = formulas.without_root_poly(m, t)
                    h = formulas.with_root_poly(m, t)
                    split_ok &= (f + h) == whole
                    h_ok &= h.degree == m * t + 1 and h.coeff(m * t + 1) == 1 << (m * t)
                    sufficient = formulas.break_sufficient(m, t)
                if sufficient:
                    with tracer.span("seqcheck.lc_breaks"):
                        impl_ok &= m * t + 2 in seqcheck.lc_breaks(whole.coeffs)
        with tracer.span("formulas.mt_grid"):
            mt2_ok = all(
                formulas.without_root_mt2_closed(m, t)
                == formulas.without_root_poly(m, t).coeff(m * t + 2)
                for m in range(2, g + 1)
                for t in range(2, g + 1)
            )
            mt3_ok = all(
                formulas.without_root_poly(m, t).coeff(m * t + 3)
                >= formulas.without_root_mt3_lower(m, t)
                for m in range(3, g + 1)
                for t in rng_g
            )
        ok += [split_ok, h_ok, mt2_ok, mt3_ok, impl_ok]
        with tracer.span("formulas.audit_term_ratios"):
            a = formulas.audit_term_ratios(32, 80)
            b = formulas.audit_term_ratios(16, 16)
        ok.append(a.all_steps_ok and a.all_final_ok and a.max_ratio * 32 < 1)
        ok.append(b.all_steps_ok)
        return [digest(ok)]

    def _sst_counts(self):
        g = range(1, self.grid + 1)
        return [[t, 1] for t in range(1, self.t_max + 1)] + [[m, t, 1] for m in g for t in g]

    def replay(self, entries, census):
        return _replay_sst(self._sst_counts(), census, self.kept)


class Search(Workload):
    """`indseqlab search --n-min 26 --n-max 40` with the default worker
    count: thousands of tiny trees."""

    name = "search"
    n_min, n_max, samples = int(SEARCH_ARGS[1]), int(SEARCH_ARGS[3]), int(SEARCH_ARGS[5])
    trees_per_pass = samples
    threads = os.cpu_count() or 1  # run_search's default worker count

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        os.makedirs(WORK_DIR, exist_ok=True)
        self.out_path = os.path.join(WORK_DIR, "search-%d.jsonl" % os.getpid())
        self.kept = []
        self.records = 0

    def next_entries(self):
        return [self.rng.choice(SEARCH_POOL)]

    def argv(self, master):
        return ["search", *SEARCH_ARGS, "--seed", str(master), "--out", self.out_path]

    def golden_for(self, master):
        return self.golden[str(master)]

    def cli_output(self, master):
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argv(master))
        elapsed = perf_counter() - start
        with open(self.out_path, "rb") as fh:
            jsonl = fh.read()
        os.remove(self.out_path)
        self.last_jsonl = jsonl
        text = out.getvalue().replace(self.out_path, "<out>")
        return elapsed, digest([rc, text, jsonl])

    def decompose(self, entries, tracer):
        digests = []
        self.kept = []
        self.records = 0
        span = tracer.span
        for master in entries:
            lines = []
            for index in range(self.samples):
                with span("search.sample"):
                    with span("trees.random_tree"):
                        rng = SplitMix64(derive_seed(master, 2 * index))
                        n = self.n_min + rng.randbelow(self.n_max - self.n_min + 1)
                        tree = trees.random_tree(n, search.tree_seed_for(master, index))
                    with span("indpoly.indpoly_tree"):
                        poly = indpoly.indpoly_tree(tree)
                    with span("seqcheck.analyze_sequence"):
                        report = seqcheck.analyze_sequence(tree.n, poly.coeffs)
                    with span("trees.independence_number"):
                        alpha = trees.independence_number(tree)
                    if alpha != report.alpha:
                        raise RuntimeError("alpha disagrees with the polynomial degree")
                    if report.breaks:
                        rec = search.SearchRecord(
                            seed=master,
                            sample_index=index,
                            n=tree.n,
                            edge_list=trees.edge_list_text(tree),
                            breaks=report.breaks,
                            alpha=report.alpha,
                        )
                        with span("search.record_to_json"):
                            lines.append(search.record_to_json(rec) + "\n")
                self.kept.append((tree, poly))
            self.records += len(lines)
            digests.append(digest("".join(lines).encode("utf-8")))
        return digests

    def replay(self, entries, census):
        return all(census.tree(tree) == poly for tree, poly in self.kept)

    def extra_metrics(self, tracer, cli_wall, cpu_s):
        return {
            "search.overhead_s": cli_wall - tracer.busy("search.sample"),
            "search.cpu_per_wall": cpu_s / cli_wall,
            "search.find_ratio": self.records / len(self.kept),
        }


class Oracle(Workload):
    """`indseqlab oracle Rand:n,s` for one random tree at each n = 14..22:
    the DP against the 2^n subset sweep."""

    name = "oracle"
    trees_per_pass = len(ORACLE_NS)

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.kept = []

    def next_entries(self):
        return [(n, self.rng.choice(ORACLE_POOL)) for n in ORACLE_NS]

    def argv(self, entry):
        return ["oracle", "Rand:%d,%d" % entry]

    def golden_for(self, entry):
        return self.golden["%d,%d" % entry]

    def decompose(self, entries, tracer):
        digests = []
        self.kept = []
        for n, s in entries:
            with tracer.span("trees.random_tree"):
                tree = trees.random_tree(n, s)
            with tracer.span("indpoly.indpoly_tree"):
                dp = indpoly.indpoly_tree(tree)
            with tracer.span("indpoly.indpoly_oracle.n%d" % n):
                orc = indpoly.indpoly_oracle(tree)
            self.kept.append((tree, dp))
            digests.append(digest([dp.coeffs, orc.coeffs]))
        return digests

    def replay(self, entries, census):
        return all(census.tree(tree) == poly for tree, poly in self.kept)

    def extra_metrics(self, tracer, cli_wall, cpu_s):
        out = {}
        busy = subsets = 0
        for n in ORACLE_NS:
            calls = tracer.calls("indpoly.indpoly_oracle.n%d" % n)
            busy += tracer.busy("indpoly.indpoly_oracle.n%d" % n)
            subsets += calls << n
            out["census.oracle.n%d.subsets" % n] = calls << n
        out["indpoly.indpoly_oracle.busy_s"] = busy
        out["indpoly.indpoly_oracle.subsets"] = subsets
        out["indpoly.indpoly_oracle.subsets_per_s"] = subsets / busy
        return out


WORKLOADS = {w.name: w for w in (Reproduce, Verify, Search, Oracle)}


# -- the traced run -----------------------------------------------------------

# per-layer metric name -> unit; a workload that leaves a layer idle reports 0
LAYER_UNITS = {
    "host.calib_s": "s",
    "host.calib_s.after": "s",
    "trace.overhead_s": "s",
    "cli.self_s": "s",
    "intpoly.mul.calls": "count",
    "intpoly.mul.busy_s": "s",
    "intpoly.mul.in_bits": "bits-computed",
    **{"intpoly.mul.busy_s." + lab: "s" for _, lab in LEN_BUCKETS},
    "indpoly.indpoly_sst.busy_s": "s",
    "indpoly.indpoly_tree.calls": "count",
    "indpoly.indpoly_tree.busy_s": "s",
    "indpoly.indpoly_oracle.busy_s": "s",
    "indpoly.indpoly_oracle.subsets": "count",
    "indpoly.indpoly_oracle.subsets_per_s": "1/s",
    "trees.random_tree.calls": "count",
    "trees.random_tree.busy_s": "s",
    "trees.independence_number.busy_s": "s",
    "seqcheck.analyze_sequence.busy_s": "s",
    "seqcheck.lc_breaks.busy_s": "s",
    "formulas.spider.busy_s": "s",
    "formulas.mt_grid.busy_s": "s",
    "formulas.audit_term_ratios.busy_s": "s",
    "search.overhead_s": "s",
    "search.cpu_per_wall": "ratio",
    "search.find_ratio": "ratio",
    **{
        "census.mul.%s.%s.%s" % (lab, bits, what): unit
        for _, lab in LEN_BUCKETS
        for _, bits in BIT_BUCKETS
        for what, unit in (("calls", "count"), ("busy_s", "s"))
    },
    **{"census.oracle.n%d.subsets" % n: "count" for n in ORACLE_NS},
}

_SPAN_METRICS = (
    "indpoly.indpoly_sst",
    "indpoly.indpoly_tree",
    "trees.random_tree",
    "trees.independence_number",
    "seqcheck.analyze_sequence",
    "seqcheck.lc_breaks",
    "formulas.spider",
    "formulas.mt_grid",
    "formulas.audit_term_ratios",
)


def traced_run(wl):
    """One untraced CLI pass, the decomposition without and with spans, and
    the multiplication replay.  Returns (metrics, attempted, failed)."""
    entries = wl.next_entries()
    golden = [wl.golden_for(e)["decomposed"] for e in entries]
    t0 = os.times()
    cli_wall, attempted, failed = wl.cli_pass(entries)
    t1 = os.times()
    cpu_s = sum(t1[:4]) - sum(t0[:4])

    start = perf_counter()
    off = wl.decompose(entries, NullTracer())
    wall_off = perf_counter() - start
    tracer = Tracer()
    start = perf_counter()
    on = wl.decompose(entries, tracer)
    wall_on = perf_counter() - start
    census = MulCensus()
    replay_ok = wl.replay(entries, census)
    for got in (off, on):
        attempted += 1
        failed += got != golden
    attempted += 1
    failed += not replay_ok
    if off != golden or on != golden or not replay_ok:
        print("%s: decomposed results or replay differ from golden" % wl.name, file=sys.stderr)

    metrics = dict.fromkeys(LAYER_UNITS, 0)
    metrics["trace.overhead_s"] = wall_on - wall_off
    metrics["cli.self_s"] = cli_wall - tracer.top_level_busy()
    metrics["intpoly.mul.calls"] = census.calls
    metrics["intpoly.mul.busy_s"] = census.busy_s
    metrics["intpoly.mul.in_bits"] = census.in_bits
    for (lab, bits), (calls, busy) in census.cells.items():
        metrics["intpoly.mul.busy_s." + lab] += busy
        metrics["census.mul.%s.%s.calls" % (lab, bits)] = calls
        metrics["census.mul.%s.%s.busy_s" % (lab, bits)] = busy
    for name in _SPAN_METRICS:
        metrics[name + ".busy_s"] = tracer.busy(name)
    for name in ("indpoly.indpoly_tree", "trees.random_tree"):
        metrics[name + ".calls"] = tracer.calls(name)
    metrics.update(wl.extra_metrics(tracer, cli_wall, cpu_s))
    return metrics, attempted, failed
