"""Seeded random-tree search for log-concavity counterexamples.

Every sample is fully determined by (master seed, sample index): the
sample's vertex count comes from the stream seeded with
derive_seed(master, 2*index), and the tree itself is
random_tree(n, derive_seed(master, 2*index + 1)).  A persisted record
therefore replays from its own fields alone.

A sample is examined straight off its Pruefer decoding (examine_sample):
decoding removes leaves children first, with the tree rooted at n-1, so
its parent array and removal order feed the tree DP and the alpha check
as they come, with no RootedTree and no reroot to vertex 0.  The breaks
are those of the coefficient list; the edge list is written only for a
recorded sample, and it is the same text as that of the replayed tree.

The sample indices are cut into contiguous ranges of CHUNK indices.  With
more than one worker and more than one chunk, the parent starts one fewer
worker process and examines ranges itself while they start and run; it
writes all records in index order, so the output is byte-identical no
matter how many workers ran the search.

Workers are the helper processes that indpoly_sst also uses
(indpoly._Helper): each runs the calls the parent writes to its pipe, one
at a time, and writes back each call's lines, or the exception it raised,
which the parent raises again.  The parent itself writes each worker's
next chunks before it examines one of its own, so no thread of the
parent's stands between a worker and its next chunk.  A run takes its
workers from the process's pool of kept helpers (indpoly._POOL), the one
indpoly_sst takes its helper from, and gives them back idle when it ends,
so a later run in the same process starts only the workers the pool
lacks.  New ones fork from multiprocessing's fork server, a fresh
single-threaded process that has this module imported;
indpoly._fork_context gives its context to this module and to
indpoly_sst, and sets its process-wide preload list.  Whichever of them
comes first in a process starts the server, at about the cost of one
spawned interpreter; later workers fork from it in milliseconds.  Where
there is no fork server (Windows, or a plain os.fork() child of a process
whose server runs) workers are spawned.
Either way each worker imports the caller's main module, so a script that
runs several workers needs its `if __name__ == "__main__":` guard; a
script read from stdin, which no worker could import, and a daemonic
process, which may have no children, run the search in one process.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, fields

from .indpoly import _POOL, _helper_context, _root_pair
from .rng import SplitMix64, derive_from_mixed, derive_seed, mix64
from .seqcheck import lc_breaks
from .trees import RootedTree, _edge_text, _independence_number, _random_decoded, random_tree

# sample indices per task a worker examines
CHUNK = 256


@dataclass(frozen=True)
class SearchRecord:
    """One persisted find: a tree whose independence sequence has breaks."""

    seed: int
    sample_index: int
    n: int
    edge_list: str
    breaks: tuple
    alpha: int


def record_to_json(rec: SearchRecord) -> str:
    return json.dumps(vars(rec))


def record_from_json(line: str) -> SearchRecord:
    """Inverse of record_to_json; a missing field raises KeyError, and
    fields SearchRecord lacks are ignored."""
    obj = json.loads(line)
    values = {f.name: obj[f.name] for f in fields(SearchRecord)}
    values["breaks"] = tuple(values["breaks"])
    return SearchRecord(**values)


def tree_seed_for(master: int, index: int) -> int:
    """The per-sample tree seed; fixed scheme, see module docstring."""
    return derive_seed(master, 2 * index + 1)


def _sample_n(n_seed, n_min, n_max):
    """The vertex count of a sample whose count stream is seeded n_seed."""
    return n_min + SplitMix64(n_seed).randbelow(n_max - n_min + 1)


def sample_tree(master: int, index: int, n_min: int, n_max: int) -> RootedTree:
    """The tree examined at `index` in a run keyed by `master`."""
    n = _sample_n(derive_seed(master, 2 * index), n_min, n_max)
    return random_tree(n, tree_seed_for(master, index))


def replay_record(rec: SearchRecord) -> RootedTree:
    """Regenerate the recorded tree from the record's own fields."""
    return random_tree(rec.n, tree_seed_for(rec.seed, rec.sample_index))


def examine_sample(master: int, index: int, n_min: int, n_max: int):
    """(parent, breaks, alpha) of the tree sample_tree(master, index,
    n_min, n_max): its parent array rooted at n-1, as the Pruefer decoding
    gives it, and the breaks and alpha that analyze reports for it.

    The DP runs on the decoding in its removal order, with no RootedTree
    and no reroot, since the polynomial does not depend on the root.  As in
    analyze, a polynomial degree other than alpha raises RuntimeError.
    Both seeds are derive_seed's, from one mix64(master).
    """
    mixed = mix64(master)
    n = _sample_n(derive_from_mixed(mixed, 2 * index), n_min, n_max)
    parent, order = _random_decoded(n, derive_from_mixed(mixed, 2 * index + 1))
    (ins, outs), coeffs = _root_pair(parent, order)
    cs = coeffs(ins, outs)
    alpha = len(cs) - 1
    if alpha != _independence_number(parent, order):
        raise RuntimeError("independence polynomial degree disagrees with alpha")
    return parent, tuple(lc_breaks(cs)), alpha


def _examine(seed, lo, hi, n_min, n_max, emit_all):
    """JSONL lines, without newlines, of the samples lo..hi-1 that are
    recorded: those with breaks, or all of them with emit_all.  Only a
    recorded sample's edge list is written out."""
    for index in range(lo, hi):
        parent, breaks, alpha = examine_sample(seed, index, n_min, n_max)
        if breaks or emit_all:
            yield record_to_json(
                SearchRecord(
                    seed=seed,
                    sample_index=index,
                    n=len(parent),
                    edge_list=_edge_text(parent),
                    breaks=breaks,
                    alpha=alpha,
                )
            )


def _examine_range(seed, lo, hi, n_min, n_max, emit_all):
    """A pooled run's task: the record lines of one index range."""
    return list(_examine(seed, lo, hi, n_min, n_max, emit_all))


def _pooled_lines(seed, samples, n_min, n_max, emit_all, workers, ctx):
    """Record lines of all samples in index order, examined by workers - 1
    helper processes (indpoly._Helper) and by this one.  The helpers are
    taken from the process's pool (indpoly._POOL), which starts them from
    ctx where too few are kept, and given back once every reply is
    received; on an exception, or when the consumer closes this generator
    early, they are killed instead.

    The chunks not yet yielded wait, oldest first, in one deque of boxes
    [lines, helper]: lines is None until the helper's reply is received,
    and helper is None for a chunk this process examined.  Each pass
    first receives every reply that has come back, then sends chunks, each
    to the helper with the fewest, so that each has at most 2 and the deque
    at most 4 * workers chunks (memory stays O(workers * CHUNK) whatever
    the sample count); the helpers never take the last chunk, which this
    process examines while they finish.  Then this process yields the
    oldest chunk if it is back, else examines the next chunk while one
    remains and the deque has room, else waits for the oldest.  So it
    writes a helper's next chunks to its pipe before each chunk of its
    own, and works while the helpers start.
    """
    pending_max = 4 * workers

    def chunk(lo):
        return seed, lo, min(lo + CHUNK, samples), n_min, n_max, emit_all

    helpers = []
    try:
        for _ in range(workers - 1):
            helpers.append(_POOL.take(ctx))
        sent = {helper: deque() for helper in helpers}  # boxes awaiting a reply
        pending = deque()
        lo = 0
        while pending or lo < samples:
            for helper, boxes in sent.items():
                while boxes and helper.poll():
                    boxes.popleft()[0] = helper.recv()
            while lo + CHUNK < samples and len(pending) < pending_max:
                helper = min(sent, key=lambda h: len(sent[h]))
                if len(sent[helper]) == 2:
                    break
                helper.send(_examine_range, chunk(lo))
                box = [None, helper]
                sent[helper].append(box)
                pending.append(box)
                lo += CHUNK
            if pending and pending[0][0] is not None:
                yield from pending.popleft()[0]
            elif lo < samples and len(pending) < pending_max:
                pending.append([_examine_range(*chunk(lo)), None])
                lo += CHUNK
            else:
                _, helper = pending.popleft()
                sent[helper].popleft()
                yield from helper.recv()
    except BaseException:
        for helper in helpers:
            helper.close(kill=True)
        raise
    _POOL.give_back(helpers)


def run_search(
    n_min: int,
    n_max: int,
    samples: int,
    seed: int,
    out_path,
    threads: int | None = None,
    emit_all: bool = False,
) -> int:
    """Analyze `samples` random trees; write one JSONL record per find.

    Records stream to `out_path` in sample-index order, one whole line per
    write, so a run stopped by an error or Ctrl-C leaves a prefix of its
    records, each line whole; with one worker, the records of every sample
    examined before the stop.  The file content is independent of
    `threads`, the number of processes that examine trees (default:
    os.cpu_count()): threads - 1 worker processes plus this one, which
    examines chunks while they start.  Workers are helper processes served
    over pipes (indpoly._Helper); an exception raised in one is raised
    here with its type, and a worker that dies raises RuntimeError.  They
    are taken from the process's pool (indpoly._POOL) and kept idle for
    later runs and indpoly_sst calls once this run returns, at most
    os.cpu_count() - 1 of them; the rest are stopped, and after an
    exception every worker of the run is killed.  Kept workers exit with
    this process.  One worker, or a run that fits in one chunk, runs in
    this process alone, and so does a run from a script read from stdin or
    from a daemonic process (indpoly._helper_context).  New workers fork
    from a fork server that has this module imported
    (indpoly._fork_context); the first pooled run or SST helper in a
    process starts it, and it exits with this process.  Its preload list
    is process-wide.
    Each worker still imports the caller's main module (spawned ones too,
    where there is no fork server), so a script that runs several must
    guard its entry point with `if __name__ == "__main__":`.  With
    emit_all every sample is recorded, breaks or not; the command line
    never sets that, but tests do.  Returns the number of records written.
    """
    if n_min < 2:
        raise ValueError("n-min must be >= 2")
    if n_max < n_min:
        raise ValueError("n-max must be >= n-min")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads is None:
        workers = os.cpu_count() or 1
    elif threads < 1:
        raise ValueError("threads must be >= 1")
    else:
        workers = threads
    workers = min(workers, -(-samples // CHUNK))
    # not fork: forking a caller that runs threads can deadlock; the fork
    # server is a fresh single-threaded process (see the module docstring)
    ctx = _helper_context(spawn=True) if workers > 1 else None
    if ctx is None:
        lines = _examine(seed, 0, samples, n_min, n_max, emit_all)
    else:
        lines = _pooled_lines(seed, samples, n_min, n_max, emit_all, workers, ctx)
    written = 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
                written += 1
    finally:
        lines.close()  # a failed write stops the pool now, not at collection
    return written
