"""Seeded random-tree search for log-concavity counterexamples.

Every sample is fully determined by (master seed, sample index): the
sample's vertex count comes from the stream seeded with
derive_seed(master, 2*index), and the tree itself is
random_tree(n, derive_seed(master, 2*index + 1)).  A persisted record
therefore replays from its own fields alone.

The sample indices are cut into contiguous ranges of CHUNK indices.  With
more than one worker and more than one chunk, the parent spawns one fewer
worker process and examines ranges itself while they start and run; it
writes all records in index order, so the output is byte-identical no
matter how many workers ran the search.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass

from .rng import SplitMix64, derive_seed
from .seqcheck import analyze
from .trees import RootedTree, edge_list_text, random_tree

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
    return json.dumps(
        {
            "seed": rec.seed,
            "sample_index": rec.sample_index,
            "n": rec.n,
            "edge_list": rec.edge_list,
            "breaks": list(rec.breaks),
            "alpha": rec.alpha,
        }
    )


def record_from_json(line: str) -> SearchRecord:
    obj = json.loads(line)
    return SearchRecord(
        seed=obj["seed"],
        sample_index=obj["sample_index"],
        n=obj["n"],
        edge_list=obj["edge_list"],
        breaks=tuple(obj["breaks"]),
        alpha=obj["alpha"],
    )


def tree_seed_for(master: int, index: int) -> int:
    """The per-sample tree seed; fixed scheme, see module docstring."""
    return derive_seed(master, 2 * index + 1)


def sample_tree(master: int, index: int, n_min: int, n_max: int) -> RootedTree:
    """The tree examined at `index` in a run keyed by `master`."""
    rng = SplitMix64(derive_seed(master, 2 * index))
    n = n_min + rng.randbelow(n_max - n_min + 1)
    return random_tree(n, tree_seed_for(master, index))


def replay_record(rec: SearchRecord) -> RootedTree:
    """Regenerate the recorded tree from the record's own fields."""
    return random_tree(rec.n, tree_seed_for(rec.seed, rec.sample_index))


def _examine(seed, lo, hi, n_min, n_max, emit_all):
    """JSONL lines, without newlines, of the samples lo..hi-1 that are
    recorded: those with breaks, or all of them with emit_all."""
    for index in range(lo, hi):
        tree = sample_tree(seed, index, n_min, n_max)
        report = analyze(tree)
        if report.breaks or emit_all:
            yield record_to_json(
                SearchRecord(
                    seed=seed,
                    sample_index=index,
                    n=tree.n,
                    edge_list=edge_list_text(tree),
                    breaks=report.breaks,
                    alpha=report.alpha,
                )
            )


def _examine_range(seed, lo, hi, n_min, n_max, emit_all):
    """A pooled run's task: the record lines of one index range."""
    return list(_examine(seed, lo, hi, n_min, n_max, emit_all))


def _ignore_sigint():
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and shuts the pool down, so workers print no tracebacks
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pooled_lines(seed, samples, n_min, n_max, emit_all, workers):
    """Record lines of all samples in index order, examined by workers - 1
    spawned processes and by this one.

    The chunks not yet yielded wait, oldest first, in one deque: futures of
    the pool, and line lists this process examined itself.  While the
    oldest is not back and chunks remain, this process examines the next
    chunk rather than wait, so it works while the pool starts.  The pool
    has at most 2 * (workers - 1) chunks in flight and never takes the
    last chunk, which this process examines while the pool finishes.  The
    deque holds at most 4 * workers chunks, so memory stays
    O(workers * CHUNK) whatever the sample count.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    in_flight_max = 2 * (workers - 1)
    pending_max = 4 * workers

    def chunk(lo):
        return seed, lo, min(lo + CHUNK, samples), n_min, n_max, emit_all

    # spawn, not fork: forking a caller that runs threads can deadlock
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers - 1, mp_context=ctx, initializer=_ignore_sigint) as pool:
        try:
            pending = deque()
            lo = 0
            while pending or lo < samples:
                in_flight = sum(not isinstance(e, list) and not e.done() for e in pending)
                while lo + CHUNK < samples and in_flight < in_flight_max and len(pending) < pending_max:
                    pending.append(pool.submit(_examine_range, *chunk(lo)))
                    lo += CHUNK
                    in_flight += 1
                if pending and isinstance(pending[0], list):
                    yield from pending.popleft()
                elif lo < samples and len(pending) < pending_max and not (pending and pending[0].done()):
                    pending.append(_examine_range(*chunk(lo)))
                    lo += CHUNK
                else:
                    yield from pending.popleft().result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    os.cpu_count()): threads - 1 spawned worker processes plus this one,
    which examines chunks while they start.  One worker, or a run that
    fits in one chunk, runs in this process alone.  Workers are spawned,
    so a script that runs several must guard its entry point with
    `if __name__ == "__main__":`.  With emit_all every sample is
    recorded, breaks or not; the command line never sets that, but tests
    and benchmarks do.  Returns the number of records written.
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
    if workers == 1:
        lines = _examine(seed, 0, samples, n_min, n_max, emit_all)
    else:
        lines = _pooled_lines(seed, samples, n_min, n_max, emit_all, workers)
    written = 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
                written += 1
    finally:
        lines.close()  # a failed write stops the pool now, not at collection
    return written
