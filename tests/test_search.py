"""Seeded search: determinism across runs and worker counts, replayability,
chunking and interrupted runs."""

import glob
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from indseqlab import search
from indseqlab.search import (
    CHUNK,
    SearchRecord,
    examine_sample,
    record_from_json,
    record_to_json,
    replay_record,
    run_search,
    sample_tree,
)
from indseqlab.seqcheck import analyze
from indseqlab.trees import _edge_text, edge_list_text

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# SHA-256 of a 600-sample emit-all run at n = 26..40, seed 5, recorded with
# the coefficient-list DP and a heap-based Pruefer decoder; neither the
# sampled trees nor their analysis may drift by a byte
SEARCH_SHA256 = "0ecc1e81ceff428bd9d43e90b1e2c5949058539140338b1717e032ce7eaad7fd"


def test_search_validation(tmp_path):
    out = tmp_path / "x.jsonl"
    with pytest.raises(ValueError):
        run_search(1, 5, 10, 0, out)
    with pytest.raises(ValueError):
        run_search(5, 4, 10, 0, out)
    with pytest.raises(ValueError):
        run_search(5, 5, 0, 0, out)
    with pytest.raises(ValueError):
        run_search(5, 5, 10, 0, out, threads=-1)
    with pytest.raises(ValueError):
        run_search(5, 5, 10, 0, out, threads=0)


def test_small_trees_are_all_log_concave(tmp_path):
    # trees on at most 25 vertices never break log-concavity
    out = tmp_path / "small.jsonl"
    written = run_search(5, 5, 100, 1, out)
    assert written == 0
    assert out.read_bytes() == b""


def test_search_deterministic_across_runs_and_threads(tmp_path):
    outs = []
    for i, threads in enumerate([1, 2, 8, 2]):
        out = tmp_path / ("run%d.jsonl" % i)
        written = run_search(8, 14, 60, 424242, out, threads=threads, emit_all=True)
        assert written == 60
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]
    assert outs[0].count(b"\n") == 60


def test_search_output_pinned(tmp_path):
    out = tmp_path / "pinned.jsonl"
    assert run_search(26, 40, 600, 5, out, threads=1, emit_all=True) == 600
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SEARCH_SHA256


def test_records_match_analyze_of_the_sampled_tree(tmp_path):
    # every record of the decoding's DP equals analyze and edge_list_text of
    # the RootedTree the sample replays to
    out = tmp_path / "all.jsonl"
    assert run_search(2, 60, 1500, 17, out, threads=1, emit_all=True) == 1500
    for line in out.read_text().splitlines():
        rec = record_from_json(line)
        tree = sample_tree(17, rec.sample_index, 2, 60)
        report = analyze(tree)
        assert (rec.n, rec.breaks, rec.alpha) == (tree.n, report.breaks, report.alpha)
        assert rec.edge_list == edge_list_text(tree)


@pytest.mark.parametrize("n", [113, 200, 450])
def test_examine_sample_past_the_slots_from_n_bound(n):
    # past 112 vertices the DP counts i(T) first, and at 450 it runs on
    # coefficient lists
    for index in range(3):
        tree = sample_tree(8, index, n, n)
        report = analyze(tree)
        parent, breaks, alpha = examine_sample(8, index, n, n)
        assert (len(parent), breaks, alpha) == (n, report.breaks, report.alpha)
        assert _edge_text(parent) == edge_list_text(tree)


def test_examine_sample_checks_alpha(monkeypatch):
    monkeypatch.setattr(search, "_independence_number", lambda parent, order: -1)
    with pytest.raises(RuntimeError, match="disagrees with alpha"):
        examine_sample(1, 0, 26, 40)


def test_records_replay(tmp_path):
    out = tmp_path / "all.jsonl"
    run_search(6, 12, 25, 99, out, emit_all=True)
    lines = out.read_text().splitlines()
    assert len(lines) == 25
    for line in lines:
        rec = record_from_json(line)
        tree = replay_record(rec)
        assert tree.n == rec.n
        assert edge_list_text(tree) == rec.edge_list
        report = analyze(tree)
        assert tuple(rec.breaks) == report.breaks
        assert rec.alpha == report.alpha
        # the sampling route reproduces the same tree end to end
        assert sample_tree(rec.seed, rec.sample_index, 6, 12) == tree


def test_record_json_roundtrip():
    rec = SearchRecord(
        seed=2**63 + 5,
        sample_index=3,
        n=4,
        edge_list="0 1\n0 2\n2 3",
        breaks=(2,),
        alpha=3,
    )
    line = record_to_json(rec)
    assert record_from_json(line) == rec
    obj = json.loads(line)
    assert list(obj.keys()) == ["seed", "sample_index", "n", "edge_list", "breaks", "alpha"]


def test_sample_trees_vary():
    trees = {edge_list_text(sample_tree(5, i, 6, 12)) for i in range(30)}
    assert len(trees) > 20


@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_chunked_output_identical_across_worker_counts(tmp_path, samples):
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / ("w%d.jsonl" % threads)
        assert run_search(4, 9, samples, 2024, out, threads=threads, emit_all=True) == samples
        outs.append(out.read_bytes())
        assert multiprocessing.active_children() == []
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].decode().splitlines()
    assert [record_from_json(line).sample_index for line in lines] == list(range(samples))


def test_two_pooled_runs_in_one_process(tmp_path):
    # the second run forks its workers from the fork server the first one
    # started; both write what one process writes
    samples = 3 * CHUNK + 7
    want = tmp_path / "inline.jsonl"
    run_search(4, 9, samples, 41, want, threads=1, emit_all=True)
    for i in range(2):
        out = tmp_path / ("pooled%d.jsonl" % i)
        assert run_search(4, 9, samples, 41, out, threads=2, emit_all=True) == samples
        assert out.read_bytes() == want.read_bytes()
        assert multiprocessing.active_children() == []


def _session_processes(sid):
    """(pid, state) of every process in session `sid`, from /proc."""
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                text = fh.read()
        except OSError:
            continue  # gone between the listing and the read
        # the command name may hold spaces and parentheses; the fields
        # after its last ')' are state, ppid, pgrp, session, ...
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            found.append((int(text.split(None, 1)[0]), fields[0]))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_process_outlives_a_pooled_cli_run(tmp_path):
    # the fork server and the resource tracker exit with the run that
    # started them; a zombie counts as gone, since only its reaper is late
    argv = ["search", "--n-min", "4", "--n-max", "9", "--samples", str(3 * CHUNK + 7),
            "--seed", "1", "--threads", "2", "--out", "x.jsonl"]
    # files, not pipes: a process left running would hold a pipe open
    with open(tmp_path / "err.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "indseqlab.cli", *argv], stdout=subprocess.DEVNULL,
            stderr=err, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
            start_new_session=True,
        )
        assert proc.wait(timeout=60) == 0, (tmp_path / "err.txt").read_text()
    deadline = time.monotonic() + 10
    while True:
        alive = [p for p in _session_processes(proc.pid) if p[1] != "Z"]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert alive == []


def test_fewer_samples_than_workers(tmp_path):
    out = tmp_path / "few.jsonl"
    assert run_search(4, 9, 3, 5, out, threads=8, emit_all=True) == 3
    assert out.read_text().count("\n") == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()])
def test_inline_failure_leaves_complete_records_before_it(tmp_path, monkeypatch, exc):
    full = tmp_path / "full.jsonl"
    run_search(4, 9, 40, 11, full, threads=1, emit_all=True)
    real, calls = search.examine_sample, []

    def examine_sample(*args):
        if len(calls) == 23:
            raise exc
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, "examine_sample", examine_sample)
    out = tmp_path / "cut.jsonl"
    with pytest.raises(type(exc)):
        run_search(4, 9, 40, 11, out, threads=1, emit_all=True)
    want = full.read_text().splitlines(keepends=True)[:23]
    assert out.read_text() == "".join(want)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_interrupted_pooled_run_stops_workers_and_keeps_whole_records(tmp_path):
    # far more chunks than run before the alarm; the rest are cancelled
    samples = 4000 * CHUNK
    full = tmp_path / "full.jsonl"
    run_search(4, 9, 4 * CHUNK, 12, full, threads=1, emit_all=True)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    out = tmp_path / "cut.jsonl"
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            run_search(4, 9, samples, 12, out, threads=2, emit_all=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    cut = out.read_text()
    lines = cut.splitlines()
    assert cut.endswith("\n") and cut.startswith(full.read_text())
    assert [record_from_json(line).sample_index for line in lines] == list(range(len(lines)))


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()])
def test_failure_in_a_chunk_this_process_examines(tmp_path, monkeypatch, exc):
    # on the pool path this process examines chunks too; the workers import
    # examine_sample afresh, so only this process's chunks fail
    samples = 3 * CHUNK + 7
    full = tmp_path / "full.jsonl"
    run_search(4, 9, samples, 13, full, threads=1, emit_all=True)

    def examine_sample(*args):
        raise exc

    monkeypatch.setattr(search, "examine_sample", examine_sample)
    out = tmp_path / "cut.jsonl"
    with pytest.raises(type(exc)):
        run_search(4, 9, samples, 13, out, threads=2, emit_all=True)
    assert multiprocessing.active_children() == []
    cut = out.read_text()
    lines = cut.splitlines(keepends=True)
    assert full.read_text().startswith(cut)
    assert all(line.endswith("\n") for line in lines)
    assert [record_from_json(line).sample_index for line in lines] == list(range(len(lines)))


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_threads_count_this_process(tmp_path, monkeypatch, threads):
    # threads = k starts k - 1 worker processes, and this process examines
    # at least one chunk: the last, which the pool never takes
    samples = 8 * CHUNK + 7
    want = tmp_path / "inline.jsonl"
    run_search(4, 9, samples, 21, want, threads=1, emit_all=True)
    started, examined = [], []
    method = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
    process_class = multiprocessing.get_context(method).Process
    start, examine = process_class.start, search._examine

    def spy_start(process):
        started.append(process)
        return start(process)

    def spy_examine(seed, lo, hi, *args):
        examined.append((lo, hi))
        return examine(seed, lo, hi, *args)

    monkeypatch.setattr(process_class, "start", spy_start)
    monkeypatch.setattr(search, "_examine", spy_examine)
    out = tmp_path / "pooled.jsonl"
    assert run_search(4, 9, samples, 21, out, threads=threads, emit_all=True) == samples
    assert multiprocessing.active_children() == []
    assert out.read_bytes() == want.read_bytes()
    assert len(started) == threads - 1
    assert (8 * CHUNK, samples) in examined
    assert all(lo % CHUNK == 0 and hi == min(lo + CHUNK, samples) for lo, hi in examined)


def test_last_chunk_after_the_pool_drains(tmp_path, monkeypatch):
    # every chunk of the pool comes back while this process examines one of
    # its own; it yields them all, and the deque is empty when this process
    # still has the last chunk to examine
    from concurrent.futures import process, wait

    samples = 3 * CHUNK + 7
    want = tmp_path / "inline.jsonl"
    run_search(4, 9, samples, 31, want, threads=1, emit_all=True)
    futures = []
    submit, examine = process.ProcessPoolExecutor.submit, search._examine

    def spy_submit(pool, *args):
        futures.append(submit(pool, *args))
        return futures[-1]

    def examine_once_the_pool_is_done(*args):
        wait(futures, timeout=60)
        assert all(f.done() for f in futures)
        return examine(*args)

    monkeypatch.setattr(process.ProcessPoolExecutor, "submit", spy_submit)
    monkeypatch.setattr(search, "_examine", examine_once_the_pool_is_done)
    out = tmp_path / "pooled.jsonl"
    assert run_search(4, 9, samples, 31, out, threads=2, emit_all=True) == samples
    assert out.read_bytes() == want.read_bytes()
    assert multiprocessing.active_children() == []
