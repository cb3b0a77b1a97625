"""The helper processes of indpoly_sst and of search's pool: the power of
out at a large level is computed in a process forked from the package's
fork server, with the same result as inline; a helper that dies raises, an
exception raised in one is raised in its caller with its type, and where
no helper can start the caller runs inline.  Helpers are kept: after a
return the only live children are idle kept helpers, at most
os.cpu_count() - 1, each answering a call; after an exception the helpers
it met are dead and not kept."""

import contextlib
import hashlib
import multiprocessing
import operator
import os
import random
import signal
import subprocess
import sys
import traceback

import pytest

from indseqlab import cli, indpoly, search
from indseqlab.indpoly import indpoly_sst

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NO_OFFLOAD = 1 << 62


def inline(counts):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indpoly, "_OFFLOAD_MIN_BITS", NO_OFFLOAD)
        return indpoly_sst(counts).coeffs


def spy_helpers(monkeypatch):
    """The _Helper instances started from now on."""
    helpers, init = [], indpoly._Helper.__init__

    def spy(helper, ctx):
        init(helper, ctx)
        helpers.append(helper)

    monkeypatch.setattr(indpoly._Helper, "__init__", spy)
    return helpers


def spy_taken(monkeypatch):
    """The helpers the pool hands out from now on, kept or new."""
    taken, take = [], indpoly._Pool.take

    def spy(pool, ctx):
        taken.append(take(pool, ctx))
        return taken[-1]

    monkeypatch.setattr(indpoly._Pool, "take", spy)
    return taken


def close_idle():
    """Stop this process's kept helpers, so that the next one is started."""
    while indpoly._POOL._idle:
        indpoly._POOL._idle.pop().close(kill=False)


def only_idle_helpers_alive():
    """Check the state after a return: the live children are the idle kept
    helpers, at most os.cpu_count() - 1, and each answers a call."""
    idle = indpoly._POOL._idle
    assert sorted(p.pid for p in multiprocessing.active_children()) == sorted(h.process.pid for h in idle)
    assert len(idle) <= (os.cpu_count() or 1) - 1
    for helper in idle:
        helper.send(operator.neg, (7,))
        assert helper.recv() == -7


def killed(helpers):
    """Check the state after an exception: the helpers it met are dead and
    not kept, and the live children are the idle kept helpers."""
    assert helpers
    assert not any(h.process.is_alive() or h in indpoly._POOL._idle for h in helpers)
    only_idle_helpers_alive()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after `seconds`, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError("still waiting after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def helpers_that_die(monkeypatch):
    """Start helpers by fork, so that they run this process's patches, and
    make each kill itself once its first power has been sent to it; the
    kept helpers are stopped, so that none serves instead.  Returns the
    helpers started."""

    def serve(conn):
        conn.recv()
        os.kill(os.getpid(), signal.SIGKILL)

    close_idle()
    monkeypatch.setattr(indpoly, "_serve", serve)
    monkeypatch.setattr(indpoly, "_fork_context", lambda: multiprocessing.get_context("fork"))
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    return spy_helpers(monkeypatch)


def test_offloading_every_level_gives_the_inline_result(monkeypatch):
    # the 10 x 10 Tmt1 grid of verify, and random level profiles; every
    # level with c >= 2 and out of more than 2 coefficients is sent, and
    # no other
    rnd = random.Random(32)
    cases = [[m, t, 1] for m in range(1, 11) for t in range(1, 11)]
    cases += [[rnd.randint(1, 4) for _ in range(rnd.randint(1, 7))] for _ in range(20)]
    want = [inline(counts) for counts in cases]
    sent, send = [], indpoly._Helper.send

    def spy(helper, function, args):
        sent.append((len(args[0]), args[1]))
        send(helper, function, args)

    monkeypatch.setattr(indpoly._Helper, "send", spy)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    assert [indpoly_sst(counts).coeffs for counts in cases] == want
    # Tmt1:m,t sends its top level for m, t >= 2
    assert len(sent) >= 81
    assert all(c >= 2 and length > 2 for length, c in sent)
    monkeypatch.undo()
    only_idle_helpers_alive()


def test_large_levels_alone_are_sent(monkeypatch):
    # T(2^7 1^23) sends its top level only: c**2 len(out) bits(max(out)) is
    # about 2**21.8 there and 2**19.8 one level down
    sent, send = [], indpoly._Helper.send

    def spy(helper, function, args):
        sent.append(args[1])
        send(helper, function, args)

    monkeypatch.setattr(indpoly._Helper, "send", spy)
    counts = [2] * 7 + [1] * 23
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 1 << 21)
    assert indpoly_sst(counts).coeffs == inline(counts)
    assert sent == [2]


def test_a_helper_killed_mid_power_raises(monkeypatch):
    helpers = helpers_that_die(monkeypatch)
    with deadline(30), pytest.raises(RuntimeError, match="helper process exited with code -9"):
        indpoly_sst([3, 3, 1])
    assert len(helpers) == 1
    killed(helpers)


def test_reproduce_fails_when_its_helper_is_killed(monkeypatch, capsys):
    helpers = helpers_that_die(monkeypatch)
    with deadline(30):
        code = cli.main(["reproduce"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL
    assert err.startswith("reproduce: internal error: RuntimeError(")
    assert "helper process exited with code -9" in err
    killed(helpers)


def test_a_return_keeps_its_helper_and_an_exception_kills_it(monkeypatch):
    close_idle()
    helpers = spy_helpers(monkeypatch)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    assert indpoly_sst([3, 3, 1]).coeffs == inline([3, 3, 1])
    (kept,) = helpers
    assert indpoly._POOL._idle == [kept]
    only_idle_helpers_alive()
    # this process's own power fails while the kept helper holds its own:
    # at the top level, the first whose out has more than 2 coefficients
    real = indpoly._ladd

    def ladd(u, v):
        if len(v) > 2:
            raise RuntimeError("boom")
        return real(u, v)

    monkeypatch.setattr(indpoly, "_ladd", ladd)
    with pytest.raises(RuntimeError, match="boom"):
        indpoly_sst([4, 3, 1])
    assert helpers == [kept]
    killed([kept])


def test_a_fork_started_helper_stops_on_close():
    # a child made by plain fork holds this end of its own pipe, so it
    # never reads end of file; the stop message ends it
    helper = indpoly._Helper(multiprocessing.get_context("fork"))
    helper.send(operator.neg, (7,))
    assert helper.recv() == -7
    with deadline(30):
        helper.close(kill=False)
    assert helper.process.exitcode == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="keeps no helper on one core")
def test_pooled_searches_and_an_sst_call_share_one_helper(tmp_path, monkeypatch):
    samples = 3 * search.CHUNK + 7
    want = tmp_path / "inline.jsonl"
    search.run_search(4, 9, samples, 41, want, threads=1, emit_all=True)
    close_idle()
    helpers = spy_helpers(monkeypatch)
    for i in range(2):
        out = tmp_path / ("pooled%d.jsonl" % i)
        search.run_search(4, 9, samples, 41, out, threads=2, emit_all=True)
        assert out.read_bytes() == want.read_bytes()
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    taken = spy_taken(monkeypatch)
    assert indpoly_sst([3, 3, 1]).coeffs == inline([3, 3, 1])
    assert len(helpers) == 1 and taken == helpers
    only_idle_helpers_alive()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="keeps no helper on one core")
def test_a_kept_helper_killed_while_idle_is_replaced(tmp_path, monkeypatch):
    samples = 3 * search.CHUNK + 7
    want = tmp_path / "inline.jsonl"
    search.run_search(4, 9, samples, 41, want, threads=1, emit_all=True)
    search.run_search(4, 9, samples, 41, tmp_path / "first.jsonl", threads=2, emit_all=True)
    (dead,) = indpoly._POOL._idle[-1:]
    os.kill(dead.process.pid, signal.SIGKILL)
    dead.process.join(30)
    assert dead.process.exitcode == -signal.SIGKILL
    helpers = spy_helpers(monkeypatch)
    out = tmp_path / "pooled.jsonl"
    search.run_search(4, 9, samples, 41, out, threads=2, emit_all=True)
    assert out.read_bytes() == want.read_bytes()
    assert len(helpers) == 1 and dead not in indpoly._POOL._idle
    only_idle_helpers_alive()


def test_a_search_closed_mid_run_returns_no_helper(tmp_path, monkeypatch):
    samples = 3 * search.CHUNK + 7
    taken = spy_taken(monkeypatch)
    ctx = indpoly._helper_context(spawn=True)
    lines = search._pooled_lines(41, samples, 4, 9, True, 2, ctx)
    next(lines)
    lines.close()
    killed(taken)
    want, out = tmp_path / "inline.jsonl", tmp_path / "pooled.jsonl"
    search.run_search(4, 9, samples, 41, want, threads=1, emit_all=True)
    search.run_search(4, 9, samples, 41, out, threads=2, emit_all=True)
    assert out.read_bytes() == want.read_bytes()
    only_idle_helpers_alive()


def test_inline_in_a_daemonic_pool_worker(monkeypatch):
    # a daemonic process may have no children; a helper would fail to start
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(indpoly_sst, ([5, 4, 1],))
    assert got.coeffs == inline([5, 4, 1])


def test_inline_on_one_core(monkeypatch):
    def refuse(helper, ctx):
        raise AssertionError("a helper started")

    monkeypatch.setattr(indpoly._Helper, "__init__", refuse)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert indpoly_sst([5, 4, 1]).coeffs == inline([5, 4, 1])


SEARCH_AND_SST = """
import hashlib, sys

sys.path.insert(0, sys.argv[3])
from indseqlab import indpoly, search

indpoly._OFFLOAD_MIN_BITS = 0


def sst():
    return hashlib.sha256(repr(indpoly.indpoly_sst([6, 5, 1]).coeffs).encode()).hexdigest()


def pooled():
    search.run_search(4, 9, 3 * search.CHUNK + 7, 41, sys.argv[2], threads=2, emit_all=True)
    with open(sys.argv[2], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


first, second = (sst, pooled) if sys.argv[1] == "sst" else (pooled, sst)
a, b = first(), second()
print(a if first is sst else b)
print(b if first is sst else a)
# a child of the server finds the package imported there
probe = indpoly._fork_context().Process(
    target=exec, args=("import sys; sys.exit('indseqlab.search' not in sys.modules)",))
probe.start()
probe.join()
print(probe.exitcode)
"""


@pytest.mark.parametrize("first", ["sst", "search"])
def test_sst_and_pooled_search_share_one_fork_server(tmp_path, first):
    # in a fresh process that finds the package on sys.path alone, not on
    # PYTHONPATH, whichever of the two starts the fork server, the server
    # has the package imported, the other forks from it too, and both give
    # what one process computes
    out = tmp_path / "inline.jsonl"
    search.run_search(4, 9, 3 * search.CHUNK + 7, 41, out, threads=1, emit_all=True)
    want = [hashlib.sha256(repr(inline([6, 5, 1])).encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(), "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", SEARCH_AND_SST, first, str(tmp_path / "pooled.jsonl"), SRC],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == want


def forked_workers_that(monkeypatch, act):
    """Start search's workers by fork, so that they run this process's
    patches, and have each call `act` in its first sample; the kept helpers
    are stopped, so that none serves instead.  Returns the workers
    started."""
    parent, real = os.getpid(), search.examine_sample

    def examine_sample(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    close_idle()
    monkeypatch.setattr(search, "examine_sample", examine_sample)
    monkeypatch.setattr(indpoly, "_fork_context", lambda: multiprocessing.get_context("fork"))
    return spy_helpers(monkeypatch)


def test_a_worker_exception_is_raised_with_its_type(tmp_path, monkeypatch):
    def fail():
        raise LookupError("raised in a worker")

    workers = forked_workers_that(monkeypatch, fail)
    with deadline(30), pytest.raises(LookupError, match="raised in a worker") as info:
        search.run_search(4, 9, 3 * search.CHUNK + 7, 13, tmp_path / "x.jsonl", threads=2)
    assert info.type is LookupError
    killed(workers)


def test_a_worker_killed_mid_run_raises(tmp_path, monkeypatch):
    workers = forked_workers_that(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with deadline(30), pytest.raises(RuntimeError, match="helper process exited with code -9"):
        search.run_search(4, 9, 3 * search.CHUNK + 7, 13, tmp_path / "x.jsonl", threads=2)
    killed(workers)


FROM_STDIN = """
import filecmp, multiprocessing
from indseqlab import indpoly, search


def sst(bound):
    indpoly._OFFLOAD_MIN_BITS = bound
    return indpoly.indpoly_sst([6, 5, 1]).coeffs


print(sst(0) == sst(1 << 62))
for threads in (1, 2):
    search.run_search(4, 9, 3 * search.CHUNK + 7, 41, "w%d.jsonl" % threads, threads=threads, emit_all=True)
print(filecmp.cmp("w1.jsonl", "w2.jsonl", shallow=False))
print(multiprocessing.active_children())
"""


def test_a_script_read_from_stdin_runs_inline(tmp_path):
    # multiprocessing's children run the caller's main module first, and
    # '<stdin>' names no file, so no helper could start
    proc = subprocess.run(
        [sys.executable, "-"], input=FROM_STDIN, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["True", "True", "[]", ""]


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(), reason="needs a fork server")
def test_a_plain_fork_after_a_pooled_run(tmp_path, monkeypatch):
    # the child inherits the running fork server's pid but is not its
    # parent: it starts no SST helper, and spawns search's workers.  It
    # forgets its parent's kept helpers: its one worker is its own, and
    # its only child; the parent's helpers still answer once it is gone
    samples = 3 * search.CHUNK + 7
    want = tmp_path / "inline.jsonl"
    search.run_search(4, 9, samples, 41, want, threads=1, emit_all=True)
    search.run_search(4, 9, samples, 41, tmp_path / "pooled.jsonl", threads=2, emit_all=True)
    coeffs = inline([6, 5, 1])
    helpers = spy_helpers(monkeypatch)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    want_child = (True, [], True, ["SpawnProcess"], True)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through a file
        try:
            got = [indpoly_sst([6, 5, 1]).coeffs == coeffs, list(helpers)]
            out = tmp_path / "child.jsonl"
            search.run_search(4, 9, samples, 41, out, threads=2, emit_all=True)
            own = [h.process.pid for h in helpers]
            got += [out.read_bytes() == want.read_bytes(), [type(h.process).__name__ for h in helpers],
                    [p.pid for p in multiprocessing.active_children()] == own
                    and all(h.process.pid in own for h in indpoly._POOL._idle)]
            (tmp_path / "child.txt").write_text(repr(tuple(got)))
        except BaseException:
            (tmp_path / "child.txt").write_text(traceback.format_exc())
        finally:
            os._exit(0)
    with deadline(60):
        os.waitpid(pid, 0)
    assert (tmp_path / "child.txt").read_text() == repr(want_child)
    assert helpers == []
    only_idle_helpers_alive()
