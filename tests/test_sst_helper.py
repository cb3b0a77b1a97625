"""indpoly_sst's helper process: the power of out at a large level is
computed in a process forked from the package's fork server, with the same
result as inline; a helper that dies raises, and none outlives its call."""

import contextlib
import hashlib
import multiprocessing
import os
import random
import signal
import subprocess
import sys

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
    """The _PowerHelper instances started from now on."""
    helpers, init = [], indpoly._PowerHelper.__init__

    def spy(helper, ctx):
        init(helper, ctx)
        helpers.append(helper)

    monkeypatch.setattr(indpoly._PowerHelper, "__init__", spy)
    return helpers


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
    """Start helpers by fork, so that they see this process's patches, and
    make each kill itself inside its first power."""
    parent, real = os.getpid(), indpoly._lpow

    def lpow(u, e):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(u, e)

    monkeypatch.setattr(indpoly, "_lpow", lpow)
    monkeypatch.setattr(indpoly, "_fork_context", lambda: multiprocessing.get_context("fork"))
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)


def test_offloading_every_level_gives_the_inline_result(monkeypatch):
    # the 10 x 10 Tmt1 grid of verify, and random level profiles; every
    # level with c >= 2 and out of more than 2 coefficients is sent
    rnd = random.Random(32)
    cases = [[m, t, 1] for m in range(1, 11) for t in range(1, 11)]
    cases += [[rnd.randint(1, 4) for _ in range(rnd.randint(1, 7))] for _ in range(20)]
    want = [inline(counts) for counts in cases]
    helpers = spy_helpers(monkeypatch)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    assert [indpoly_sst(counts).coeffs for counts in cases] == want
    # Tmt1:m,t sends its top level for m, t >= 2
    assert len(helpers) >= 81
    assert all(h.process.exitcode == 0 for h in helpers)
    assert multiprocessing.active_children() == []


def test_large_levels_alone_are_sent(monkeypatch):
    # T(2^7 1^23) sends its top level only: c**2 len(out) bits(max(out)) is
    # about 2**21.8 there and 2**19.8 one level down
    sent, send = [], indpoly._PowerHelper.send

    def spy(helper, u, e):
        sent.append(e)
        send(helper, u, e)

    monkeypatch.setattr(indpoly._PowerHelper, "send", spy)
    counts = [2] * 7 + [1] * 23
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 1 << 21)
    assert indpoly_sst(counts).coeffs == inline(counts)
    assert sent == [2]


def test_a_helper_killed_mid_power_raises(monkeypatch):
    helpers_that_die(monkeypatch)
    helpers = spy_helpers(monkeypatch)
    with deadline(30), pytest.raises(RuntimeError, match="helper process exited with code -9"):
        indpoly_sst([3, 3, 1])
    (helper,) = helpers
    assert not helper.process.is_alive()
    assert multiprocessing.active_children() == []


def test_reproduce_fails_when_its_helper_is_killed(monkeypatch, capsys):
    helpers_that_die(monkeypatch)
    with deadline(30):
        code = cli.main(["reproduce"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL
    assert err.startswith("reproduce: internal error: RuntimeError(")
    assert "helper process exited with code -9" in err
    assert multiprocessing.active_children() == []


def test_no_helper_outlives_a_return_or_an_exception(monkeypatch):
    helpers = spy_helpers(monkeypatch)
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    assert indpoly_sst([3, 3, 1]).coeffs == inline([3, 3, 1])
    (done,) = helpers
    assert not done.process.is_alive() and done.process.exitcode == 0
    # this process's own power fails while the helper holds its own
    real = indpoly._lpow

    def lpow(u, e):
        if len(u) > 2 and e == 4:
            raise RuntimeError("boom")
        return real(u, e)

    monkeypatch.setattr(indpoly, "_lpow", lpow)
    with pytest.raises(RuntimeError, match="boom"):
        indpoly_sst([4, 3, 1])
    failed = helpers[1]
    assert len(helpers) == 2 and not failed.process.is_alive()
    assert multiprocessing.active_children() == []


def test_inline_in_a_daemonic_pool_worker(monkeypatch):
    # a daemonic process may have no children; a helper would fail to start
    monkeypatch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(indpoly_sst, ([5, 4, 1],))
    assert got.coeffs == inline([5, 4, 1])


def test_inline_on_one_core(monkeypatch):
    def refuse(helper, ctx):
        raise AssertionError("a helper started")

    monkeypatch.setattr(indpoly._PowerHelper, "__init__", refuse)
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
