"""Command-line surface: outputs, exit codes, JSON artifacts.

Exit-code contract: 0 success, 1 verification mismatch, 2 usage/parse
error, 3 analyze found breaks, 4 internal failure.  Scripted invocations run in-process via
cli.main; a couple of subprocess calls check the installed entry point
behaves the same.
"""

import functools
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from indseqlab import cli
from indseqlab.intpoly import IntPolynomial
from indseqlab.seqcheck import report_from_json
from test_search import SEARCH_SHA256

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# SHA-256 of `verify`'s default stdout
VERIFY_SHA256 = "631f111e96a7653e930a8c15e8ab1bebef41ca38d65e3f3193aa885238cb0219"
# SHA-256 of `oracle Rand:22,1`'s stdout: the DP and subset-sweep sequences
ORACLE_SHA256 = "9b9b2e0392edc35e898ec1fc6fbee6c4089aa1c2e408203d698c8b42fe6a4523"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_path2(capsys):
    code, out, _ = run_cli(capsys, "poly", "Path:2")
    assert code == 0
    assert out == "0: 1\n1: 2\n"


def test_poly_prints_coefficients_past_the_str_digit_limit(capsys, monkeypatch):
    big = 10**5000 + 1
    monkeypatch.setattr(cli, "_load_sequence", lambda args: (3, (1, big, 1)))
    code, out, _ = run_cli(capsys, "poly", "Path:3")
    assert code == 0
    assert out == "0: 1\n1: 1%s1\n2: 1\n" % ("0" * 4999)


def test_poly_spider2(capsys):
    code, out, _ = run_cli(capsys, "poly", "Spider:2")
    assert code == 0
    assert [line.split(": ")[1] for line in out.splitlines()] == ["1", "5", "6", "1"]


def test_poly_tmt1_43(capsys):
    code, out, _ = run_cli(capsys, "poly", "Tmt1:4,3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17  # degree 16 listing
    assert lines[0] == "0: 1"
    assert lines[1] == "1: 29"
    assert lines[-1] == "16: 1"


def test_poly_bad_spec(capsys):
    code, out, err = run_cli(capsys, "poly", "Tmt1:0,3")
    assert code == 2
    assert out == ""
    assert "m and t" in err


def test_poly_unknown_family(capsys):
    code, _, err = run_cli(capsys, "poly", "Frob:1")
    assert code == 2 and "unknown family" in err


def test_tree_input_is_exclusive(capsys, tmp_path):
    f = tmp_path / "e.txt"
    f.write_text("0 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "poly", "Path:2", "--edges", str(f))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "poly")
    assert exc.value.code == 2


def test_poly_edges_file(capsys, tmp_path):
    f = tmp_path / "tree.txt"
    f.write_text("# three-vertex path\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "poly", "--edges", str(f))
    assert code == 0
    assert out == "0: 1\n1: 3\n2: 1\n"


def test_poly_edges_diagnostics(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "poly", "--edges", str(f))
    assert code == 2 and "disconnected" in err
    code, _, err = run_cli(capsys, "poly", "--edges", str(tmp_path / "missing.txt"))
    assert code == 2


def test_edge_faults_name_vertices_past_the_str_digit_limit(capsys, tmp_path):
    # a 5,001-digit vertex is named in the fault, not a conversion error
    big = "1" + "0" * 5000
    cases = [("0 1\n1 %s\n" % big, "2 edges on 1%s1 vertices: input is disconnected" % ("0" * 4999)),
             ("0 %s\n%s 0\n" % (big, big), "duplicate edge 0 %s" % big),
             ("2 %s\n%s %s\n" % (big, big, big), "line 2: self-loop at vertex %s" % big)]
    f = tmp_path / "bad.txt"
    for text, message in cases:
        f.write_text(text)
        assert run_cli(capsys, "poly", "--edges", str(f)) == (2, "", "poly: %s\n" % message)


def test_analyze_break_exit_code(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "analyze", "Tmt1:4,4", "--json", str(report_path))
    assert code == 3
    assert "breaks: [18]" in out
    assert "log_concave: no" in out
    report = report_from_json(report_path.read_text().rstrip("\n"))
    assert report.n == 37 and report.breaks == (18,)
    # round trip: re-serializing the parsed report is byte-identical
    from indseqlab.seqcheck import report_to_json

    assert report_to_json(report) + "\n" == report_path.read_text()


def test_analyze_log_concave_exit_code(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Path:10")
    assert code == 0
    assert "breaks: []" in out
    assert "log_concave: yes" in out


def test_analyze_deep_sst(capsys):
    spec = "SST:" + ",".join(["2"] * 5 + ["1"] * 15)
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 3
    breaks = json.loads(out.splitlines()[2].split(": ", 1)[1])
    assert len(breaks) == 3


def test_analyze_matches_generic_route(capsys, tmp_path):
    # fast path (family spec) and edge-list route agree
    from indseqlab.trees import edge_list_text, tmt1

    code_a, out_a, _ = run_cli(capsys, "analyze", "Tmt1:3,3")
    edges = tmp_path / "t33.txt"
    edges.write_text(edge_list_text(tmt1(3, 3)))
    code_b, out_b, _ = run_cli(capsys, "analyze", "--edges", str(edges))
    assert (code_a, out_a) == (code_b, out_b)


def test_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "oracle", "Tmt1:2,2")
    assert code == 0
    assert out.endswith("MATCH\n")
    code, out, _ = run_cli(capsys, "oracle", "Path:22")
    assert code == 0


def test_oracle_budget(capsys, monkeypatch):
    # every spec is refused from its parameters, never built: SST:10,...,10
    # would have 11.1M vertices, Cat:200000 is one spine vertex and its pendants
    built = []
    monkeypatch.setattr(cli, "build_family", lambda spec: built.append(spec))
    code, _, err = run_cli(capsys, "oracle", "Tmt1:4,4")
    assert code == 2
    assert "37 vertices" in err
    # SST:1000,...,1000 with 1,500 levels has 1 + 1000 + ... + 1000**1500
    # vertices, 4,501 digits, past the int/str digit limit
    for spec, n in (("Path:2000000", "2000000"), ("SST:" + ",".join(["10"] * 7), "11111111"),
                    ("Rand:200000,1", "200000"), ("Cat:200000", "200001"),
                    ("SST:" + ",".join(["1000"] * 1500), "1" + "001" * 1500)):
        code, out, err = run_cli(capsys, "oracle", spec)
        assert (code, out) == (2, "")
        assert err == "oracle: tree has %s vertices, limit is 22\n" % n
    assert built == []


def test_oracle_mismatch(capsys, monkeypatch):
    # a DP that disagrees with the sweep is a fault: MISMATCH, exit 1
    monkeypatch.setattr(cli, "indpoly_tree", lambda tree: IntPolynomial([1, tree.n + 1]))
    code, out, _ = run_cli(capsys, "oracle", "Path:3")
    assert code == 1
    assert out == "dp     : 1 4\noracle : 1 3 1\nMISMATCH\n"


@pytest.mark.parametrize("argv", [["poly", "Cat:2,0,3"], ["poly", "Tmt1:2,2"],
                                  ["analyze", "Cat:1"], ["oracle", "Rand:8,1"]],
                         ids=" ".join)
def test_each_spec_parsed_once(capsys, monkeypatch, argv):
    calls = []
    parse = cli.parse_family
    monkeypatch.setattr(cli, "parse_family", lambda text: calls.append(text) or parse(text))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [argv[1]]


def test_verify_small_bounds(capsys, tmp_path):
    summary = tmp_path / "verify.json"
    code, out, _ = run_cli(
        capsys, "verify", "--t-max", "25", "--grid-max", "4", "--json", str(summary)
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    obj = json.loads(summary.read_text())
    assert obj["all_pass"] is True
    assert len(obj["checks"]) == len(lines) - 1
    code, _, err = run_cli(capsys, "verify", "--t-max", "0")
    assert code == 2
    # at grid bounds 1 to 3 the mt+2 and mt+3 ranges are empty or one row
    for g in (1, 2, 3):
        code, out, _ = run_cli(capsys, "verify", "--t-max", "5", "--grid-max", str(g))
        assert code == 0
        assert out.splitlines()[3:8] == [
            "PASS root_split_sum_equals_polynomial grid m,t<=%d" % g,
            "PASS with_root_tops_out_at_mt+1_with_2^mt grid m,t<=%d" % g,
            "PASS closed_form_count_at_mt+2 grid 2<=m,t<=%d" % g,
            "PASS lower_bound_at_mt+3 grid 3<=m<=%d t<=%d" % (g, g),
            "PASS break_sufficient_implies_break grid m,t<=%d" % g,
        ]
        assert out.endswith("verify: 10/10 checks passed\n")


def test_search_cli(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, out, _ = run_cli(
        capsys, "search", "--n-min", "5", "--n-max", "5", "--samples", "100",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 0 records" in out
    assert out_path.read_bytes() == b""
    code, _, err = run_cli(
        capsys, "search", "--n-min", "1", "--n-max", "5", "--samples", "10",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 2 and "n-min" in err


def test_search_refuses_sizes_past_2_64(tmp_path):
    # n-min..n-max holds 2**64 + 1 sizes, more than the sampler's range: one
    # stderr line and exit 2 at once; a rejection loop with no range check
    # would never accept a draw, so this runs under a timeout
    argv = ["search", "--n-min", "2", "--n-max", str(2**64 + 2), "--samples", "1",
            "--seed", "1", "--threads", "1", "--out", "x.jsonl"]
    proc = subprocess.run(
        [sys.executable, "-m", "indseqlab.cli", *argv], capture_output=True, text=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "search: randbelow needs 1 <= n <= 2**64, got %d\n" % (2**64 + 1)


BIG = 10**3000  # a 3,001-digit count


@pytest.mark.parametrize("argv, n", [
    (["poly", "Path:%d" % 10**19], 10**19),
    (["poly", "Path:%d" % BIG], BIG),
    (["poly", "Spider:3,%d" % BIG], 1 + 3 * BIG),
    (["analyze", "SST:%d" % BIG], 1 + BIG),
    (["analyze", "Rand:%d,1" % (sys.maxsize + 1)], sys.maxsize + 1),
    (["oracle", "Path:%d" % BIG], BIG),
], ids=["poly-Path-1e19", "poly-Path-1e3000", "poly-Spider-legs-1e3000", "analyze-SST-1e3000",
        "analyze-Rand-maxsize+1", "oracle-Path-1e3000"])
def test_specs_past_maxsize_vertices_refused_unbuilt(tmp_path, argv, n):
    # sized from the parameters alone: one stderr line and exit 2, with no
    # level list of n - 1 entries and no polynomial of a 3,001-digit degree
    # built, so each runs under a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "indseqlab.cli", *argv], capture_output=True, text=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    limit = 22 if argv[0] == "oracle" else sys.maxsize
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "%s: tree has %d vertices, limit is %d\n" % (argv[0], n, limit)


SEARCH_ARGV = ["search", "--n-min", "26", "--n-max", "40", "--samples", "10", "--seed", "1",
               "--threads", "1", "--out", "x.jsonl"]
VERIFY_ARGV = ["verify", "--t-max", "5", "--grid-max", "2"]


@pytest.mark.parametrize("bad", ["1_0", "\u0664"])
@pytest.mark.parametrize("argv,option", [(SEARCH_ARGV, o) for o in SEARCH_ARGV[1:11:2]]
                         + [(VERIFY_ARGV, o) for o in VERIFY_ARGV[1::2]])
def test_integer_options_read_ascii_digits_only(capsys, monkeypatch, tmp_path, argv, option, bad):
    # int() reads underscores and non-ASCII digits; an integer option, like
    # a spec parameter, may not, and argparse names the option it refused
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    argv[argv.index(option) + 1] = bad
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "indseqlab %s: error: argument %s: invalid int value: %r" % (argv[0], option, bad))


@pytest.mark.parametrize("bad", [" +3", "+3", "03", "-0", "3 "])
@pytest.mark.parametrize("argv,option", [(SEARCH_ARGV, o) for o in SEARCH_ARGV[1:11:2]]
                         + [(VERIFY_ARGV, o) for o in VERIFY_ARGV[1::2]])
def test_integer_options_read_only_as_str_writes_them(capsys, monkeypatch, tmp_path, argv,
                                                       option, bad):
    # int() reads a sign, spaces and leading zeros too; an option is read as
    # str() writes an int, as spec parameters are
    test_integer_options_read_ascii_digits_only(capsys, monkeypatch, tmp_path, argv, option, bad)


def test_internal_failure_exit_code(capsys, monkeypatch):
    # an internal failure is neither a mismatch (1) nor a usage error (2)
    def exhausted(counts):
        raise MemoryError

    monkeypatch.setattr(cli, "indpoly_sst", exhausted)
    code, out, err = run_cli(capsys, "analyze", "Tmt1:2,2")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "analyze: internal error: MemoryError()\n"


@pytest.mark.parametrize(
    "command, code, digest",
    [
        ("verify", 0, VERIFY_SHA256),
        ("reproduce", 1, "c0288e4058871d14b7e32d7f1ac24850faa0eca53d2964041bf5f33ebb246fe3"),
    ],
)
def test_suite_output_pinned(capsys, command, code, digest):
    # SHA-256 of the default stdout, recorded before the binomial rows and
    # the packed level recursion; reproduce exits 1 on its one known FAIL row
    got, out, _ = run_cli(capsys, command)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@functools.cache
def other_interpreters():
    """{sys.version: path} of every Python >= 3.10 found that starts, other
    than this one: pyenv's installs, and python3.1x on PATH (a pyenv shim
    for a version that is not selected exits nonzero, and is dropped)."""
    candidates = sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python")))
    candidates += filter(None, (shutil.which("python3.%d" % minor) for minor in range(10, 20)))
    probe = "import sys; assert sys.version_info >= (3, 10); print(sys.version)"
    found = {}
    for exe in candidates:
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = proc.stdout.strip()
        if proc.returncode == 0 and version != sys.version:
            found.setdefault(version, exe)
    return found


def cli_digests_on_other_pythons(tmp_path, *argv):
    """{version: (exit code, stdout SHA-256)} of one CLI call under each
    other interpreter; skips the test when there is none."""
    found = other_interpreters()
    if not found:
        pytest.skip("no other Python >= 3.10 starts: none in ~/.pyenv/versions, no python3.1x on PATH")
    env = dict(os.environ, PYTHONPATH=SRC)
    got = {}
    for version, exe in found.items():
        proc = subprocess.run(
            [exe, "-m", "indseqlab.cli", *argv], capture_output=True, cwd=tmp_path, env=env, timeout=600
        )
        got[version] = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
    return got


def test_verify_pinned_on_every_other_python(tmp_path):
    # the same bytes under every supported interpreter; reproduce is left
    # out for its cost, about 2 s per interpreter
    got = cli_digests_on_other_pythons(tmp_path, "verify")
    assert got == dict.fromkeys(got, (0, VERIFY_SHA256))


def test_oracle_pinned_on_every_other_python(tmp_path):
    # the largest oracle sweep, 2^22 subsets, gives the same bytes under
    # every supported interpreter
    got = cli_digests_on_other_pythons(tmp_path, "oracle", "Rand:22,1")
    assert got == dict.fromkeys(got, (0, ORACLE_SHA256))


# the pinned 600-sample search, then a (32, 80) audit, whose ratios pass a
# digit limit of 640, through pickle; Python 3.10 pickles a Fraction
# through str()
OTHER_PYTHON_CHECKS = """
import hashlib, pickle, sys
from indseqlab.formulas import audit_term_ratios
from indseqlab.search import run_search

run_search(26, 40, 600, 5, "pinned.jsonl", threads=1, emit_all=True)
with open("pinned.jsonl", "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
audit = audit_term_ratios(32, 80)
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(640)
print(pickle.loads(pickle.dumps(audit)) == audit)
"""


def test_search_and_audit_pickle_on_every_other_python(tmp_path):
    found = other_interpreters()
    if not found:
        pytest.skip("no other Python >= 3.10 starts: none in ~/.pyenv/versions, no python3.1x on PATH")
    env = dict(os.environ, PYTHONPATH=SRC)
    got = {}
    for version, exe in found.items():
        proc = subprocess.run(
            [exe, "-c", OTHER_PYTHON_CHECKS], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=600
        )
        got[version] = (proc.returncode, proc.stdout, proc.stderr)
    assert got == dict.fromkeys(found, (0, SEARCH_SHA256 + "\nTrue\n", ""))


@pytest.fixture
def fresh_parser():
    """`main` builds its parser anew on its next call, and again after the
    test, so that no parser a test built outlives it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_reuse_keeps_no_state(capsys, monkeypatch, tmp_path, fresh_parser):
    # every call below runs on the one parser `main` keeps
    first = run_cli(capsys, "oracle", "Path:4")
    assert first[0] == 0
    for argv in (["oracle"], ["oracle", "Path:4", "--edges", "e.txt"], ["verify", "--t-max", "x"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2
        assert "error: " in capsys.readouterr().err
    assert run_cli(capsys, "oracle", "Path:4") == first

    # an option given once falls back to its default on the next call
    bounds = []
    monkeypatch.setattr(cli, "_verify_checks", lambda t_max, grid_max: bounds.append((t_max, grid_max)) or [])
    assert run_cli(capsys, "verify", "--t-max", "5")[0] == 0
    assert run_cli(capsys, "verify")[0] == 0
    assert bounds == [(5, 8), (300, 8)]

    # --edges is not kept for the spec that follows it, nor the spec for --edges
    star = tmp_path / "star.txt"
    star.write_text("0 1\n0 2\n0 3\n")
    path3 = (0, "dp     : 1 3 1\noracle : 1 3 1\nMATCH\n", "")
    assert run_cli(capsys, "oracle", "--edges", str(star))[1].endswith("oracle : 1 4 3 1\nMATCH\n")
    assert run_cli(capsys, "oracle", "Path:3") == path3
    assert run_cli(capsys, "oracle", "--edges", str(star))[1].endswith("oracle : 1 4 3 1\nMATCH\n")

    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: indseqlab oracle")


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for argv in (["poly", "Path:2"], ["oracle", "Path:3"], ["analyze", "Path:4"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1
    # build_parser() gives each caller its own parser, and what a caller
    # adds to its copy is not accepted by main
    mine = build()
    assert mine is not build() and mine is not cli._parser()
    mine.add_argument("--extra", action="store_true")
    assert mine.parse_args(["--extra", "poly", "Path:2"]).extra
    with pytest.raises(SystemExit) as exc:
        cli.main(["--extra", "poly", "Path:2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --extra" in capsys.readouterr().err


def test_cli_without_command_fails(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_console_entry_point():
    # the installed script and module runner agree with in-process calls
    proc = subprocess.run(
        [sys.executable, "-m", "indseqlab.cli", "poly", "Path:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0: 1\n1: 2\n"
    proc = subprocess.run(
        [sys.executable, "-m", "indseqlab.cli", "analyze", "Tmt1:4,4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def test_closed_stdout_pipe():
    # like `indseqlab poly Path:3000 | head -1`: the reader leaves after one
    # line, and the writer exits 141 (128 + SIGPIPE) with nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "indseqlab.cli", "poly", "Path:3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"0: 1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
