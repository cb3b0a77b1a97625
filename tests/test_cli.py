"""Command-line surface: outputs, exit codes, JSON artifacts.

Exit-code contract: 0 success, 1 verification mismatch, 2 usage/parse
error, 3 analyze found breaks, 4 internal failure.  Scripted invocations run in-process via
cli.main; a couple of subprocess calls check the installed entry point
behaves the same.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from indseqlab import cli
from indseqlab.seqcheck import report_from_json


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
    # a spherically symmetric spec is refused from its levels, never built:
    # SST:10,...,10 would have 11.1M vertices
    built = []
    monkeypatch.setattr(cli, "build_family", lambda spec: built.append(spec))
    code, _, err = run_cli(capsys, "oracle", "Tmt1:4,4")
    assert code == 2
    assert "37 vertices" in err
    for spec, n in (("Path:2000000", 2000000), ("SST:" + ",".join(["10"] * 7), 11111111)):
        code, out, err = run_cli(capsys, "oracle", spec)
        assert (code, out) == (2, "")
        assert err.endswith("tree has %d vertices, limit is 22\n" % n)
    assert built == []


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
        ("verify", 0, "631f111e96a7653e930a8c15e8ab1bebef41ca38d65e3f3193aa885238cb0219"),
        ("reproduce", 1, "c0288e4058871d14b7e32d7f1ac24850faa0eca53d2964041bf5f33ebb246fe3"),
    ],
)
def test_suite_output_pinned(capsys, command, code, digest):
    # SHA-256 of the default stdout, recorded before the binomial rows and
    # the packed level recursion; reproduce exits 1 on its one known FAIL row
    got, out, _ = run_cli(capsys, command)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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
