"""Smoke test of benchmarks/layers.py, which times the code as shipped and
patches indpoly's bounds and intpoly's leaf cap and paths by name where it
retunes or spies on them: its SST, tree-DP, leaf-square, convolution-grid,
search-sample, oracle, lc_breaks and spider-suite tables run on one small
case each, and put back every value they force."""

import importlib.util
import os

from indseqlab import indpoly, intpoly, seqcheck

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "layers.py")


def test_layer_tables_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.indpoly is indpoly
    monkeypatch.setattr(layers, "SST_CASES", layers.SST_CASES[:1])
    monkeypatch.setattr(layers, "TREE_SHAPES", [s for s in layers.TREE_SHAPES if s[0] == "Star"])
    monkeypatch.setattr(layers, "TREE_SIZES", (26,))
    monkeypatch.setattr(layers, "TREE_CALLS", 1)
    # one square of 101 coefficients, 1,043,431 packed bits, between a cap
    # of 2^19 and twice it, so that it is evaluated at +-X
    monkeypatch.setattr(layers, "SQUARE_SIZES", (1 << 20,))
    monkeypatch.setattr(layers, "LEAF_CAPS", (1 << 19,))
    monkeypatch.setattr(layers, "GRID_COUNTS", (64,))
    monkeypatch.setattr(layers, "GRID_BITS", (64,))
    monkeypatch.setattr(layers, "SEARCH_SIZES", (26,))
    monkeypatch.setattr(layers, "SEARCH_SAMPLES", 2)
    monkeypatch.setattr(layers, "ORACLE_SIZES", (8,))
    monkeypatch.setattr(layers, "ORACLE_CALLS", 1)
    monkeypatch.setattr(layers, "LC_BITS", (200,))
    monkeypatch.setattr(layers, "LC_LENGTHS", (16,))
    monkeypatch.setattr(layers, "LC_ENTRIES", 32)
    monkeypatch.setattr(layers, "SPIDER_T_MAX", 5)
    gate = seqcheck._SCREEN_MIN_BITS
    names = ("_SLOTS_FROM_N_MAX_VERTICES", "_PACKED_MAX_BITS")
    bounds = [getattr(indpoly, name) for name in names]
    kernel_names = ("LEAF_MAX_BITS",) + layers.KERNEL_PATHS
    kernel = [getattr(intpoly, name) for name in kernel_names]
    (row,) = layers.sst_table(1)
    assert row["tree"] == layers.SST_CASES[0][0] and row["s"] > 0
    (row,) = layers.tree_dp_table(1)
    assert row["tree"] == "Star" and row["n"] == 26
    assert all(row[column + "_s"] > 0 for column, _ in layers.TREE_MODES)
    (row,) = layers.square_table(1)
    assert row["packed_bits"] == 1043431 and row["leaf_cap_bits"] == 1 << 19
    assert row["s"] > 0 and row["peak_mb"] > 0 and row["paths"] == ["_kronecker_two_point"]
    (row,) = layers.convolution_grid(1)
    assert (row["count"], row["bits"], row["paths"]) == (64, 64, ["_kronecker_binary"]) and row["s"] > 0
    (row,) = layers.search_sample_table(1)
    assert row["n"] == 26 and row["us"] > 0
    (row,) = layers.oracle_table(1)
    assert row["n"] == 8 and row["oracle_us"] > 0 and row["cli_us"] > 0
    (row,) = layers.lc_breaks_table(1)
    assert (row["bits"], row["length"]) == (200, 16) and row["exact_us"] > 0 and row["screen_us"] > 0
    sequence = layers.concave_sequence(200, 16)
    assert {c.bit_length() for c in sequence} == {200} and seqcheck.lc_breaks(sequence) == []
    (row,) = layers.spider_suite_table(1)
    assert row["t_max"] == 5 and row["s"] > 0
    # the CLI's stdout is discarded
    assert capsys.readouterr().out == ""
    # the tables put back the bounds, cap and paths they force
    assert [getattr(indpoly, name) for name in names] == bounds
    assert [getattr(intpoly, name) for name in kernel_names] == kernel
    assert seqcheck._SCREEN_MIN_BITS == gate
