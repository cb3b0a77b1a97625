"""Smoke test of benchmarks/layers.py, which times the code as shipped and
patches indpoly's bounds and intpoly's leaf cap and paths by name where it
retunes or spies on them: its search-pool, SST, offload, tree-DP,
leaf-square, four-point band, convolution-grid, draws, lane-count,
search-sample, oracle, lc_breaks and spider-suite tables run on one or two
small cases each, and put back every value they force."""

import importlib.util
import os

from indseqlab import indpoly, intpoly, rng, search, seqcheck
from test_sst_helper import only_idle_helpers_alive

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "layers.py")


def test_layer_tables_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.indpoly is indpoly
    monkeypatch.setattr(layers, "POOL_SAMPLES", 2 * search.CHUNK + 1)
    monkeypatch.setattr(layers, "SST_CASES", layers.SST_CASES[:1])
    # a Spider's hub gathers several non-leaf children's products; a Star's has none
    monkeypatch.setattr(layers, "TREE_SHAPES", [s for s in layers.TREE_SHAPES if s[0] in ("Spider", "Star")])
    monkeypatch.setattr(layers, "TREE_SIZES", (26,))
    monkeypatch.setattr(layers, "TREE_CALLS", 1)
    # squares of 101 and 202 coefficients, 1,043,431 and 2,087,064 packed
    # bits: between a cap of 2^19 and twice it, evaluated at +-X, and
    # between twice the cap and four times it, at four points
    monkeypatch.setattr(layers, "SQUARE_SIZES", (1 << 20, 1 << 21))
    monkeypatch.setattr(layers, "LEAF_CAPS", (1 << 19,))
    monkeypatch.setattr(layers, "BAND_BITS", (64,))
    monkeypatch.setattr(layers, "BAND_CAPS", (1.5, 3))
    monkeypatch.setattr(layers, "GRID_COUNTS", (64,))
    monkeypatch.setattr(layers, "GRID_BITS", (64,))
    monkeypatch.setattr(layers, "DRAW_COUNTS", (1, 17))
    monkeypatch.setattr(layers, "DRAW_BLOCKS", (16,))
    monkeypatch.setattr(layers, "DRAW_SEEDS", 3)
    monkeypatch.setattr(layers, "LANE_ORACLE_SIZES", (14,))
    monkeypatch.setattr(layers, "SEARCH_SIZES", (26,))
    monkeypatch.setattr(layers, "SEARCH_SAMPLES", 2)
    monkeypatch.setattr(layers, "ORACLE_SIZES", (8,))
    monkeypatch.setattr(layers, "ORACLE_CALLS", 1)
    monkeypatch.setattr(layers, "PREP_SIZES", (17,))
    monkeypatch.setattr(layers, "PREP_SEEDS", range(1, 3))
    monkeypatch.setattr(layers, "LC_BITS", (200,))
    monkeypatch.setattr(layers, "LC_LENGTHS", (16,))
    monkeypatch.setattr(layers, "LC_ENTRIES", 32)
    monkeypatch.setattr(layers, "SPIDER_T_MAX", 5)
    gate = seqcheck._SCREEN_MIN_BITS
    names = ("_SLOTS_FROM_N_MAX_VERTICES", "_PACKED_MAX_BITS", "_OFFLOAD_MIN_BITS")
    bounds = [getattr(indpoly, name) for name in names]
    kernel_names = ("LEAF_MAX_BITS",) + layers.KERNEL_PATHS
    kernel = [getattr(intpoly, name) for name in kernel_names]
    block = rng._LANE_BLOCK
    (row,) = layers.search_pool_table(1)
    assert (row["n_min"], row["n_max"], row["samples"]) == (26, 40, 2 * search.CHUNK + 1)
    assert row["threads"] >= 2
    assert row["first_pooled_s"] > 0 and row["later_pooled_s"] > 0 and row["inline_s"] > 0
    only_idle_helpers_alive()
    (row,) = layers.sst_table(1)
    assert row["tree"] == layers.SST_CASES[0][0] and row["s"] > 0 and row["inline_s"] > 0
    # no spider level is ever sent, and the kept helpers were stopped first
    assert row["helper_peak_mb"] is None and indpoly._POOL._idle == []
    # with every level sent, Tmt1:3,3's top level starts a helper, kept
    with monkeypatch.context() as patch:
        patch.setattr(indpoly, "_OFFLOAD_MIN_BITS", 0)
        patch.setattr(layers, "SST_CASES", (("Tmt1:3,3", [3, 3, 1]),))
        (row,) = layers.sst_table(1)
        assert indpoly._OFFLOAD_MIN_BITS == 0
    assert row["s"] > 0 and row["inline_s"] > 0 and len(indpoly._POOL._idle) == 1
    if os.path.isdir("/proc/self"):
        assert row["helper_peak_mb"] > 0
    monkeypatch.setattr(layers, "OFFLOAD_CASES", (("Tmt1:3,3", [3, 3, 1]),))
    monkeypatch.setattr(layers, "OFFLOAD_FROM_BITS", 0)
    first_use_start_s, (row,) = layers.offload_table(1)
    assert first_use_start_s > 0 and (row["tree"], row["c"]) == ("Tmt1:3,3", 3)
    assert row["sent_s"] > 0 and row["inline_s"] > 0
    only_idle_helpers_alive()
    rows = layers.tree_dp_table(1)
    assert [(row["tree"], row["n"]) for row in rows] == [("Spider", 25), ("Star", 26)]
    assert all(row[column + "_s"] > 0 for row in rows for column, _ in layers.TREE_MODES)
    rows = layers.square_table(1)
    assert [(row["packed_bits"], row["leaf_cap_bits"]) for row in rows] == [(1043431, 1 << 19), (2087064, 1 << 19)]
    assert all(row["s"] > 0 and row["peak_mb"] > 0 for row in rows)
    assert [row["paths"] for row in rows] == [["_kronecker_two_point"], ["_kronecker_four_point"]]
    # squares of 64-bit coefficients in 1.5 and 3 times a cap of 2^18: at
    # two points as shipped, then at four; each timed in all three kernels
    with monkeypatch.context() as patch:
        patch.setattr(intpoly, "LEAF_MAX_BITS", 1 << 18)
        rows = layers.band_table(1)
    assert [(row["coeff_bits"], row["count"], row["packed_bits"], row["leaf_caps"]) for row in rows] == [
        (64, 2674, 374360, 1.5),
        (64, 5313, 749133, 3),
    ]
    assert [row["paths"] for row in rows] == [["_kronecker_two_point"], ["_kronecker_four_point"]]
    for row in rows:
        assert all(row[name.lstrip("_") + "_s"] > 0 for name in layers.BAND_KERNELS)
        assert row["four_over_two_point"] > 0 and row["four_over_karatsuba"] > 0
    (row,) = layers.convolution_grid(1)
    assert (row["count"], row["bits"], row["paths"]) == (64, 64, ["_kronecker_binary"]) and row["s"] > 0
    # 17 draws take two rounds under a block of 16
    rows = layers.draws_table(1)
    assert [row["k"] for row in rows] == [1, 17]
    assert all(row["shipped_us"] > 0 and row["block_16_us"] > 0 for row in rows)
    (row,) = layers.lane_table_sizes()
    assert row["block"] == 16 and row["lanes_kb"] > 0
    # each sample draws its vertex count in a round of one lane, and its
    # tree of 26..40 vertices in a round of 24..38; Rand:14,1 draws 12
    search_row, oracle_row = layers.lane_counts_table()
    assert search_row["pass"] == "search" and 2 <= search_row["lane_counts"] <= 16
    assert search_row["rounds"] >= 2 * layers.POOL_SAMPLES
    assert oracle_row == {"pass": "oracle", "lane_counts": 1, "rounds": 1}
    (row,) = layers.search_sample_table(1)
    assert row["n"] == 26 and row["us"] > 0
    (row,) = layers.oracle_table(1)
    assert row["n"] == 8 and row["oracle_us"] > 0 and row["cli_us"] > 0
    (row,) = layers.sweep_prep_table(1)
    assert row["n"] == 17 and row["prep_us"] > 0
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
    assert rng._LANE_BLOCK == block
