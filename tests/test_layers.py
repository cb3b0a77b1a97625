"""Smoke test of benchmarks/layers.py, which forces indpoly's bounds and
arithmetic tables by name: its SST, SST-power and tree-DP tables run on
one small case each."""

import importlib.util
import os

from indseqlab import indpoly

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "layers.py")


def test_layer_tables_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.indpoly is indpoly
    monkeypatch.setattr(layers, "SST_CASES", layers.SST_CASES[:1])
    monkeypatch.setattr(layers, "SST_POWER_CASES", layers.SST_POWER_CASES[:1])
    monkeypatch.setattr(layers, "TREE_SHAPES", [s for s in layers.TREE_SHAPES if s[0] == "Star"])
    monkeypatch.setattr(layers, "TREE_SIZES", (26,))
    monkeypatch.setattr(layers, "TREE_CALLS", 1)
    names = ("_SST_PACKED_MAX_BITS", "_SLOTS_FROM_N_MAX_VERTICES", "_PACKED_MAX_BITS", "_packed", "_ON_LISTS")
    bounds = [getattr(indpoly, name) for name in names]
    (row,) = layers.sst_table(1)
    assert row["tree"] == layers.SST_CASES[0][0] and row["int_s"] > 0 and row["list_s"] > 0
    (row,) = layers.sst_power_table(1)
    assert row["tree"] == layers.SST_POWER_CASES[0][0] and row["row_s"] > 0 and row["pow_s"] > 0
    (row,) = layers.tree_dp_table(1)
    assert row["tree"] == "Star" and row["n"] == 26
    assert all(row[column + "_s"] > 0 for column, *_ in layers.TREE_MODES)
    # the tables put back the bounds and arithmetic they force
    assert [getattr(indpoly, name) for name in names] == bounds
