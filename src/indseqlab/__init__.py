"""indseqlab: exact independence polynomials of trees and where their
log-concavity breaks.

Everything is exact integer arithmetic.
"""

from .intpoly import ONE, X, ZERO, IntPolynomial, add, coeff, mul, poly_pow
from .trees import (
    FamilySpec,
    RootedTree,
    TreeParseError,
    build_family,
    caterpillar,
    edge_list_text,
    independence_number,
    parse_edge_list,
    parse_family,
    path,
    prufer_decode,
    random_tree,
    spider,
    sst,
    star,
    tmt1,
    tree_from_edges,
    validate_tree,
)
from .indpoly import (
    ORACLE_MAX_VERTICES,
    RootSplit,
    indpoly_forest,
    indpoly_oracle,
    indpoly_sst,
    indpoly_tree,
    root_split,
)
from .seqcheck import (
    AnalysisReport,
    analyze,
    analyze_sequence,
    is_unimodal,
    lc_breaks,
    report_from_json,
    report_to_json,
    tail_monotone,
    tail_start,
)
from . import formulas

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "FamilySpec",
    "IntPolynomial",
    "ONE",
    "ORACLE_MAX_VERTICES",
    "RootSplit",
    "RootedTree",
    "TreeParseError",
    "X",
    "ZERO",
    "add",
    "analyze",
    "analyze_sequence",
    "build_family",
    "caterpillar",
    "coeff",
    "edge_list_text",
    "formulas",
    "independence_number",
    "indpoly_forest",
    "indpoly_oracle",
    "indpoly_sst",
    "indpoly_tree",
    "is_unimodal",
    "lc_breaks",
    "mul",
    "parse_edge_list",
    "parse_family",
    "path",
    "poly_pow",
    "prufer_decode",
    "random_tree",
    "report_from_json",
    "report_to_json",
    "root_split",
    "spider",
    "sst",
    "star",
    "tail_monotone",
    "tail_start",
    "tmt1",
    "tree_from_edges",
    "validate_tree",
]
