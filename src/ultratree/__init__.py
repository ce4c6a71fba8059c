"""Ultrametrics generated by vertex-labeled trees.

Exact-rational toolkit: distances generated by finite labeled trees, indexed
path-maximum queries, hulls and attachment points, symbolically presented
infinite trees with topological classification (complete / discrete / totally
bounded / compact), finite ultrametric spaces, tree representability read off
the dendrogram and an exhaustive sphere-plus-center scan.
"""

from .builders import fig1, fig10, four_point_space, star_vs_path
from .classify import (
    FreeTreeReport,
    Verdict,
    Witness,
    classify,
    free_predicates,
    isolated_points,
)
from .core_tree import (
    LabeledTree,
    build_tree,
    distance_matrix,
    dl_naive,
    is_isomorphic_labeled,
    is_non_degenerate,
    path,
    restrict,
)
from .errors import PreconditionFailed, SizeCapExceeded, UltraTreeError
from .finite_space import (
    conjecture_predicate,
    conjecture_scan,
    enumerate_spaces,
    representable,
)
from .hull import CombReport, Hull, attachment_point, attachment_points, hull
from .pathmax import all_pairs, build_index, query
from .ratio import format_rational, parse_rational
from .seqs import (
    Const,
    Custom,
    FiniteSupport,
    Geometric,
    Harmonic,
    Modulated,
    PrimeRecip,
    Ref,
)
from .spaces import (
    Ball,
    Hierarchy,
    UltraSpace,
    balls,
    canonical_hierarchy,
    isometric,
    validate_space,
)
from .symbolic import (
    Finite,
    GlueFamily,
    GlueFinite,
    Ray,
    ScaledLabels,
    Star,
    count_vertices_geq,
    format_address,
    parse_address,
    truncate,
    validate_symbolic,
)
from .treeio import (
    export_dot,
    space_from_json,
    space_to_json,
    symbolic_from_json,
    symbolic_to_json,
    tree_from_json,
    tree_to_json,
)
from .witness import compact_labeling_witness, discrete_tb_labeling_witness

__all__ = [
    "fig1",
    "fig10",
    "four_point_space",
    "star_vs_path",
    "FreeTreeReport",
    "Verdict",
    "Witness",
    "classify",
    "free_predicates",
    "isolated_points",
    "LabeledTree",
    "build_tree",
    "distance_matrix",
    "dl_naive",
    "is_isomorphic_labeled",
    "is_non_degenerate",
    "path",
    "restrict",
    "PreconditionFailed",
    "SizeCapExceeded",
    "UltraTreeError",
    "conjecture_predicate",
    "conjecture_scan",
    "enumerate_spaces",
    "representable",
    "CombReport",
    "Hull",
    "attachment_point",
    "attachment_points",
    "hull",
    "all_pairs",
    "build_index",
    "query",
    "format_rational",
    "parse_rational",
    "Const",
    "Custom",
    "FiniteSupport",
    "Geometric",
    "Harmonic",
    "Modulated",
    "PrimeRecip",
    "Ref",
    "Ball",
    "Hierarchy",
    "UltraSpace",
    "balls",
    "canonical_hierarchy",
    "isometric",
    "validate_space",
    "Finite",
    "GlueFamily",
    "GlueFinite",
    "Ray",
    "ScaledLabels",
    "Star",
    "count_vertices_geq",
    "format_address",
    "parse_address",
    "truncate",
    "validate_symbolic",
    "export_dot",
    "space_from_json",
    "space_to_json",
    "symbolic_from_json",
    "symbolic_to_json",
    "tree_from_json",
    "tree_to_json",
    "compact_labeling_witness",
    "discrete_tb_labeling_witness",
]
