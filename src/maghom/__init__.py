"""Magnitude, path, and injective-word homology of finite digraphs.

The package computes the bigraded magnitude homology of a digraph in
three flavors (all-distinct, ordinary, and their quotient), path and
regular path homology, the complex of injective words with the
spectral sequence connecting all of these, and the derived polynomial
and metric graph invariants.  Everything is exact: one sparse column
reduction, fraction-free over Q and mod p over F_p; over Z it takes +-1
pivots only, and a small dense Smith reduction of the columns left over
gives the torsion.
"""

from .chains import FilteredComplex, certified_length_bound, trail_complex
from .errors import GraphError, MaghomError, ParseError, ResourceCapError
from .graphs import (
    DirectedGraph,
    alternating,
    are_isomorphic,
    cartesian,
    cone,
    digraph,
    family,
    girth,
    join,
    opposite,
    parse_graph,
    point,
    reachability_preorder,
    rho,
    transitive_tournament,
    vertex_orbits,
)
from .homology import (
    AbelianGroupInvariant,
    HomologyTable,
    chain_homology,
    homology_table,
    les_verify,
    splitting_check,
)
from .invariants import (
    Polynomial,
    classify_diagonality,
    complete_graph_detector,
    delta_distance,
    gamma,
    is_regularly_diagonal,
    magnitude_series,
    regular_magnitude,
    subdiagonal_bound,
    subgraph_network,
)
from .pathhom import allowed_paths, omega_basis, path_homology
from .spectral import (
    SpectralSequence,
    diagonal_convergence,
    mpss,
    mpss_report,
    page_one_inclusion_report,
    rmpss,
    rmpss_report,
)
from .verify import run_check, run_suite
from .words import directed_flag, order_complex

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupInvariant",
    "DirectedGraph",
    "FilteredComplex",
    "GraphError",
    "HomologyTable",
    "MaghomError",
    "ParseError",
    "Polynomial",
    "ResourceCapError",
    "SpectralSequence",
    "allowed_paths",
    "alternating",
    "are_isomorphic",
    "cartesian",
    "chain_homology",
    "certified_length_bound",
    "classify_diagonality",
    "complete_graph_detector",
    "cone",
    "delta_distance",
    "diagonal_convergence",
    "digraph",
    "directed_flag",
    "family",
    "gamma",
    "girth",
    "homology_table",
    "is_regularly_diagonal",
    "join",
    "les_verify",
    "magnitude_series",
    "mpss",
    "mpss_report",
    "omega_basis",
    "opposite",
    "order_complex",
    "page_one_inclusion_report",
    "parse_graph",
    "path_homology",
    "point",
    "reachability_preorder",
    "regular_magnitude",
    "rho",
    "rmpss",
    "rmpss_report",
    "run_check",
    "run_suite",
    "splitting_check",
    "subdiagonal_bound",
    "subgraph_network",
    "trail_complex",
    "transitive_tournament",
    "vertex_orbits",
]
