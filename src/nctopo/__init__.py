"""Neighborhood complexes of circulant graphs: construction, reduction,
homology, surface recognition, and classification checks.

The exact integer kernels (Smith normal form, GF(2) rank) live in one
pure-Python module, ``_kernels``; ``BACKEND`` names them, ``"pure"``, in
benchmark metadata.
"""

from ._kernels import BACKEND
from .classify import (
    CASE_TAGS,
    PREDICTIONS,
    ComponentReport,
    ClassificationCase,
    VerificationReport,
    analyze_graph,
    case_of,
    predicted,
    reduce_to_core,
    special_params,
    verify,
)
from .collapse import (
    CollapseError,
    CollapseTrace,
    CongruenceError,
    circulant_collapse_pairs,
    collapse_core,
    collapse_step,
    triangle_collapse_pairs,
    verify_collapsible_pair,
)
from .complexes import SimplicialComplex, boundary_of_simplex, neighborhood_complex
from .graphs import (
    Graph,
    circulant,
    circulant_component_count,
    connected_components,
    find_fold,
    fold_reduce,
    induced_subgraph,
    is_connected,
    normalize_circulant_pair,
    read_edge_list,
)
from .homology import (
    ChainComplex,
    HomologyProfile,
    chain_complex,
    homology,
    smith_normal_form,
    uct_check,
)
from .shelling import (
    SearchLimitExceeded,
    ShellingReport,
    find_shelling,
    verify_shelling,
    wedge_shelling_orders,
)
from .surfaces import (
    SurfaceReport,
    classify_surface,
    is_closed_surface,
    is_pseudomanifold,
    orient,
    vertex_link,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CASE_TAGS",
    "PREDICTIONS",
    "CollapseError",
    "CollapseTrace",
    "ChainComplex",
    "ComponentReport",
    "CongruenceError",
    "Graph",
    "HomologyProfile",
    "SearchLimitExceeded",
    "ShellingReport",
    "SimplicialComplex",
    "SurfaceReport",
    "ClassificationCase",
    "VerificationReport",
    "analyze_graph",
    "boundary_of_simplex",
    "case_of",
    "chain_complex",
    "circulant",
    "circulant_collapse_pairs",
    "circulant_component_count",
    "classify_surface",
    "collapse_core",
    "collapse_step",
    "connected_components",
    "find_fold",
    "find_shelling",
    "fold_reduce",
    "homology",
    "induced_subgraph",
    "is_closed_surface",
    "is_connected",
    "is_pseudomanifold",
    "neighborhood_complex",
    "normalize_circulant_pair",
    "orient",
    "predicted",
    "read_edge_list",
    "reduce_to_core",
    "smith_normal_form",
    "special_params",
    "triangle_collapse_pairs",
    "uct_check",
    "verify",
    "verify_collapsible_pair",
    "verify_shelling",
    "vertex_link",
    "wedge_shelling_orders",
    "__version__",
]
