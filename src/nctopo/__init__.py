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
    CollapseTrace,
    apply_pairs,
    circulant_schedule,
    collapse_core,
)
from .complexes import SimplicialComplex, neighborhood_complex
from .graphs import (
    Graph,
    circulant,
    connected_components,
    find_fold,
    fold_reduce,
    is_connected,
    normalize_circulant_pair,
    read_edge_list,
)
from .homology import (
    ChainComplex,
    HomologyProfile,
    chain_complex,
    homology,
    uct_check,
)
from .shelling import (
    verify_shelling,
    wedge_shelling_orders,
)
from .surfaces import (
    classify_surface,
    is_pseudomanifold,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CASE_TAGS",
    "PREDICTIONS",
    "CollapseTrace",
    "ChainComplex",
    "ComponentReport",
    "Graph",
    "HomologyProfile",
    "SimplicialComplex",
    "ClassificationCase",
    "VerificationReport",
    "analyze_graph",
    "apply_pairs",
    "case_of",
    "chain_complex",
    "circulant",
    "circulant_schedule",
    "classify_surface",
    "collapse_core",
    "connected_components",
    "find_fold",
    "fold_reduce",
    "homology",
    "is_connected",
    "is_pseudomanifold",
    "neighborhood_complex",
    "normalize_circulant_pair",
    "predicted",
    "read_edge_list",
    "reduce_to_core",
    "special_params",
    "uct_check",
    "verify",
    "verify_shelling",
    "wedge_shelling_orders",
    "__version__",
]
