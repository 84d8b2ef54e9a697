"""Exact computation in wreath products H wr Z.

Word metrics and group arithmetic, canonical coset models of the two
associated trees, explicit Hilbert-space embeddings with their affine
actions, brute-force verification oracles, and an empirical distortion lab.
"""

from .basegroups import INTEGERS, GroupSpec, ParseError, cyclic, parse_group
from .compression import (
    BoundSet,
    DistortionSample,
    EnvelopeFit,
    bounds,
    fit_envelope,
    sample_pairs,
)
from .embeddings import (
    AffineMap,
    TreeMode,
    affine_alpha,
    cocycle,
    embedded_distance,
    gamma_action_on_sum,
    iota,
    lamp_mode,
    sigma,
    weighted_tree_embed,
)
from .oracles import (
    BudgetError,
    PropernessReport,
    ball_sizes,
    cayley_bfs,
    properness_check,
    properness_cross_check,
    tree_bfs_dist,
    tree_bfs_dists,
)
from .trees import (
    TreeSide,
    TreeVertex,
    act,
    base_vertex,
    dist,
    dist_from_base,
    format_vertex,
    geodesic,
    geodesic_halves,
    vertex_of,
)
from .vectors import GeomEdge, LampCoord, SignedEdge, SparseVector, geom_edge
from .wreath import (
    WreathElement,
    format_element,
    parse_element,
    travel_length,
)

__version__ = "0.1.0"

__all__ = [
    "INTEGERS",
    "AffineMap",
    "BoundSet",
    "BudgetError",
    "DistortionSample",
    "EnvelopeFit",
    "GeomEdge",
    "GroupSpec",
    "LampCoord",
    "ParseError",
    "PropernessReport",
    "SignedEdge",
    "SparseVector",
    "TreeMode",
    "TreeSide",
    "TreeVertex",
    "WreathElement",
    "act",
    "affine_alpha",
    "ball_sizes",
    "base_vertex",
    "bounds",
    "cayley_bfs",
    "cocycle",
    "cyclic",
    "dist",
    "dist_from_base",
    "embedded_distance",
    "fit_envelope",
    "format_element",
    "format_vertex",
    "gamma_action_on_sum",
    "geodesic",
    "geodesic_halves",
    "geom_edge",
    "iota",
    "lamp_mode",
    "parse_element",
    "parse_group",
    "properness_check",
    "properness_cross_check",
    "sample_pairs",
    "sigma",
    "tree_bfs_dist",
    "tree_bfs_dists",
    "travel_length",
    "vertex_of",
    "weighted_tree_embed",
]
