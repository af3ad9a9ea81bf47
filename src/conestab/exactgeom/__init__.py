"""Exact rational convex geometry: cones, simplicial fans, polytopes, LP, lattice points."""

from .cone import Cone, cone_from_halfspaces, cone_from_rays, dual_cone
from .lattice import enumeration_budget, lattice_points_below
from .linalg import dot, frac, primitivize, vec
from .lp import LPResult, fractional_lp, lp_solve
from .polytope import (
    PLConcave,
    Polytope,
    enumerate_vertices,
    slice_polytope,
    slice_vertices,
)

__all__ = [
    "Cone",
    "LPResult",
    "PLConcave",
    "Polytope",
    "cone_from_halfspaces",
    "cone_from_rays",
    "dot",
    "dual_cone",
    "enumerate_vertices",
    "enumeration_budget",
    "frac",
    "fractional_lp",
    "lattice_points_below",
    "lp_solve",
    "primitivize",
    "slice_polytope",
    "slice_vertices",
    "vec",
]
