"""conestab: exact stability invariants of toric cone singularities.

The calculus runs entirely in rational arithmetic: cones, their slices and
lattice points, an exact simplex solver, monomial filtrations with their
Newton polyhedra, the scalar invariants (volume, S, extremal slopes, lct,
Ding, Futaki, delta, J-norms), normalized-volume minimization with
optimality certificates, and finite-level lattice estimators with
convergence diagnostics.
"""

from .errors import ConestabError
from .estimators import (
    EstimatorSweep,
    SemigroupSample,
    bj_bound_check,
    gamma_semigroup,
    good_valuation_check,
    sweep,
    sweep_approx,
)
from .exactgeom import (
    Cone,
    PLConcave,
    Polytope,
    cone_from_rays,
    dual_cone,
    fractional_lp,
    lattice_points_below,
    lp_solve,
    slice_polytope,
)
from .filtration import (
    MonomialFiltration,
    approx_ord,
    approximant,
    geodesic,
    intersect,
    monomial_filtration,
    newton_polyhedron,
    ord_of,
    rescale,
    toric_filtration,
    twist,
    value_under,
)
from .invariants import (
    InvariantReport,
    OkounkovBody,
    delta_T,
    ding,
    futaki_derivative,
    futaki_product,
    j_norm,
    lambda_max_closed,
    lambda_min_closed,
    lct_monomial,
    nvol,
    okounkov_body,
    reduced_j,
    s_closed,
    semistable_verdict,
    vol,
)
from .optimize import NvolResult, minimize_nvol
from .singularity import (
    ConeSingularity,
    ReebVector,
    from_rays,
    log_discrepancy,
    reeb_contains,
    reeb_vector,
)

__version__ = "0.1.0"
