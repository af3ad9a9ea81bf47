"""Toric cone singularities with their torus action and discrepancy data.

A singularity is a pointed full-dimensional rational cone sigma together
with a boundary coefficient in [0,1) for each ray.  The discrepancy
covector u solves <u, ray_i> = 1 - a_i exactly; it is linear, so the log
discrepancy of any toric valuation is a single pairing.  The Reeb cone is
the interior of sigma; its points index the toric valuations centered at
the vertex.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateCone, NotKlt, NotQGorenstein
from .exactgeom import Cone, cone_from_rays, dot, dual_cone, frac, vec
from .exactgeom.linalg import solve


class ConeSingularity(NamedTuple):
    """Validated toric cone singularity.

    rank:         ambient rank n
    sigma:        the defining cone (rays carry the boundary divisors)
    coefficients: boundary coefficient per ray of sigma, each in [0,1)
    u:            discrepancy covector, <u, v_i> = 1 - a_i on the rays
    weight_cone:  dual cone of sigma (where the monomial exponents live)
    """

    rank: int
    sigma: Cone
    coefficients: tuple
    u: tuple
    weight_cone: Cone


class ReebVector(NamedTuple):
    """Rational point of the open Reeb cone (= interior of sigma)."""

    xi: tuple


def from_rays(rays, coefficients=None) -> ConeSingularity:
    """Build and validate a singularity from ray generators and coefficients.

    Coefficients default to zero (no boundary).  Raises DegenerateCone,
    NotQGorenstein (no exact solution for u) or NotKlt (u not interior).
    """
    sigma = cone_from_rays(rays)
    n = sigma.rank
    if coefficients is None:
        coefficients = [Fraction(0)] * len(rays)
    coefficients = [frac(a) for a in coefficients]
    if len(coefficients) != len(rays):
        raise DegenerateCone("need one coefficient per input ray")
    # Match coefficients to the canonical (sorted, primitivized) ray order.
    from .exactgeom import primitivize
    pairs = {}
    for r, a in zip(rays, coefficients):
        key = primitivize(vec(r))
        if key in pairs and pairs[key] != a:
            raise NotQGorenstein(f"conflicting coefficients on ray {key}")
        pairs[key] = a
    for key, a in pairs.items():
        if key not in sigma.rays and a != 0:
            raise DegenerateCone(
                f"nonzero coefficient on non-extreme ray {key}")
    coefficients = [pairs.get(r, Fraction(0)) for r in sigma.rays]
    for a in coefficients:
        if not (0 <= a < 1):
            raise NotKlt(f"boundary coefficient {a} outside [0, 1)")
    rhs = [1 - a for a in coefficients]
    u = solve(list(sigma.rays), rhs)
    if u is None:
        raise NotQGorenstein(
            "no covector satisfies <u, v_i> = 1 - a_i on all rays")
    wc = dual_cone(sigma)
    if any(dot(u, v) <= 0 for v in sigma.rays):
        raise NotKlt("discrepancy covector not positive on the cone")
    return ConeSingularity(rank=n, sigma=sigma, coefficients=tuple(coefficients),
                           u=tuple(u), weight_cone=wc)


def reeb_contains(s: ConeSingularity, xi) -> bool:
    """True iff xi lies in the open Reeb cone.

    Membership means <alpha, xi> > 0 for every extreme ray alpha of the
    weight cone, i.e. xi is interior to sigma.
    """
    xi = vec(xi)
    return all(dot(alpha, xi) > 0 for alpha in s.weight_cone.rays)


def reeb_vector(s: ConeSingularity, xi) -> ReebVector:
    xi = vec(xi)
    if not reeb_contains(s, xi):
        raise NotKlt(f"{xi} is not in the open Reeb cone")
    return ReebVector(xi=xi)


def _xi(x):
    """The coordinates of a ReebVector, or any vector coerced by ``vec``."""
    return x.xi if isinstance(x, ReebVector) else vec(x)


def log_discrepancy(s: ConeSingularity, xi) -> Fraction:
    """Log discrepancy of the toric valuation of xi: the pairing <u, xi>.

    Linear in xi and positive on sigma minus the origin.
    """
    return dot(s.u, _xi(xi))
