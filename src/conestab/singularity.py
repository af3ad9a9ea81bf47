"""Toric cone singularities with their torus action and discrepancy data.

A singularity is a pointed full-dimensional rational cone sigma together
with a boundary coefficient in [0,1) for each ray.  The discrepancy
covector u solves <u, ray_i> = 1 - a_i exactly; it is linear, so the log
discrepancy of any toric valuation is a single pairing.  The Reeb cone is
the interior of sigma; its points index the toric valuations centered at
the vertex.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import DegenerateCone, NotKlt, NotQGorenstein
from .exactgeom import Cone, dual_cone, frac, primitivize, vec
from .exactgeom.cone import _cone, _of_length
from .exactgeom.linalg import _integer_row, _solve_rows


class ConeSingularity(NamedTuple):
    """Validated toric cone singularity.

    rank:         ambient rank n
    sigma:        the defining cone (rays carry the boundary divisors)
    coefficients: boundary coefficient per ray of sigma, each in [0,1)
    weight_cone:  dual cone of sigma (where the monomial exponents live)
    u_row, u_den: the discrepancy covector u, <u, v_i> = 1 - a_i on the
                  rays, as u = u_row / u_den: ints, u_den > 0 the lcm of
                  u's denominators
    """

    rank: int
    sigma: Cone
    coefficients: tuple
    weight_cone: Cone
    u_row: tuple
    u_den: int

    @property
    def u(self):
        """The discrepancy covector u_row / u_den as a Fraction tuple."""
        return tuple(Fraction(a, self.u_den) for a in self.u_row)


class ReebVector(NamedTuple):
    """Rational point of the open Reeb cone (= interior of sigma)."""

    xi: tuple


def from_rays(rays, coefficients=None) -> ConeSingularity:
    """Build and validate a singularity from ray generators and coefficients.

    Coefficients default to zero (no boundary).  Raises DegenerateCone,
    NotQGorenstein (no exact solution for u) or NotKlt (u not interior).
    The rays are made primitive once, for the cone, coefficients and u.
    """
    prim = [primitivize(r) for r in rays]
    sigma = _cone(prim)
    n = sigma.rank
    if coefficients is None:
        coefficients = [Fraction(0)] * len(prim)
    coefficients = [frac(a) for a in coefficients]
    if len(coefficients) != len(prim):
        raise DegenerateCone("need one coefficient per input ray")
    # Match coefficients to the canonical (sorted, primitivized) ray order.
    pairs = {}
    for key, a in zip(prim, coefficients):
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
    # <u, v> = 1 - a = (q - p) / q for a = p / q, scaled by q: integer rows.
    u = _solve_rows([[*(q * x for x in r), q - p] for r, (p, q) in
                     zip(sigma.rays, (a.as_integer_ratio() for a in coefficients))], n)
    if u is None:
        raise NotQGorenstein(
            "no covector satisfies <u, v_i> = 1 - a_i on all rays")
    wc = dual_cone(sigma)
    u_row, u_den = u
    if any(sum(map(mul, u_row, v)) <= 0 for v in sigma.rays):
        raise NotKlt("discrepancy covector not positive on the cone")
    return ConeSingularity(rank=n, sigma=sigma, coefficients=tuple(coefficients),
                           weight_cone=wc, u_row=u_row, u_den=u_den)


def _xi_row(x, n):
    """(L x as ints, L > 0 the lcm of its denominators) for a ReebVector or
    a vector of ints, Fractions or 'p/q' strings of length n (else
    AmbientMismatch): the form each public function passes on.  Floats and
    bools raise TypeError, and no Fraction is hashed."""
    v = _of_length(x.xi if isinstance(x, ReebVector) else x, n)
    if {int, str}.issuperset(map(type, v)):  # parsed once
        return _parsed_row(v)
    return _parsed_row.__wrapped__(v)


@lru_cache(maxsize=1024)
def _parsed_row(v):
    ints, L = _integer_row(v)
    return tuple(ints), L


def reeb_contains(s: ConeSingularity, xi) -> bool:
    """True iff xi lies in the open Reeb cone.

    Membership means <alpha, xi> > 0 for every extreme ray alpha of the
    weight cone, i.e. xi is interior to sigma.
    """
    x, _ = _xi_row(xi, s.rank)
    return all(sum(map(mul, alpha, x)) > 0 for alpha in s.weight_cone.rays)


def reeb_vector(s: ConeSingularity, xi) -> ReebVector:
    if not reeb_contains(s, xi):
        raise NotKlt(f"{vec(xi)} is not in the open Reeb cone")
    return ReebVector(xi=vec(xi))


def _log_discrepancy(s: ConeSingularity, x, L) -> Fraction:
    """<u, x / L> for the integer form (x, L) of a vector."""
    return Fraction(sum(map(mul, s.u_row, x)), s.u_den * L)


def log_discrepancy(s: ConeSingularity, xi) -> Fraction:
    """Log discrepancy of the toric valuation of xi: the pairing <u, xi>.

    Linear in xi and positive on sigma minus the origin.
    """
    return _log_discrepancy(s, *_xi_row(xi, s.rank))
