"""Slice volume, gradient and Hessian of a cone from one simplicial fan.

Split a pointed full-dimensional cone C in R^n into simplicial cones tau
with primitive integer rays w_1..w_n.  The slice {alpha in tau : <alpha,
xi> <= 1} is the simplex on 0 and the points w_i / p_i, p_i = <w_i, xi>, so
with c_tau = |det W_tau| / prod_i p_i and s_tau = sum_i w_i / p_i

    vol(xi)  = sum_tau c_tau                  (n! times the slice volume)
    grad     = -sum_tau c_tau s_tau
    hess     =  sum_tau c_tau (s_tau s_tau^T + sum_i w_i w_i^T / p_i^2)

and the slice barycenter is -grad / ((n+1) vol).  This is Lawrence's
formula (J. Lawrence, "Polytope volume computation", Math. Comp. 57, 1991)
in the toric form Martelli, Sparks and Yau use for the volume of a Sasakian
link (hep-th/0503183).  The fan depends on the cone alone, so it is built
once per cone, from its ray-facet incidences and one |det| per simplex;
each evaluation then runs over integers (``_fan_sums``) at
x = L xi, with the pairings p_i cleared to the common denominator Q =
prod of the pairings of all rays; ``_moments`` forms one Fraction per
output entry, and S one per value.  For g = min_j <z_j, .>, ``chambers``
splits C into the cones on which g is linear, cut from C's rays by the
double description steps of the one H/V conversion (``cone._cut``), each
with its fan, triangulated from the incidences the last cut leaves; the
fans give S, and their rays lambda_max and the irredundant covectors.
"""

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from ..errors import UnboundedSlice
from .cone import Cone, _cut, _incidence, _triangulate_rays
from .lattice import _TableCache
from .linalg import _row_reduce, primitivize, vsub


class Fan(NamedTuple):
    """Simplicial subdivision of a full-dimensional cone in R^rank.

    rays:      primitive integer rays, sorted
    simplices: (|det W_tau|, indices into rays) per simplicial cone tau
    """

    rank: int
    rays: tuple
    simplices: tuple


def simplicial_fan(incidence, rank) -> Fan:
    """Triangulate a cone spanning R^rank on its own rays, given with the
    bitsets of their tight halfspaces (``cone._triangulate_rays``)."""
    rays = tuple(sorted(r for r, _ in incidence))
    index = {r: i for i, r in enumerate(rays)}
    simplices = tuple((abs(_row_reduce(tau, rank)[2]), tuple(index[r] for r in tau))
                      for tau in _triangulate_rays(incidence, rank))
    return Fan(rank=rank, rays=rays, simplices=simplices)


@lru_cache(maxsize=4096)
def cone_fan(c: Cone) -> Fan:
    """The simplicial fan of a cone, built once per cone."""
    return simplicial_fan(_incidence(c.rays, c.halfspaces), c.rank)


# At most 256 decompositions, whose fans hold at most 32768 simplices: a
# filtration's are read while it is in use, so a short store keeps the hits.
@partial(_TableCache, 256, 1 << 15, lambda found: sum(len(fan.simplices) for _, fan in found))
def chambers(c: Cone, covectors):
    """((z_j, Fan of chamber j), ...) for g = min_j <z_j, .> on the cone c.

    Chamber j is {alpha in c : <z_i - z_j, alpha> >= 0 for all i}, where
    z_j attains the minimum; its rays are c's cut by each halfspace
    (``_cut``), and its fan is built here, once, on them.  Duplicated
    covectors are dropped first, and a chamber is dropped at the first cut
    that leaves no ray strictly inside, so only the full-dimensional ones are
    kept, in input order (a lone one is the whole cone, with ``cone_fan``):
    z_j has one exactly when it is irredundant, for the chambers of lower
    dimension (ties) carry no volume.  Cached per (cone, covector tuple);
    the library asks through ``_chamber_rows``, whose key is translation
    and scale free, so the reduction, S and lambda_max of a transform and
    its twists share it.
    """
    covs = list(dict.fromkeys(covectors))
    n, m = c.rank, len(c.halfspaces)
    start = _incidence(c.rays, c.halfspaces)
    found = []
    for j, zj in enumerate(covs):
        rays = start
        for i, zi in enumerate(covs):
            if i != j:
                bit = 1 << (m + i)
                rays = _cut(rays, primitivize(vsub(zi, zj)), bit, n)
                if all(z & bit for _, z in rays):
                    break
        else:
            found.append((zj, rays))
    if len(found) == 1:
        return ((found[0][0], cone_fan(c)),)
    return tuple((z, simplicial_fan(rays, n)) for z, rays in found)


@lru_cache(maxsize=256)  # a filtration's rows are asked for again and again
def _chamber_key(rows):
    """{difference from the first row over their gcd: row}, in order."""
    zs = [[a - b for a, b in zip(z, rows[0])] for z in rows]
    g = gcd(*(a for z in zs for a in z)) or 1
    return {tuple(a // g for a in d): z for d, z in zip(zs, rows)}


def _chamber_rows(c: Cone, rows):
    """``chambers`` of integer covector rows, cached under their differences
    from the first row over their gcd: a chamber depends only on the
    directions of the differences, so the twists and rescalings of a
    transform share its decomposition.  A redundant row attains the minimum
    on no open set, so the kept rows have the same chambers; the record is
    stored under their key as well, which the reduced transform asks for."""
    back = _chamber_key(tuple(rows))
    found = chambers(c, tuple(back))
    if len(found) < len(back):
        kept = tuple(_chamber_key(tuple(back[d] for d, _ in found)))
        chambers.put((c, kept), tuple(zip(kept, (fan for _, fan in found))))
    return tuple((back[d], fan) for d, fan in found)


def _fan_sums(fan: Fan, x, order):
    """(Q, vol, grad, hess) at the integer vector x, as ints: Q the product
    of the pairings <w, x> over the rays, and the moments of ``_moments``
    times Q, -Q^2 and Q^3 (hess only its lower triangle)."""
    n = fan.rank
    P = [sum(map(mul, w, x)) for w in fan.rays]
    if any(p <= 0 for p in P):
        raise UnboundedSlice("slicing covector vanishes on a ray")
    Q = prod(P)
    R = [Q // p for p in P]  # Q / p_i: the point w_i / p_i is R_i w_i / Q
    vol = 0
    grad = [0] * n
    hess = [[0] * n for _ in range(n)]
    weight = [0] * len(P)  # sum of c_tau over the simplices at each ray
    for d, tau in fan.simplices:
        c = d * Q // prod(P[i] for i in tau)  # c_tau * Q
        vol += c
        if order == 0:
            continue
        s = [sum(R[i] * fan.rays[i][k] for i in tau) for k in range(n)]  # s_tau * Q
        for k in range(n):
            grad[k] += c * s[k]
        if order == 2:
            for i in tau:
                weight[i] += c
            for k in range(n):
                for m in range(k + 1):
                    hess[k][m] += c * s[k] * s[m]
    if order < 2:
        return Q, vol, grad if order else None, None
    for i, w in enumerate(fan.rays):
        if weight[i]:
            f = weight[i] * R[i] * R[i]
            for k in range(n):
                for m in range(k + 1):
                    hess[k][m] += f * w[k] * w[m]
    return Q, vol, grad, hess


def _moments(fan: Fan, x, L, order=2):
    """(vol, grad, hess) at xi = x / L as Fractions (grad None at order 0,
    hess None below 2): ``_fan_sums`` at x over the degrees -n, -n-1, -n-2."""
    n = fan.rank
    Q, vol, grad, hess = _fan_sums(fan, x, order)
    vol_q = Fraction(L ** n * vol, Q)
    if order == 0:
        return vol_q, None, None
    grad_q = tuple(Fraction(-L ** (n + 1) * g, Q ** 2) for g in grad)
    if order == 1:
        return vol_q, grad_q, None
    scale = L ** (n + 2)
    lower = [[Fraction(scale * hess[k][m], Q ** 3) for m in range(k + 1)] for k in range(n)]
    hess_q = tuple(tuple(lower[max(k, m)][min(k, m)] for m in range(n)) for k in range(n))
    return vol_q, grad_q, hess_q
