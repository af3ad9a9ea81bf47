"""Monomial filtrations on a toric cone singularity.

A torus-invariant, linearly bounded monomial filtration is captured by its
concave transform g = min_j <zeta_j, .> on the weight cone: the level-lambda
ideal is spanned by the monomials with g(exponent) >= lambda.  Construction
reduces the covector list to the unique irredundant form (the covectors
with a full-dimensional chamber), so filtration equality is decidable by
comparing tuples.

Besides the algebra of filtrations (rescale, twist, geodesic, intersection)
this module computes Newton polyhedra, exact orders, the orders of the
degree-m approximating filtrations, and the saturated closure of an
approximating filtration as a concave transform of its own.
"""

from fractions import Fraction
from itertools import repeat
from operator import floordiv, le, mul, sub
from typing import NamedTuple

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    EmptyInput,
    NonpositiveScale,
    NotPrimary,
    OutsideWeightCone,
)
from .exactgeom import (PLConcave, Polytope, dot, enumerate_vertices, frac, lattice_points_below,
                        slice_vertices, vec)
from .exactgeom.fan import chambers
from .exactgeom.linalg import _integer_row
from .singularity import ConeSingularity, _xi


class MonomialFiltration(NamedTuple):
    """Reduced monomial filtration over a fixed singularity."""

    ambient: ConeSingularity
    transform: PLConcave

    def ord(self, alpha) -> Fraction:
        return self.transform.value(alpha)

    @property
    def covectors(self):
        return self.transform.covectors


class NewtonPolyhedron(NamedTuple):
    """Region {g >= 1} in the weight cone: vertices plus recession cone."""

    polytope: Polytope

    @property
    def vertices(self):
        return self.polytope.vertices


def _covector_rows(covectors, n):
    """{integer row: Fraction covector} for covectors of n rationals; the
    rows share one denominator (``_integer_covectors``), so equal
    covectors share a row and the rows keep their signs and order."""
    covs = [vec(z) for z in covectors]
    if not covs:
        raise EmptyInput("a filtration needs at least one covector")
    for z in covs:
        if len(z) != n:
            raise AmbientMismatch(f"covector of length {len(z)} on a rank-{n} cone")
    return dict(zip(_integer_covectors(covs)[0], covs))


def _reduce_covectors(s: ConeSingularity, rows):
    """Drop covectors that never realize the minimum on the weight cone.

    zeta_j is irredundant exactly when its chamber {g = <zeta_j, .>} is
    full-dimensional, so the reduced list is the covectors of
    ``fan.chambers`` on the sorted rows of ``_covector_rows``: the unique
    minimal list for a full-dimensional weight cone.  When nothing is
    redundant that key is the integer form of the filtration's own
    covectors, so S and lambda_max find the same decomposition in the
    cache.
    """
    return tuple(rows[z] for z, _ in chambers(s.weight_cone, tuple(sorted(rows))))


def monomial_filtration(s: ConeSingularity, covectors,
                        require_primary=True) -> MonomialFiltration:
    """Build a filtration from covectors, checking primarity and reducing.

    ``require_primary=False`` admits transforms that vanish along the
    boundary of the weight cone, e.g. filtrations cut out by an effective
    divisor; those still have exact S and lct but no finite rescaling
    duality.  Primarity is tested on the integer rows of the covectors.
    """
    rows = _covector_rows(covectors, s.rank)
    for z in rows:
        for alpha in s.weight_cone.rays:
            val = sum(map(mul, z, alpha))
            if val < 0 or (require_primary and val == 0):
                raise NotPrimary(
                    f"transform not positive on weight-cone ray {alpha}")
    return MonomialFiltration(ambient=s,
                              transform=PLConcave(covectors=_reduce_covectors(s, rows)))


def toric_filtration(s: ConeSingularity, xi) -> MonomialFiltration:
    """Filtration of the toric valuation of xi (single covector <xi, .>).

    xi may sit anywhere in the closed Reeb cone: boundary vectors give the
    filtrations of the torus-invariant divisors, whose transform vanishes
    along part of the weight cone but whose S, lct and Ding invariants are
    still exact.
    """
    return monomial_filtration(s, [_xi(xi)], require_primary=False)


def rescale(F: MonomialFiltration, a) -> MonomialFiltration:
    """a-rescaling: orders multiply by a; transform covectors scale by a."""
    a = frac(a)
    if a <= 0:
        raise NonpositiveScale(f"rescale factor must be positive, got {a}")
    covs = [tuple(a * x for x in z) for z in F.covectors]
    return MonomialFiltration(ambient=F.ambient,
                              transform=PLConcave(covectors=tuple(sorted(covs))))


def twist(F: MonomialFiltration, xi) -> MonomialFiltration:
    """Twist by a coweight: every covector shifts by xi.

    Any xi keeping the transform positive on the weight cone is accepted,
    which is wider than the open Reeb cone and is needed to probe the
    reduced J-norm near the boundary.
    """
    xi = _xi(xi)
    covs = [tuple(a + b for a, b in zip(z, xi)) for z in F.covectors]
    return monomial_filtration(F.ambient, covs)


def geodesic(filtrations, weights) -> MonomialFiltration:
    """Weighted combination with ord = sum of weighted ords.

    The transform of the combination is the distributive expansion
    min over selections of sum_i w_i <zeta_{i, j(i)}, .>, reduced.
    """
    filtrations = list(filtrations)
    weights = [frac(w) for w in weights]
    if not filtrations or len(filtrations) != len(weights):
        raise EmptyInput("need matching nonempty filtrations and weights")
    if any(w < 0 for w in weights) or all(w == 0 for w in weights):
        raise EmptyInput("weights must be nonnegative with at least one positive")
    ambient = filtrations[0].ambient
    for F in filtrations:
        if F.ambient != ambient:
            raise AmbientMismatch("geodesic across different singularities")
    combos = [tuple(Fraction(0) for _ in range(ambient.rank))]
    for F, w in zip(filtrations, weights):
        new = []
        for base in combos:
            for z in F.covectors:
                new.append(tuple(b + w * x for b, x in zip(base, z)))
        combos = new
    return monomial_filtration(ambient, combos)


def intersect(F: MonomialFiltration, G: MonomialFiltration) -> MonomialFiltration:
    """Intersection of filtrations: ord = min(ord_F, ord_G)."""
    if F.ambient != G.ambient:
        raise AmbientMismatch("intersection across different singularities")
    return monomial_filtration(F.ambient, list(F.covectors) + list(G.covectors))


def _newton_halfspaces(sigma, covectors):
    """Halfspaces of {g >= 1}: <z, a> >= 1 per covector z, then a in the
    weight cone (<v, a> >= 0 on the rays v of sigma)."""
    return ([(tuple(-x for x in z), Fraction(-1)) for z in covectors]
            + [(tuple(-x for x in v), Fraction(0)) for v in sigma.rays])


def newton_polyhedron(F: MonomialFiltration) -> NewtonPolyhedron:
    """Vertices of {alpha in weight cone : g(alpha) >= 1}.

    The recession cone is the whole weight cone; the gauge of this region
    reproduces g, which is the saturation identity for monomial data.
    """
    s = F.ambient
    hs = _newton_halfspaces(s.sigma, F.covectors)
    verts = enumerate_vertices(hs, s.rank)
    poly = Polytope(dim=s.rank, vertices=tuple(verts),
                    recession_rays=tuple(s.weight_cone.rays), halfspaces=tuple(hs))
    return NewtonPolyhedron(polytope=poly)


def value_under(F: MonomialFiltration, xi) -> Fraction:
    """Value of the filtration under the toric valuation of xi.

    Equals the minimum of <xi, .> over the Newton polyhedron; recession
    directions pair positively with xi so the minimum sits at a vertex.
    """
    xi = _xi(xi)
    verts = newton_polyhedron(F).vertices
    return min(dot(xi, v) for v in verts)


def ord_of(F: MonomialFiltration, alpha) -> Fraction:
    """Exact order of the monomial with exponent alpha: g(alpha)."""
    alpha = vec(alpha)
    if not F.ambient.weight_cone.contains(alpha):
        raise OutsideWeightCone(f"{alpha} is not in the weight cone")
    return F.ord(alpha)


def _integer_covectors(covectors):
    """(zs, den): the covectors times den, the lcm of all their denominators,
    as int tuples, so g = min_j <zs_j, .> / den."""
    n = len(covectors[0])
    flat, den = _integer_row([x for z in covectors for x in z])
    return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), den


def _floor_order(F: MonomialFiltration):
    """floor(g) of a point, in integer arithmetic."""
    zs, den = _integer_covectors(F.covectors)
    return lambda a: min(sum(map(mul, z, a)) for z in zs) // den


def _floor_run_orders(F: MonomialFiltration):
    """floor(g) along a lattice run: (prefix, lo, hi) -> the list over t = lo..hi.

    Each covector's pairing with prefix + (t,) steps by its last entry d
    as t grows, so its column is a range (a repeat when d is 0); the
    elementwise min of the columns, floor-divided by den, is floor(g).
    """
    zs, den = _integer_covectors(F.covectors)
    heads = [(z[:-1], z[-1]) for z in zs]

    def orders(prefix, lo, hi):
        k = hi - lo + 1
        cols = []
        for z, d in heads:
            c = sum(map(mul, z, prefix)) + d * lo
            cols.append(range(c, c + d * k, d) if d else repeat(c, k))
        g = cols[0] if len(cols) == 1 else map(min, *cols)
        return list(g if den == 1 else map(floordiv, g, repeat(den)))
    return orders


def _blocks(F: MonomialFiltration, m: int, pts):
    """Non-dominated blocks (gamma, v) of the degree-m approximation in pts.

    v(gamma) = min(floor(g(gamma)), m), and only blocks with v >= 1 count.
    (gamma, v) is dropped when a kept (gamma', v') has v' >= v and
    gamma - gamma' in the weight cone.  Blocks are scanned, and returned,
    by decreasing v, then reference weight, then lexicographically, so
    v' >= v holds for every earlier block; the cone test compares the
    pairings with the weight cone's integer halfspaces componentwise.
    """
    order = _floor_order(F)
    ell = F.ambient.sigma.interior_point()
    hs = F.ambient.weight_cone.halfspaces
    cons = sorted(((gamma, v) for gamma in pts if (v := min(order(gamma), m)) >= 1),
                  key=lambda cv: (-cv[1], sum(map(mul, ell, cv[0])), cv[0]))
    kept, keys = [], []
    for gamma, v in cons:
        key = [sum(map(mul, h, gamma)) for h in hs]
        if not any(all(map(le, k, key)) for k in keys):
            kept.append((gamma, v))
            keys.append(key)
    return kept


def approx_orders(F: MonomialFiltration, m: int, pts) -> dict:
    """Order of every point of pts under the degree-m approximating filtration.

    pts must be down-closed in the weight cone: with p it holds every
    lattice q with p - q in the cone.  The order of p is its best
    decomposition into nonzero lattice blocks, each worth
    v = min(floor(g), m).  Swapping a block for its dominator from _blocks
    moves the leftover into the remainder and never lowers the total, so
    best[p] = max(0, v(q) + best[p - q] over kept q with p - q in pts,
    q = p included), in O(points x kept blocks) integer steps.
    """
    kept = _blocks(F, m, pts)
    ell = F.ambient.sigma.interior_point()
    best = {}
    for p in sorted(pts, key=lambda p: sum(map(mul, ell, p))):
        value = 0
        for q, v in kept:
            rest = best.get(tuple(map(sub, p, q)))
            if rest is not None and v + rest > value:
                value = v + rest
        best[p] = value
    return best


def _cone_partners(F: MonomialFiltration, alpha, budget=None):
    """Lattice points gamma in the weight cone with alpha - gamma also in it."""
    wc = F.ambient.weight_cone
    ell = F.ambient.sigma.interior_point()
    pts = lattice_points_below(wc, ell, dot(ell, alpha), budget=budget, strict=False)
    tops = [dot(h, alpha) for h in wc.halfspaces]
    return [g for g in pts
            if all(sum(map(mul, h, g)) <= t for h, t in zip(wc.halfspaces, tops))]


def approx_ord(F: MonomialFiltration, m: int, alpha, budget=None) -> int:
    """Order of the monomial under the degree-m approximating filtration.

    The value is the best decomposition of alpha into nonzero lattice
    blocks, each worth min(floor(g(block)), m): approx_orders on the
    lattice points below alpha in the weight-cone order, read at alpha.
    Bounded above by floor(g(alpha)), with equality whenever g(alpha) <= m.
    """
    if m < 1:
        raise EmptyInput("approximation level must be >= 1")
    alpha = vec(alpha)
    if not F.ambient.weight_cone.contains(alpha):
        raise OutsideWeightCone(f"{alpha} is not in the weight cone")
    return approx_orders(F, m, _cone_partners(F, alpha, budget=budget))[alpha]


def approximant(F: MonomialFiltration, m: int, budget=None) -> MonomialFiltration:
    """Saturated closure of the degree-m approximating filtration.

    The approximating filtration is generated in degrees <= m; its concave
    transform is the homogeneous concave envelope of the block values
    v(gamma) = min(floor(g(gamma)), m) over lattice gamma.  The envelope is
    computed dually: it is the minimum over the vertices of
    Theta = {theta in sigma : <theta, gamma> >= v(gamma) for the blocks
    kept by _blocks}, whose dropped blocks are implied by their dominators.
    A window <ell, gamma> <= w suffices once every vertex theta satisfies
    <theta, .> >= m outside it, which is certified at the vertices of the
    slice <ell, .> = 1; otherwise w doubles.  A BudgetExceeded names the
    last window and the doublings.
    """
    if m < 1:
        raise EmptyInput("approximation level must be >= 1")
    s = F.ambient
    rays = s.weight_cone.rays
    ell = s.sigma.interior_point()
    unit = slice_vertices(s.weight_cone.rays, ell)
    window = 2 * m * max(1, max(dot(ell, r) for r in rays))
    for doublings in range(24):
        if doublings:
            window *= 2
        try:
            pts = lattice_points_below(s.weight_cone, ell, window,
                                       budget=budget, strict=False)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"approximant window {window} after "
                                 f"{doublings} doublings: {exc}") from exc
        kept = _blocks(F, m, pts)
        hs = [(tuple(-x for x in gamma), -v) for gamma, v in kept]
        hs += [(tuple(-x for x in r), 0) for r in rays]
        thetas = enumerate_vertices(hs, s.rank)
        if kept and all(min(dot(theta, a) for a in unit) * window >= m
                        for theta in thetas):
            return monomial_filtration(s, thetas)
    raise BudgetExceeded(f"approximant window {window} after {doublings} "
                         "doublings still uncertified")
