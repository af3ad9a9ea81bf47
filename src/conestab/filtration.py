"""Monomial filtrations on a toric cone singularity.

A torus-invariant, linearly bounded monomial filtration is captured by its
concave transform g = min_j <zeta_j, .> on the weight cone: the level-lambda
ideal is spanned by the monomials with g(exponent) >= lambda.  Every
constructor ends in one integer entry, ``_filtration``, which reduces the
covectors, as integer rows over one denominator, to the unique irredundant
form (the rows with a full-dimensional chamber) over the least denominator,
so filtration equality is decidable by comparing tuples.

Besides the algebra of filtrations (rescale, twist, geodesic, intersection)
this module computes Newton polyhedra, exact orders, the orders of the
degree-m approximating filtrations, and the saturated closure of an
approximating filtration as a concave transform of its own.

The approximations of one filtration at level m share one table
(``_approx_table``), keyed on (weight cone, integer covector rows, m), over
the reference-weight window <ell, .> <= w with ell = sigma.interior_point(),
the sum of the weight cone's facet normals: the kept blocks, the order of
every window point by its code, the codes along each lattice run of
``fan._runs`` over the simplicial cones of F's chambers, the point count at
each weight and the approximant's transform, built once on a window
computed from F and m.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    EmptyInput,
    IdentityViolated,
    NonpositiveScale,
    NotPrimary,
    OutsideWeightCone,
)
from .exactgeom import PLConcave, Polytope, dot, enumerate_vertices, frac, slice_vertices, vec
from .exactgeom.cone import _of_length
from .exactgeom.fan import _chamber_rows, _runs, _TableCache
from .exactgeom.lattice import _checked_budget
from .exactgeom.linalg import _integer_covectors, _integer_row
from .singularity import ConeSingularity, _xi_row


class MonomialFiltration(NamedTuple):
    """Reduced monomial filtration over a fixed singularity."""

    ambient: ConeSingularity
    transform: PLConcave

    def ord(self, alpha) -> Fraction:
        return self.transform.value(alpha)

    @property
    def covectors(self):
        return self.transform.covectors


def _primary(F: MonomialFiltration) -> bool:
    """True when F's transform is positive on every weight-cone ray."""
    rays = F.ambient.weight_cone.rays
    return all(sum(map(mul, z, a)) > 0 for z in F.transform.rows for a in rays)


def _rows(s: ConeSingularity, F: MonomialFiltration):
    """(rows, den) of F's transform, which must be over the singularity s."""
    if F.ambient != s:
        raise AmbientMismatch("filtration over a different singularity")
    return F.transform.rows, F.transform.den


def _filtration(s: ConeSingularity, rows, den, require_primary) -> MonomialFiltration:
    """The filtration of the covectors rows[j] / den (int tuples, den > 0).

    Every row is tested for primarity, in order.  zeta_j is irredundant
    exactly when its chamber {g = <zeta_j, .>} is full-dimensional, so the
    reduced list, unique and minimal for a full-dimensional weight cone, is
    the rows of the chambers (``fan._chamber_rows``, shared with S,
    lambda_max and the twists) of the sorted distinct rows; they and den
    are then divided by gcd(den, all their entries).  So each filtration
    has one record, and equality is decidable by comparing tuples.
    """
    for z in rows:
        for alpha in s.weight_cone.rays:
            val = sum(map(mul, z, alpha))
            if val < 0 or (require_primary and val == 0):
                raise NotPrimary(
                    f"transform not positive on weight-cone ray {alpha}")
    kept = [z for z, _ in _chamber_rows(s.weight_cone, tuple(sorted(set(rows))))]
    g = gcd(den, *(a for z in kept for a in z))
    return MonomialFiltration(ambient=s, transform=PLConcave(
        rows=tuple(tuple(a // g for a in z) for z in kept), den=den // g))


def monomial_filtration(s: ConeSingularity, covectors,
                        require_primary=True) -> MonomialFiltration:
    """Build a filtration from covectors, checking primarity and reducing.

    ``require_primary=False`` admits transforms that vanish along the
    boundary of the weight cone, e.g. filtrations cut out by an effective
    divisor; those still have exact S and lct but no finite rescaling
    duality.  The covectors share one denominator (``_integer_covectors``)
    and go to ``_filtration`` as integer rows.
    """
    covs = [vec(_of_length(z, s.rank)) for z in covectors]
    if not covs:
        raise EmptyInput("a filtration needs at least one covector")
    return _filtration(s, *_integer_covectors(covs), require_primary)


def toric_filtration(s: ConeSingularity, xi) -> MonomialFiltration:
    """Filtration of the toric valuation of xi (single covector <xi, .>).

    xi may sit anywhere in the closed Reeb cone: boundary vectors give the
    filtrations of the torus-invariant divisors, whose transform vanishes
    along part of the weight cone but whose S, lct and Ding invariants are
    still exact.
    """
    x, L = _xi_row(xi, s.rank)
    return _filtration(s, (x,), L, False)


# The combinations below are primary exactly when all their inputs are.

def rescale(F: MonomialFiltration, a) -> MonomialFiltration:
    """a-rescaling: orders multiply by a; transform covectors scale by a."""
    a = frac(a)
    if a <= 0:
        raise NonpositiveScale(f"rescale factor must be positive, got {a}")
    rows = [tuple(a.numerator * x for x in z) for z in F.transform.rows]
    return _filtration(F.ambient, rows, a.denominator * F.transform.den, _primary(F))


def twist(F: MonomialFiltration, xi) -> MonomialFiltration:
    """Twist by a coweight: every covector shifts by xi.

    Any xi keeping the transform positive on the weight cone (nonnegative
    if F is not primary) is accepted, which is wider than the open Reeb
    cone and is needed to probe the reduced J-norm near the boundary.  The
    rows z / den shift in integers, to (L z + den x) / (den L) for
    xi = x / L, and keep F's chambers.
    """
    (x, L), den = _xi_row(xi, F.ambient.rank), F.transform.den
    rows = [tuple(L * a + den * b for a, b in zip(z, x)) for z in F.transform.rows]
    return _filtration(F.ambient, rows, den * L, _primary(F))


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
    # The combinations have integer rows over den = W lam (weights ws / W).
    ws, W = _integer_row(weights)
    lam = lcm(*(F.transform.den for F in filtrations))
    combos = [(0,) * ambient.rank]
    for F, w in zip(filtrations, ws):
        c = w * (lam // F.transform.den)
        combos = [tuple(b + c * x for b, x in zip(base, z))
                  for base in combos for z in F.transform.rows]
    return _filtration(ambient, combos, W * lam, all(map(_primary, filtrations)))


def intersect(F: MonomialFiltration, G: MonomialFiltration) -> MonomialFiltration:
    """Intersection of filtrations: ord = min(ord_F, ord_G)."""
    if F.ambient != G.ambient:
        raise AmbientMismatch("intersection across different singularities")
    lam = lcm(F.transform.den, G.transform.den)
    rows = [tuple(lam // H.transform.den * a for a in z)
            for H in (F, G) for z in H.transform.rows]
    return _filtration(F.ambient, rows, lam, _primary(F) and _primary(G))


def _newton_halfspaces(sigma, zs, den):
    """Halfspaces of {g >= 1} for the covectors zs_j / den: <z, a> >= den
    per row z, then a in the weight cone (<v, a> >= 0 on the rays v of
    sigma)."""
    return ([(tuple(-x for x in z), -den) for z in zs]
            + [(tuple(-x for x in v), 0) for v in sigma.rays])


def newton_polyhedron(F: MonomialFiltration) -> Polytope:
    """The region {alpha in weight cone : g(alpha) >= 1}, as a Polytope.

    Its vertices are enumerated from the halfspaces and its recession rays
    are the weight cone's; the gauge of this region reproduces g, which is
    the saturation identity for monomial data.
    """
    s = F.ambient
    hs = _newton_halfspaces(s.sigma, F.transform.rows, F.transform.den)
    return Polytope(dim=s.rank, vertices=tuple(enumerate_vertices(hs, s.rank)),
                    recession_rays=tuple(s.weight_cone.rays), halfspaces=tuple(hs))


def value_under(F: MonomialFiltration, xi) -> Fraction:
    """Value of the filtration under the toric valuation of xi.

    Equals the minimum of <xi, .> over the Newton polyhedron; recession
    directions pair positively with xi so the minimum sits at a vertex.
    """
    x, L = _xi_row(xi, F.ambient.rank)
    verts = newton_polyhedron(F).vertices
    return min(dot(x, v) for v in verts) / L


def ord_of(F: MonomialFiltration, alpha) -> Fraction:
    """Exact order of the monomial with exponent alpha: g(alpha)."""
    alpha = vec(_of_length(alpha, F.ambient.rank))
    if not F.ambient.weight_cone.contains(alpha):
        raise OutsideWeightCone(f"{alpha} is not in the weight cone")
    return F.ord(alpha)


def _approx_key(F: MonomialFiltration, m):
    """The key of F's approximation tables at level m: (weight cone, integer
    covector rows, their denominator, m).  m must be a positive int."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise EmptyInput(f"approximation level must be a positive integer, got {m!r}")
    if m < 1:
        raise EmptyInput("approximation level must be >= 1")
    return (F.ambient.weight_cone, F.transform.rows, F.transform.den, m)


def _block_dp(m, codes, weights, values):
    """(kept, best) of the degree-m approximation on a down-closed point set.

    The points are given by integer codes, linear and injective on the
    differences of two points, with their reference weights <ell, .> and
    block values v = min(floor(g), m); the code of p - q is then
    code(p) - code(q), and p - q lies in the set exactly when that code
    does.  kept lists the non-dominated blocks as (code, v, weight): a
    block (gamma, v) is dropped when a kept (gamma', v') has v' >= v and
    gamma - gamma' in the weight cone, which inside a down-closed set
    means in the set.  Blocks are scanned, and kept, by decreasing v, then
    weight, then code (the lexicographic order of the points), so v' >= v
    holds for every earlier block.  Swapping a block for its dominator
    moves the leftover into the remainder and never lowers the total, so
    the best decomposition is best[p] = max(0, v(q) + best[p - q] over
    kept q with p - q in the set, q = p included), taken by increasing
    weight.
    """
    members = set(codes)
    kept, kept_v, kept_w = [], [], []
    for nv, w, c in sorted((-v, w, c) for c, w, v in zip(codes, weights, values) if v >= 1):
        if not any(map(members.__contains__, map(sub, repeat(c), kept))):
            kept.append(c)
            kept_v.append(-nv)
            kept_w.append(w)
    best = {}
    get, missing = best.get, repeat(-m - 1)  # a missing rest leaves v - m - 1 < 0
    for _, c in sorted(zip(weights, codes)):
        v = max(map(add, kept_v, map(get, map(sub, repeat(c), kept), missing)), default=0)
        best[c] = v if v > 0 else 0
    return list(zip(kept, kept_v, kept_w)), best


def _coder(n, bound):
    """(code, decode) for points of rank n with coordinates of size <= bound:
    base 4 bound + 1 with digits in [-2 bound, 2 bound], which also holds
    the differences of two such points, so code is linear and injective on
    them and orders them lexicographically."""
    base = 4 * bound + 1

    def code(p):
        c = 0
        for x in p:
            c = c * base + x
        return c

    def decode(c):
        out = []
        for _ in range(n):
            c, d = divmod(c, base)
            if d > 2 * bound:
                c, d = c + 1, d - base
            out.append(d)
        return tuple(reversed(out))
    return code, decode


class _ApproxTable:
    """The degree-m approximation of one filtration on the reference-weight
    window <ell, .> <= window, with ell = sigma.interior_point()."""

    __slots__ = ("window", "code", "orders", "runs", "blocks", "counts", "certified")

    def __init__(self, window, code, orders, runs, blocks, counts):
        self.window = window
        self.code = code            # the points' integer codes (``_coder``)
        self.orders = orders        # {code: approximate order} of every window point
        self.runs = runs            # (start, ray, start code, code step, length) per run
        self.blocks = blocks        # kept (gamma, v, <ell, gamma>), in scan order
        self.counts = counts        # index k: window points with <ell, .> <= k
        self.certified = None       # the approximant's transform, once built


def _build_approx_table(F: MonomialFiltration, m, window, budget):
    """The table of F at level m below ``window``, enumerated under ``budget``.

    The window's points are the runs p + t r of ``fan._runs`` over the
    simplicial cones of F's chambers.  On one of them g = <z_j, .> / den,
    so along a run the codes, the weights and the values min((<z_j, p> +
    t <z_j, r>) // den, m) are arithmetic; one ``_block_dp`` gives the
    blocks and the order of every point, stored by code.  Each run keeps its
    codes as a start and a step, so its orders are read off that dict.
    """
    s = F.ambient
    ell = s.sigma.interior_point()
    cones = [(z, tuple(fan.rays[i] for i in tau)) for z, fan in
             _chamber_rows(s.weight_cone, F.transform.rows) for _, tau in fan.simplices]
    runs = _runs(s.weight_cone, [tau for _, tau in cones], ell, window + 1, budget)
    bound = max((abs(a + t * b) for group in runs for p, r, k in group
                 for t in (0, k - 1) for a, b in zip(p, r)), default=0)  # at the run ends
    code, decode = _coder(s.rank, bound)
    den, cap = F.transform.den, m * F.transform.den
    codes, weights, values, table_runs = [], [], [], []
    for (z, _), group in zip(cones, runs):
        for p, r, k in group:
            c0, step = code(p), code(r) if k > 1 else 1  # a one-point run has no step
            a, b = sum(map(mul, z, p)), sum(map(mul, z, r))
            w0, dw = sum(map(mul, ell, p)), sum(map(mul, ell, r))
            table_runs.append((p, r, c0, step, k))
            codes += range(c0, c0 + k * step, step)
            weights += range(w0, w0 + k * dw, dw)
            values += [u // den if u < cap else m
                       for u in (range(a, a + k * b, b) if b else repeat(a, k))]
    kept, best = _block_dp(m, codes, weights, values)
    blocks = tuple((decode(c), v, w) for c, v, w in kept)
    weights.sort()
    counts = [bisect_right(weights, k) for k in range(window + 1)]
    return _ApproxTable(window, code, best, table_runs, blocks, counts)


# Approximation tables kept by ``_approx_table``: at most _APPROX_TABLES of
# them, holding at most _APPROX_POINTS window points together.  A larger
# table is built for its call and dropped after it.
_APPROX_TABLES = 256
_APPROX_POINTS = 1 << 16
_approx_tables = _TableCache(_APPROX_TABLES, _APPROX_POINTS,
                             lambda table: table.counts[-1] + len(table.runs))


def _approx_table(F: MonomialFiltration, key, window, budget) -> _ApproxTable:
    """The approximation table of ``key`` (from ``_approx_key``) covering
    the window <ell, .> <= window, checked against the resolved ``budget``.

    A stored table of a window at least as large is read: every point of
    the smaller window, its blocks' dominators and its DP partners lie
    below it in the weight cone, so they are the same in both windows.
    Its point count at ``window`` is compared with the budget, so a hit
    raises the BudgetExceeded of a fresh enumeration.  A larger window is
    enumerated under the budget, and the complete table replaces the
    stored one, keeping the approximant's transform.
    """
    fits = lambda table: table.window >= window
    table = _approx_tables.get(key, fits)
    if table is not None and fits(table):
        if table.counts[window] > budget:
            raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
        return table
    grown = _build_approx_table(F, key[-1], window, budget)
    if table is not None:
        grown.certified = table.certified
    return _approx_tables.put(key, grown)


def approx_ord(F: MonomialFiltration, m: int, alpha, budget=None) -> int:
    """Order of the monomial under the degree-m approximating filtration.

    The value is the best decomposition of alpha into nonzero lattice
    blocks, each worth min(floor(g(block)), m), read from the approximation
    table of the window <ell, .> <= <ell, alpha>, which holds every point
    below alpha in the weight-cone order.  Bounded above by
    floor(g(alpha)), with equality whenever g(alpha) <= m.
    """
    key = _approx_key(F, m)
    alpha = vec(_of_length(alpha, F.ambient.rank))
    if not F.ambient.weight_cone.contains(alpha):
        raise OutsideWeightCone(f"{alpha} is not in the weight cone")
    if any(x.denominator != 1 for x in alpha):
        raise OutsideWeightCone(f"exponent ({', '.join(map(str, alpha))}) is not a lattice point")
    alpha = tuple(map(int, alpha))
    ell = F.ambient.sigma.interior_point()
    table = _approx_table(F, key, sum(map(mul, ell, alpha)), _checked_budget(budget))
    return table.orders[table.code(alpha)]


def approximant(F: MonomialFiltration, m: int, budget=None) -> MonomialFiltration:
    """Saturated closure of the degree-m approximating filtration.

    The approximating filtration is generated in degrees <= m; its concave
    transform is the homogeneous concave envelope of the block values
    v(gamma) = min(floor(g(gamma)), m) over lattice gamma.  The envelope is
    computed dually: it is the minimum over the vertices of
    Theta = {theta in sigma : <theta, gamma> >= v(gamma) for the kept
    blocks}, whose dropped blocks are implied by their dominators.  They
    are the table's blocks of weight <ell, gamma> <= W, W the max over the
    weight-cone rays r of k_r <ell, r> with k_r = ceil(m / g(r)): the block
    k_r r has value m, so every vertex has <theta, .> >= m, the most a
    block is worth, outside the window.  That certificate is checked at the
    vertices of the slice <ell, .> = 1 (else IdentityViolated), and the
    table keeps the transform.  A BudgetExceeded names W, before any vertex
    enumeration.  A non-primary F raises NotPrimary at once: its g, and
    every envelope below it, vanishes on a weight-cone ray.
    """
    key = _approx_key(F, m)
    budget = _checked_budget(budget)
    if not _primary(F):
        raise NotPrimary("approximant needs a primary filtration: its transform "
                         "vanishes on a weight-cone ray")
    s, (zs, den) = F.ambient, F.transform
    rays = s.weight_cone.rays
    ell = s.sigma.interior_point()
    window = max(-(-m * den // min(sum(map(mul, z, r)) for z in zs)) * sum(map(mul, ell, r))
                 for r in rays)
    try:
        table = _approx_table(F, key, window, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"approximant window {window}: {exc}") from exc
    if table.certified is None:
        hs = [(tuple(-x for x in gamma), -v) for gamma, v, w in table.blocks if w <= window]
        hs += [(tuple(-x for x in r), 0) for r in rays]
        thetas = enumerate_vertices(hs, s.rank)
        unit = slice_vertices(rays, ell)
        if any(min(dot(theta, a) for a in unit) * window < m for theta in thetas):
            raise IdentityViolated(f"approximant window {window} is not certified at level {m}")
        table.certified = monomial_filtration(s, thetas).transform
    return MonomialFiltration(ambient=s, transform=table.certified)
