"""Closed-form scalar invariants of a polarized toric cone singularity.

Everything here reduces to exact polyhedral data of the weight cone sliced
by the polarization, with g = min_j <z_j, .> the concave transform of a
filtration: the extremal slopes are extreme values of g at the slice
vertices and at the chamber rays scaled onto the slice, and there are
closed forms for the log canonical threshold g(u), the reduced J-norm
g(alpha0) - S and the delta invariant, a minimum over the rays of sigma.
Each of these three returns an optimal point as well (a minimizer, a
twist, a ray), and its LP runs only on the exact ties where the closed
form leaves that point open.  The slice integrals all come from one
simplicial fan of the weight cone (``exactgeom.fan``, Lawrence's formula):
vol(xi) = sum_tau |det W_tau| / prod_i <w_i, xi> and its gradient are
rational functions of xi on a triangulation built once per cone, so the
volume derivative has the closed form

    D_eta vol(xi) = <grad vol(xi), eta> = -(n+1) * vol(xi) * <bary(xi), eta>,

which turns the Futaki invariant of a product configuration into a single
pairing and stationarity of the normalized volume into barycenter
alignment.  S(xi0; F) sums the same first moment over the fans of the
chambers on which each covector of F is the minimum; lambda_max and the
covector reduction read those chambers (``exactgeom.fan.chambers``) from
the same cache.  The caches of slice data (Okounkov body, vol, S and
lambda_max) key on the weight cone, xi0 and the covectors, the only data
their values depend on, so singularities that differ only in their
boundary share entries; ``lct_monomial``, which reads u, keys on u, sigma
and the covectors.

The keys hold Fraction tuples; behind them xi0 is an integer row over one
denominator, as are the covectors, pairings are compared by
cross-multiplication (``polytope._slice_extreme``), S sums integer moments
(``fan._fan_sums``), and each returned value is built as one Fraction.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import DegenerateCone, FutakiNonvanishing, IdentityViolated, NotPrimary
from .exactgeom import (dot, enumerate_vertices, lp_solve, primitivize, slice_polytope,
                         slice_vertices, vec)
from .exactgeom.fan import _fan_sums, chamber_fans, chambers, cone_fan, fan_moments
from .exactgeom.linalg import _integer_row, gram_project_out, norm_sq
from .exactgeom.polytope import _slice_extreme
from .filtration import MonomialFiltration, _integer_covectors, _newton_halfspaces
from .singularity import ConeSingularity, _xi, log_discrepancy


class OkounkovBody(NamedTuple):
    """Weight-cone slice at level one with its exact volume statistics.

    alpha0 = (n+1)/n * barycenter represents the linear form S(xi0; .) on
    coweights; it pairs to 1 with xi0 and lies in the relative interior of
    the level-one slice.
    """

    body: object
    vol: Fraction
    bary: tuple
    alpha0: tuple


def _barycenter(v, grad, xi0):
    """(bary, alpha0) of the level-one slice at xi0 from vol and grad there.

    bary = -grad / ((n+1) vol) and alpha0 = (n+1)/n bary.  The barycenter
    must pair to n/(n+1) with xi0 (Euler's identity for the degree -n
    function vol); IdentityViolated is raised when it does not.
    """
    n = len(xi0)
    b = tuple(-g / ((n + 1) * v) for g in grad)
    if dot(b, xi0) != Fraction(n, n + 1):
        raise IdentityViolated(f"barycenter pairs to {dot(b, xi0)} with xi0, not {n}/{n + 1}")
    return b, tuple(Fraction(n + 1, n) * x for x in b)


@lru_cache(maxsize=4096)
def _okounkov_cached(wc, xi0: tuple) -> OkounkovBody:
    """Keyed on (weight cone, xi0): the body depends on nothing else."""
    v, grad, _ = fan_moments(cone_fan(wc), xi0, order=1)
    b, alpha0 = _barycenter(v, grad, xi0)
    return OkounkovBody(body=slice_polytope(wc, xi0, 1),
                        vol=v / math.factorial(wc.rank), bary=b, alpha0=alpha0)


def okounkov_body(s: ConeSingularity, xi0) -> OkounkovBody:
    return _okounkov_cached(s.weight_cone, _xi(xi0))


@lru_cache(maxsize=8192)
def _vol_cached(wc, xi: tuple) -> Fraction:
    """Keyed on (weight cone, xi)."""
    return fan_moments(cone_fan(wc), xi, order=0)[0]


def vol(s: ConeSingularity, xi) -> Fraction:
    """Volume of the toric valuation of xi: n! times the slice volume."""
    return _vol_cached(s.weight_cone, _xi(xi))


def nvol(s: ConeSingularity, xi) -> Fraction:
    """Normalized volume A(xi)^n vol(xi); invariant under rescaling xi."""
    xi = _xi(xi)
    return log_discrepancy(s, xi) ** s.rank * vol(s, xi)


def vol_derivative(s: ConeSingularity, xi, eta) -> Fraction:
    """Directional derivative of vol at xi along eta (exact closed form)."""
    _, grad, _ = fan_moments(cone_fan(s.weight_cone), _xi(xi), order=1)
    return dot(grad, vec(eta))


@lru_cache(maxsize=16384)
def _s_closed_cached(wc, xi0, covectors) -> Fraction:
    """Keyed on (weight cone, xi0, covectors): singularities that share a
    weight cone share entries, whatever their boundary.  With xi0 = x / L
    and covectors zs_j / den, S = L^(n+1) sum_j <zs_j, G_j> / Q_j^2 over
    den n vol(xi0), G_j / Q_j^2 the integer first moment of chamber j."""
    n = wc.rank
    x, L = _integer_row(xi0)
    zs, den = _integer_covectors(covectors)
    num, q = 0, 1  # sum_j <zs_j, G_j> / Q_j^2 as num / q
    for z, fan in chamber_fans(wc, zs):
        Q, _, grad, _ = _fan_sums(fan, x, 1)
        Q2 = Q * Q
        num = num * Q2 + sum(map(mul, z, grad)) * q
        q *= Q2
    v = _okounkov_cached(wc, xi0).vol  # the slice volume, vol(xi0) / n!
    return Fraction(L ** (n + 1) * num * v.denominator,
                    den * n * math.factorial(n) * q * v.numerator)


def s_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Expected-vanishing-order invariant of F against the polarization.

    (n+1)/n times the mean of the concave transform g = min_j <z_j, .> over
    the level-one slice of the weight cone.  Exact, chamber by chamber:
    triangulate each chamber {g = <z_j, .>} into simplicial cones tau with
    rays w_i and pairings p_i = <w_i, xi0>.  On the slice of tau, g is
    linear and its mean is its value at the centroid, which gives

        S = sum_tau |det W_tau| / prod_i p_i * <z_j, sum_i w_i / p_i>
            / (n * vol(xi0)).
    """
    return _s_closed_cached(s.weight_cone, _xi(xi0), F.covectors)


def _slice_value(groups, xi0, den, largest):
    """The extreme of <z, .> / den over groups (integer rows z, rays) at
    the rays scaled onto <xi0, .> = 1 (``polytope._slice_extreme``), as
    one Fraction."""
    x, L = _integer_row(xi0)
    num, p, _, _ = _slice_extreme(groups, x, largest)
    return Fraction(L * num, den * p)


@lru_cache(maxsize=16384)
def _lambda_max_cached(wc, xi0, covectors) -> Fraction:
    """Keyed on (weight cone, xi0, covectors)."""
    zs, den = _integer_covectors(covectors)
    return _slice_value((((z,), rays) for z, rays in chambers(wc, zs)), xi0, den, True)


def lambda_max_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Max of the concave transform g on the level-one slice.

    g is linear on each chamber {g = <z_j, .>} of ``fan.chambers``, so the
    maximum is that of <z_j, .> over the chamber rays scaled onto the
    slice.
    """
    return _lambda_max_cached(s.weight_cone, _xi(xi0), F.covectors)


def lambda_min_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Min of the concave transform on the slice; attained at a vertex.

    The vertices are those of the cached Okounkov body, the weight-cone
    rays r scaled onto the slice, so the value is the least
    <z_j, r> / <xi0, r>, taken over integers.
    """
    xi0 = _xi(xi0)
    wc = s.weight_cone
    _okounkov_cached(wc, xi0)  # unread; perfbench's cache_hit_ratio counts this lookup
    zs, den = _integer_covectors(F.covectors)
    return _slice_value(((zs, wc.rays),), xi0, den, False)


def j_norm(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """lambda_max - S; nonnegative, zero exactly on rescaled polarizations."""
    return lambda_max_closed(s, xi0, F) - s_closed(s, xi0, F)


class LctResult(NamedTuple):
    value: Fraction
    minimizer: tuple  # optimal toric valuation direction


def lct_monomial(s: ConeSingularity, F: MonomialFiltration) -> LctResult:
    """Log canonical threshold of a monomial filtration.

    The infimum of A(xi)/wt_xi(F) over toric valuations is the LP
    min <u, xi> over xi in sigma with <alpha, xi> >= 1 at every vertex
    alpha of the Newton polyhedron P = {g >= 1}.  For torus-invariant data
    on toric pairs this toric infimum is the threshold itself.

    Its value is g(u) = F.ord(u).  The recession cone of P is the weight
    cone, on which every xi in sigma is nonnegative, so the constraints
    say <alpha, xi> >= 1 on all of P.  The LP dual takes weights
    lambda_v >= 0 on the vertices and w in the weight cone with
    sum_v lambda_v alpha_v + w = u, and maximizes c = sum_v lambda_v; that
    is max{c : u in c P}.  P is the superlevel set {g >= 1} of the
    concave, positively homogeneous g, whose gauge is g itself, so u lies
    in c P exactly when g(u) >= c, and the maximum is g(u).

    The LP's optimal set is the superdifferential of g at u, which is
    interior to the weight cone.  Where one covector z_j alone attains
    g(u), g is smooth at u and z_j is the only optimum, so it is returned
    with no LP.  Where several tie, the optima form their convex hull and
    the LP is solved for the vertex it picks.
    """
    return _lct_cached(s.u, s.sigma, F.covectors)


@lru_cache(maxsize=16384)
def _lct_cached(u, sigma, covectors) -> LctResult:
    """Keyed on (u, sigma, covectors), the only data the lct reads; the
    singularity itself is not hashed."""
    zs, den = _integer_covectors(covectors)
    x, L = _integer_row(u)
    pairings = [sum(map(mul, z, x)) for z in zs]
    low = min(pairings)
    if pairings.count(low) == 1:
        return LctResult(value=Fraction(low, den * L),
                         minimizer=covectors[pairings.index(low)])
    verts = enumerate_vertices(_newton_halfspaces(sigma, covectors), sigma.rank)
    cons = [(v, ">=", Fraction(1)) for v in verts]
    for h in sigma.halfspaces:
        cons.append((h, ">=", Fraction(0)))
    res = lp_solve(u, cons, sense="min")
    return LctResult(value=res.value, minimizer=res.point)


def ding(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Ding invariant: lct(F) - A(xi0) S(xi0; F)."""
    xi0 = _xi(xi0)
    return lct_monomial(s, F).value - log_discrepancy(s, xi0) * s_closed(s, xi0, F)


def futaki_product(s: ConeSingularity, xi0, eta) -> Fraction:
    """Futaki invariant of the product configuration generated by eta.

    Linear in eta: A(eta) - A(xi0) <alpha0, eta>, extended from the Reeb
    cone to all coweights.
    """
    xi0 = _xi(xi0)
    eta = vec(eta)
    alpha0 = okounkov_body(s, xi0).alpha0
    return log_discrepancy(s, eta) - log_discrepancy(s, xi0) * dot(alpha0, eta)


def futaki_derivative(s: ConeSingularity, xi0, eta) -> Fraction:
    """Futaki invariant via the volume derivative along the normalized field.

    Evaluates D_T vol / vol at xi0 with T = (A(xi0) eta - A(eta) xi0)/n,
    using the exact barycenter form of the derivative.  Must agree with
    futaki_product identically.
    """
    xi0 = _xi(xi0)
    eta = vec(eta)
    n = s.rank
    a_xi0 = log_discrepancy(s, xi0)
    a_eta = log_discrepancy(s, eta)
    T = tuple((a_xi0 * e - a_eta * x) / n for e, x in zip(eta, xi0))
    return vol_derivative(s, xi0, T) / vol(s, xi0)


def delta_T(s: ConeSingularity, xi0):
    """Delta invariant over toric valuations, with a minimizing ray.

    Both A and S(xi0; .) are linear on the cone, so the ratio
    A / (A(xi0) S) is least on an extreme ray of sigma: the value is the
    minimum of A over the rays scaled onto A(xi0) S = 1, always <= 1 (the
    polarization itself has ratio 1).  A unique minimizing ray is returned
    as it is; where several tie, the Charnes-Cooper LP picks the ray.
    """
    xi0 = _xi(xi0)
    alpha0 = okounkov_body(s, xi0).alpha0
    a0 = log_discrepancy(s, xi0)  # positive: xi0 is interior, as the body checked
    d, Ld = _integer_row(alpha0)
    u, Lu = _integer_row(s.u)
    # A / (A(xi0) S) at a ray r is <u, r> / (a0 <alpha0, r>).
    num, p, first, ties = _slice_extreme((((u,), s.sigma.rays),), d, False)
    if ties == 1:
        value = Fraction(Ld * num * a0.denominator, Lu * p * a0.numerator)
        y = s.sigma.rays[first]
    else:
        from .exactgeom.lp import fractional_lp
        den = tuple(a0 * x for x in alpha0)
        value, y = fractional_lp(s.u, den, s.sigma.halfspaces, sense="min")
    if value > 1:
        raise IdentityViolated(f"delta_T returned {value} > 1")
    return value, primitivize(y)


def semistable_verdict(s: ConeSingularity, xi0):
    """Exact semistability test: does u equal A(xi0) alpha0 as covectors?

    Equality is equivalent to the vanishing of the Futaki character on all
    coweights and to delta_T = 1.  Returns (verdict, certificate) where the
    certificate u - A(xi0) alpha0 is a destabilizing direction when nonzero.
    """
    xi0 = _xi(xi0)
    alpha0 = okounkov_body(s, xi0).alpha0
    a0 = log_discrepancy(s, xi0)
    cert = tuple(ui - a0 * ai for ui, ai in zip(s.u, alpha0))
    return all(c == 0 for c in cert), cert


class ReducedJResult(NamedTuple):
    value: Fraction
    minimizer_twist: tuple
    lower: Fraction
    upper: Fraction

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def reduced_j(s: ConeSingularity, xi0, F: MonomialFiltration) -> ReducedJResult:
    """Reduced J-norm: the infimum of J(xi0; F twisted by xi) over twists.

    With g = min_j <z_j, .>, P the level-one slice and alpha0 in P the
    point with S(xi0; toric xi) = <alpha0, xi>, the value is exactly
    g(alpha0) - S(xi0; F):

    - lower bound: the twist by xi in sigma has transform g + <., xi>, so
      its J is max_P (g + <., xi>) - <alpha0, xi> - S(xi0; F), at least
      its value at alpha0, which is g(alpha0) - S(xi0; F);
    - upper bound: for a covector z_j active at alpha0 (<z_j, alpha0> =
      g(alpha0)) take xi = c xi0 - z_j, with c so large that xi lies in
      sigma (xi0 is interior).  Then g + <., xi> <= c on P, with equality
      at alpha0, and J of the twist is c - <alpha0, xi> - S(xi0; F) =
      g(alpha0) - S(xi0; F).

    S is the mean of the concave g for a measure on P with barycenter
    alpha0, so by Jensen the value is >= 0, and 0 exactly when g is linear,
    i.e. when F has one covector.

    The twist is an optimal xi of the minimax LP in (lam, xi, t)

        minimize  t - <alpha0, xi>
        subject to t >= <sum_j lam_j z_j + xi, alpha_v>  (vertices of P)
                   lam in the simplex, xi in the closed Reeb cone.

    Its optima put lam on the covectors active at alpha0 and take
    xi = c xi0 - sum_j lam_j z_j for any c that keeps xi in sigma; the
    canonical twist is the one with the smallest c.  When g is maximal on
    P at alpha0, some lam gives sum_j lam_j z_j = lambda_max xi0 and the
    twist is 0.  Otherwise, with one active covector z_j, it is
    c* xi0 - z_j with c* = max_h <h, z_j> / <h, xi0> over the halfspaces
    h of sigma, the LP's only optimal vertex; those halfspaces are the
    weight-cone rays, so c* is the max of <z_j, .> over the vertices of P.
    With several active covectors the LP is solved and its vertex
    returned.  The value is exact, so lower = upper = value.
    """
    xi0 = _xi(xi0)
    body = okounkov_body(s, xi0)
    alpha0 = body.alpha0
    zs, den = _integer_covectors(F.covectors)
    a, La = _integer_row(alpha0)
    pairings = [sum(map(mul, z, a)) for z in zs]
    low = min(pairings)
    g0 = Fraction(low, den * La)
    value = g0 - s_closed(s, xi0, F)
    if pairings.count(low) == 1:
        # With xi0 = x / L, c* = L num / (den p), so
        # c* xi0 - z_j = (num x - p zs_j) / (den p).
        z = zs[pairings.index(low)]
        x, _ = _integer_row(xi0)
        num, p, _, _ = _slice_extreme((((z,), s.weight_cone.rays),), x, True)
        twist_xi = tuple(Fraction(num * xk - p * zk, den * p) for xk, zk in zip(x, z))
    elif lambda_max_closed(s, xi0, F) == g0:
        twist_xi = (Fraction(0),) * s.rank
    else:
        twist_xi = _reduced_j_twist_lp(s, xi0, F, alpha0)
    return ReducedJResult(value=value, minimizer_twist=twist_xi,
                          lower=value, upper=value)


def _reduced_j_twist_lp(s, xi0, F, alpha0):
    """The xi of the vertex the minimax LP of ``reduced_j`` picks."""
    n = s.rank
    covs = F.covectors
    k = len(covs)
    # Variables: lam (k), xi (n), t (1).
    zeros = lambda j: (Fraction(0),) * j
    cons = []
    cons.append(((Fraction(1),) * k + zeros(n + 1), "==", Fraction(1)))
    for i in range(k):
        e = [Fraction(0)] * (k + n + 1)
        e[i] = Fraction(1)
        cons.append((tuple(e), ">=", Fraction(0)))
    for h in s.sigma.halfspaces:
        cons.append((zeros(k) + tuple(h) + zeros(1), ">=", Fraction(0)))
    for av in _okounkov_cached(s.weight_cone, xi0).body.vertices[1:]:  # slice vertices
        row = [dot(z, av) for z in covs] + list(av) + [Fraction(-1)]
        cons.append((tuple(row), "<=", Fraction(0)))
    objective = zeros(k) + tuple(-a for a in alpha0) + (Fraction(1),)
    return lp_solve(objective, cons, sense="min").point[k:k + n]


def twisted_lambda_max(s: ConeSingularity, xi0, F: MonomialFiltration, xi):
    """Max slope of the xi-twist of F, with a maximizing slice point.

    The maximum of min_j <z_j + xi, .> on the level-one slice.  Shifting
    every covector by xi leaves the chambers of F unchanged, so this is
    ``lambda_max_closed`` over the same scaled chamber rays with z_j + xi,
    for any xi (even where the twisted transform loses positivity); at
    xi = 0 its value is lambda_max.  The maximizing point, the first
    scaled chamber ray that attains the value, is a subgradient anchor for
    the convex function xi -> lambda_max(F twisted).
    """
    xi0 = _xi(xi0)
    xi = vec(xi)
    zs, den = _integer_covectors(F.covectors)
    return max(((dot(z, a) / den + dot(xi, a), a) for z, rays in chambers(s.weight_cone, zs)
                for a in slice_vertices(rays, xi0)),
               key=lambda va: va[0])


def inf_twist_s(s: ConeSingularity, xi0, eta):
    """Infimum of S(xi0; .) over admissible twists of the toric valuation.

    Twisting wt_eta by xi gives wt_(eta+xi), admissible whenever eta + xi
    stays in the Reeb cone; the twisted vector therefore ranges over the
    whole cone and the infimum is an LP over its closure.  Returns
    (value, minimizing twisted vector).
    """
    xi0 = _xi(xi0)
    eta = vec(eta)
    alpha0 = okounkov_body(s, xi0).alpha0
    cons = [(h, ">=", Fraction(0)) for h in s.sigma.halfspaces]
    res = lp_solve(alpha0, cons, sense="min")
    return res.value, res.point


def delta_red_objective(s: ConeSingularity, xi0, eta) -> Fraction:
    """Inner objective of the reduced delta invariant at a toric direction.

    Requires the Futaki character to vanish on the coweight lattice; then
    u = A(xi0) alpha0 and the ratio A / (A(xi0) S) is identically 1 on the
    cone, which the Charnes-Cooper LP confirms.
    """
    xi0 = _xi(xi0)
    eta = vec(eta)
    ok, cert = semistable_verdict(s, xi0)
    if not ok:
        raise FutakiNonvanishing(
            f"Futaki character does not vanish; certificate {cert}")
    if not s.sigma.contains(eta, strict=True):
        raise NotPrimary("direction must lie in the open Reeb cone")
    alpha0 = okounkov_body(s, xi0).alpha0
    a0 = log_discrepancy(s, xi0)
    den = tuple(a0 * x for x in alpha0)
    from .exactgeom.lp import fractional_lp
    value, _ = fractional_lp(s.u, den, s.sigma.halfspaces, sense="max")
    if value != 1:
        raise IdentityViolated(f"reduced delta ratio LP returned {value}, not 1")
    return Fraction(1)


def coercivity_constant_sq(s: ConeSingularity, xi0) -> Fraction:
    """Squared distance from alpha0 to the boundary of the level-one slice.

    Measured inside the slicing hyperplane; the square is rational.  This
    is the constant in the lower bound J(xi0; xi) >= C |xi mod xi0|.  A
    rank-1 cone has no such constant: its slice is the point alpha0
    (DegenerateCone).
    """
    if s.rank == 1:
        raise DegenerateCone("coercivity constant: the level-one slice of a rank-1 cone "
                             "is a point, with no boundary to measure to")
    xi0 = _xi(xi0)
    alpha0 = okounkov_body(s, xi0).alpha0
    best = None
    for v in s.sigma.rays:  # facet normals of the weight cone
        p = dot(alpha0, v)
        vbar = gram_project_out(vec(v), xi0)
        d2 = p * p / norm_sq(vbar)
        if best is None or d2 < best:
            best = d2
    return best


def quotient_norm_sq(xi, xi0) -> Fraction:
    """Squared Euclidean norm of xi modulo the line through xi0."""
    return norm_sq(gram_project_out(vec(xi), vec(xi0)))


# ---------------------------------------------------------------------------
# Reports

CLOSED_FORM = "closed-form"
OPTIMIZER = "optimizer"


class ReportEntry(NamedTuple):
    exact: Fraction | None
    method: str
    lower: Fraction | None = None
    upper: Fraction | None = None
    params: dict = MappingProxyType({})  # empty and read-only unless given

    def to_json(self):
        def enc(x):
            return None if x is None else str(Fraction(x))
        out = {"method": self.method}
        if self.exact is not None:
            out["exact"] = enc(self.exact)
            out["decimal"] = f"{float(self.exact):.12g}"
        if self.lower is not None:
            out["lower"] = enc(self.lower)
            out["upper"] = enc(self.upper)
        if self.params:
            out["params"] = {k: str(v) for k, v in self.params.items()}
        return out


class InvariantReport(NamedTuple):
    """Named invariant values with provenance of the computing method."""

    entries: dict

    def add(self, name, exact=None, method=CLOSED_FORM, lower=None, upper=None, **params):
        self.entries[name] = ReportEntry(exact=exact, method=method,
                                         lower=lower, upper=upper, params=params)

    def to_json(self) -> str:
        return json.dumps({k: v.to_json() for k, v in self.entries.items()},
                          indent=2, sort_keys=True)

    @staticmethod
    def parse_exact(payload: str):
        """Recover the exact fractions from a serialized report."""
        data = json.loads(payload)
        out = {}
        for name, entry in data.items():
            if "exact" in entry:
                out[name] = Fraction(entry["exact"])
        return out
