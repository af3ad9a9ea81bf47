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
simplicial fan of the weight cone (``exactgeom.fan``, Lawrence's formula),
whose gradient gives D_eta vol(xi) = -(n+1) vol(xi) <bary(xi), eta>: the
Futaki invariant of a product configuration is a single pairing, read off
the integer sums ``OkounkovBody`` holds.  S(xi0; F) sums the same first
moment over the fans of F's chambers (``exactgeom.fan.chambers``, which
lambda_max and the covector reduction read too), once per xi0 for F, its
twists and rescalings (``exactgeom.fan._chamber_moments``).

The caches key on the integer forms of the only data their values depend
on: the weight cone (so singularities that differ only in their boundary
share entries), xi0 = x / L as (x, L), made once by each public function
(``singularity._xi_row``) and passed on to the kernels it calls, and the
covector rows over one denominator that a transform carries
(``PLConcave.rows``, ``PLConcave.den``); the lct keys on u's form and
sigma.  Pairings are compared by cross-multiplication
(``polytope._slice_extreme``), S sums integer moments (``fan._fan_sums``),
and each returned value is built as one Fraction.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import DegenerateCone, FutakiNonvanishing, IdentityViolated, NotPrimary
from .exactgeom import (Cone, dot, enumerate_vertices, lp_solve, primitivize, slice_polytope,
                         slice_vertices, vec)
from .exactgeom.fan import _chamber_key, _chamber_moments, _chamber_rows, _fan_sums, cone_fan
from .exactgeom.linalg import gram_project_out, norm_sq
from .exactgeom.polytope import _slice_extreme
from .filtration import MonomialFiltration, _newton_halfspaces, _rows
from .singularity import ConeSingularity, _log_discrepancy, _xi_row


class OkounkovBody(NamedTuple):
    """Weight-cone slice at level one with its exact volume statistics.

    Held as ints: the weight cone, xi0 = x / L, the order-1 sums (Q, V, G)
    of its fan at x (``fan._fan_sums``) and alpha0_ints = (row, den),
    alpha0 = row / den in lowest terms, the form the kernels read; the
    slice (body), its volume, barycenter and alpha0 are built on read.
    alpha0 = (n+1)/n * barycenter represents the linear form S(xi0; .) on
    coweights; it pairs to 1 with xi0 and lies in the relative interior of
    the level-one slice.
    """

    weight_cone: Cone
    x: tuple
    L: int
    Q: int
    V: int
    G: tuple
    alpha0_ints: tuple

    @property
    def body(self):
        return slice_polytope(self.weight_cone, tuple(Fraction(b, self.L) for b in self.x), 1)

    @property
    def vol(self) -> Fraction:
        """The slice volume, vol(xi0) / n!."""
        n = len(self.x)
        return Fraction(self.L ** n * self.V, self.Q * math.factorial(n))

    @property
    def bary(self):
        (a, d), n = self.alpha0_ints, len(self.x)
        return tuple(Fraction(n * b, (n + 1) * d) for b in a)

    @property
    def alpha0(self):
        a, d = self.alpha0_ints
        return tuple(Fraction(b, d) for b in a)


def _alpha0_ints(x, L, Q, V, G):
    """(row, den) of alpha0 = -grad / (n vol) = L G / (n Q V) at xi0 = x / L
    from the integer sums (Q, V, G) of ``fan._fan_sums`` there.  It must pair
    to 1 with xi0 (Euler's identity for vol, of degree -n), else IdentityViolated."""
    n = len(x)
    d, p = n * Q * V, sum(map(mul, G, x))
    if p != d:
        raise IdentityViolated(f"barycenter pairs to {Fraction(p, (n + 1) * Q * V)} "
                               f"with xi0, not {n}/{n + 1}")
    row = [L * a for a in G]
    g = math.gcd(d, *row)
    return tuple(a // g for a in row), d // g


@lru_cache(maxsize=4096)
def _okounkov_cached(wc, x, L) -> OkounkovBody:
    """Keyed on (weight cone, x, L), xi0 = x / L: all the body depends on."""
    Q, V, G, _ = _fan_sums(cone_fan(wc), x, 1)
    return OkounkovBody(wc, x, L, Q, V, tuple(G), _alpha0_ints(x, L, Q, V, G))


def okounkov_body(s: ConeSingularity, xi0) -> OkounkovBody:
    return _okounkov_cached(s.weight_cone, *_xi_row(xi0, s.rank))


@lru_cache(maxsize=8192)
def _vol_cached(wc, x, L) -> Fraction:
    """Keyed on (weight cone, x, L), xi = x / L."""
    Q, V, _, _ = _fan_sums(cone_fan(wc), x, 0)
    return Fraction(L ** wc.rank * V, Q)


def vol(s: ConeSingularity, xi) -> Fraction:
    """Volume of the toric valuation of xi: n! times the slice volume."""
    return _vol_cached(s.weight_cone, *_xi_row(xi, s.rank))


def nvol(s: ConeSingularity, xi) -> Fraction:
    """Normalized volume A(xi)^n vol(xi); invariant under rescaling xi."""
    x, L = _xi_row(xi, s.rank)
    return _log_discrepancy(s, x, L) ** s.rank * _vol_cached(s.weight_cone, x, L)


def vol_derivative(s: ConeSingularity, xi, eta) -> Fraction:
    """Directional derivative of vol at xi along eta (exact closed form)."""
    e, Le = _xi_row(eta, s.rank)
    O = _okounkov_cached(s.weight_cone, *_xi_row(xi, s.rank))  # grad = -L^(n+1) G / Q^2
    return Fraction(-O.L ** (s.rank + 1) * sum(map(mul, O.G, e)), O.Q * O.Q * Le)


@lru_cache(maxsize=16384)
def _s_closed_cached(wc, x, L, zs, den) -> Fraction:
    """Keyed on (weight cone, x, L, zs, den), xi0 = x / L and the
    covectors zs_j / den: S = L^(n+1) sum_j <zs_j, G_j> / Q_j^2 over
    den n vol(xi0), G_j / Q_j^2 the integer first moment of chamber j
    (``fan._chamber_moments``) and vol(xi0) = L^n V / Q.  One covector is
    linear, so its S is <zs_0, alpha0> / den, read off the body's record."""
    O = _okounkov_cached(wc, x, L)
    if len(zs) == 1:
        a, d = O.alpha0_ints
        return Fraction(sum(map(mul, zs[0], a)), den * d)
    back = _chamber_key(zs)
    num, q = 0, 1  # sum_j <zs_j, G_j> / Q_j^2 as num / q
    for d, Q, G in _chamber_moments(wc, tuple(back), x):
        Q2 = Q * Q
        num = num * Q2 + sum(map(mul, back[d], G)) * q
        q *= Q2
    return Fraction(L * num * O.Q, den * wc.rank * q * O.V)


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
    return _s_closed_cached(s.weight_cone, *_xi_row(xi0, s.rank), *_rows(s, F))


def _slice_value(groups, x, L, den, largest):
    """The extreme of <z, .> / den over groups (integer rows z, rays) at
    the rays scaled onto <x / L, .> = 1 (``polytope._slice_extreme``), as
    one Fraction."""
    num, p, _, _ = _slice_extreme(groups, x, largest)
    return Fraction(L * num, den * p)


@lru_cache(maxsize=16384)
def _lambda_max_cached(wc, x, L, zs, den) -> Fraction:
    """Keyed on (weight cone, x, L, zs, den)."""
    return _slice_value((((z,), fan.rays) for z, fan in _chamber_rows(wc, zs)), x, L, den, True)


def lambda_max_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Max of the concave transform g on the level-one slice.

    g is linear on each chamber {g = <z_j, .>} of ``fan.chambers``, so the
    maximum is that of <z_j, .> over the chamber rays scaled onto the
    slice.
    """
    return _lambda_max_cached(s.weight_cone, *_xi_row(xi0, s.rank), *_rows(s, F))


def lambda_min_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Min of the concave transform on the slice; attained at a vertex.

    The vertices are those of the cached Okounkov body, the weight-cone
    rays r scaled onto the slice, so the value is the least
    <z_j, r> / <xi0, r>, taken over integers.
    """
    x, L = _xi_row(xi0, s.rank)
    wc = s.weight_cone
    _okounkov_cached(wc, x, L)  # unread; perfbench's cache_hit_ratio counts this lookup
    zs, den = _rows(s, F)
    return _slice_value(((zs, wc.rays),), x, L, den, False)


def j_norm(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """lambda_max - S; nonnegative, zero exactly on rescaled polarizations."""
    key = (s.weight_cone, *_xi_row(xi0, s.rank), *_rows(s, F))
    return _lambda_max_cached(*key) - _s_closed_cached(*key)


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
    return _lct_cached(s.u_row, s.u_den, s.sigma, *_rows(s, F))


@lru_cache(maxsize=16384)
def _lct_cached(u, Lu, sigma, zs, den) -> LctResult:
    """Keyed on (u, Lu, sigma, zs, den), u / Lu and the covectors zs_j /
    den: the only data the lct reads; the singularity is not hashed."""
    pairings = [sum(map(mul, z, u)) for z in zs]
    low = min(pairings)
    if pairings.count(low) == 1:
        return LctResult(value=Fraction(low, den * Lu),
                         minimizer=tuple(Fraction(a, den) for a in zs[pairings.index(low)]))
    verts = enumerate_vertices(_newton_halfspaces(sigma, zs, den), sigma.rank)
    cons = ([(v, ">=", Fraction(1)) for v in verts]
            + [(h, ">=", Fraction(0)) for h in sigma.halfspaces])
    res = lp_solve(tuple(Fraction(a, Lu) for a in u), cons, sense="min")
    return LctResult(value=res.value, minimizer=res.point)


def ding(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Ding invariant: lct(F) - A(xi0) S(xi0; F)."""
    x, L = _xi_row(xi0, s.rank)
    zs, den = _rows(s, F)
    return (_lct_cached(s.u_row, s.u_den, s.sigma, zs, den).value
            - _log_discrepancy(s, x, L) * _s_closed_cached(s.weight_cone, x, L, zs, den))


def futaki_product(s: ConeSingularity, xi0, eta) -> Fraction:
    """Futaki invariant of the product configuration generated by eta.

    Linear in eta: A(eta) - A(xi0) <alpha0, eta>, extended from the Reeb
    cone to all coweights.
    """
    x, L = _xi_row(xi0, s.rank)
    e, Le = _xi_row(eta, s.rank)
    a, d = _okounkov_cached(s.weight_cone, x, L).alpha0_ints
    ux, ue = sum(map(mul, s.u_row, x)), sum(map(mul, s.u_row, e))
    return Fraction(ue * L * d - ux * sum(map(mul, a, e)), s.u_den * L * d * Le)


def futaki_derivative(s: ConeSingularity, xi0, eta) -> Fraction:
    """Futaki invariant via the volume derivative along the normalized field.

    Evaluates D_T vol / vol at xi0 with T = (A(xi0) eta - A(eta) xi0)/n,
    using the exact barycenter form of the derivative.  Must agree with
    futaki_product identically; n L Le u_den T is an integer vector.
    """
    n = s.rank
    x, L = _xi_row(xi0, n)
    e, Le = _xi_row(eta, n)
    ux, ue = sum(map(mul, s.u_row, x)), sum(map(mul, s.u_row, e))
    T = [ux * a - ue * b for a, b in zip(e, x)]
    O = _okounkov_cached(s.weight_cone, x, L)  # grad = -L^(n+1) G / Q^2, vol = L^n V / Q
    return Fraction(-sum(map(mul, O.G, T)), n * Le * s.u_den * O.Q * O.V)


def delta_T(s: ConeSingularity, xi0):
    """Delta invariant over toric valuations, with a minimizing ray.

    Both A and S(xi0; .) are linear on the cone, so the ratio
    A / (A(xi0) S) is least on an extreme ray of sigma: the value is the
    minimum of A over the rays scaled onto A(xi0) S = 1, always <= 1 (the
    polarization itself has ratio 1).  A unique minimizing ray is returned
    as it is; where several tie, the Charnes-Cooper LP picks the ray: min
    <u, y> over y in sigma with A(xi0) <alpha0, y> = 1, a polytope, as
    alpha0 is positive on the rays of sigma.
    """
    x, L = _xi_row(xi0, s.rank)
    d, Ld = _okounkov_cached(s.weight_cone, x, L).alpha0_ints
    a0 = _log_discrepancy(s, x, L)  # positive: xi0 is interior, as the body checked
    u, Lu = s.u_row, s.u_den
    # A / (A(xi0) S) at a ray r is <u, r> / (a0 <alpha0, r>).
    num, p, first, ties = _slice_extreme((((u,), s.sigma.rays),), d, False)
    if ties == 1:
        value = Fraction(Ld * num * a0.denominator, Lu * p * a0.numerator)
        y = s.sigma.rays[first]
    else:
        den = tuple(a0 * Fraction(ai, Ld) for ai in d)
        value, y = lp_solve(s.u, [(den, "==", 1)] + [(h, ">=", 0) for h in s.sigma.halfspaces])
    if value > 1:
        raise IdentityViolated(f"delta_T returned {value} > 1")
    return value, primitivize(y)


def semistable_verdict(s: ConeSingularity, xi0):
    """Exact semistability test: does u equal A(xi0) alpha0 as covectors?

    Equality is equivalent to the vanishing of the Futaki character on all
    coweights and to delta_T = 1.  Returns (verdict, certificate) where the
    certificate u - A(xi0) alpha0 is a destabilizing direction when nonzero.
    """
    x, L = _xi_row(xi0, s.rank)
    d, Ld = _okounkov_cached(s.weight_cone, x, L).alpha0_ints
    # A(xi0) = <u_row, x> / (u_den L), so the certificate is
    # (L Ld u_row - <u_row, x> d) / (u_den L Ld).
    ux, q = sum(map(mul, s.u_row, x)), s.u_den * L * Ld
    cert = tuple(Fraction(L * Ld * ui - ux * di, q) for ui, di in zip(s.u_row, d))
    return all(c == 0 for c in cert), cert


class ReducedJResult(NamedTuple):
    value: Fraction
    minimizer_twist: tuple


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
    returned.  The result is (value, minimizer_twist), both exact.
    """
    wc = s.weight_cone
    x, L = _xi_row(xi0, s.rank)
    zs, den = _rows(s, F)
    a, La = _okounkov_cached(wc, x, L).alpha0_ints
    pairings = [sum(map(mul, z, a)) for z in zs]
    low = min(pairings)
    g0 = Fraction(low, den * La)
    value = g0 - _s_closed_cached(wc, x, L, zs, den)
    if pairings.count(low) == 1:
        # With xi0 = x / L, c* = L num / (den p), so
        # c* xi0 - z_j = (num x - p zs_j) / (den p).
        z = zs[pairings.index(low)]
        num, p, _, _ = _slice_extreme((((z,), wc.rays),), x, True)
        twist_xi = tuple(Fraction(num * xk - p * zk, den * p) for xk, zk in zip(x, z))
    elif _lambda_max_cached(wc, x, L, zs, den) == g0:
        twist_xi = (Fraction(0),) * s.rank
    else:
        twist_xi = _reduced_j_twist_lp(s, x, L, F, _okounkov_cached(wc, x, L).alpha0)
    return ReducedJResult(value=value, minimizer_twist=twist_xi)


def _reduced_j_twist_lp(s, x, L, F, alpha0):
    """The xi of the vertex the minimax LP of ``reduced_j`` picks."""
    n = s.rank
    covs = F.covectors
    k = len(covs)
    # Variables: lam (k), xi (n), t (1).
    zeros = lambda j: (Fraction(0),) * j
    cons = [((Fraction(1),) * k + zeros(n + 1), "==", Fraction(1))]
    cons += [(zeros(i) + (Fraction(1),) + zeros(k + n - i), ">=", Fraction(0)) for i in range(k)]
    cons += [(zeros(k) + tuple(h) + zeros(1), ">=", Fraction(0)) for h in s.sigma.halfspaces]
    for av in slice_vertices(s.weight_cone.rays, x, L):  # the body's vertices but the apex
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
    x, L = _xi_row(xi0, s.rank)
    e, Le = _xi_row(xi, s.rank)
    zs, den = _rows(s, F)
    return max(((dot(z, a) / den + dot(e, a) / Le, a)
                for z, fan in _chamber_rows(s.weight_cone, zs)
                for a in slice_vertices(fan.rays, x, L)),
               key=lambda va: va[0])


def inf_twist_s(s: ConeSingularity, xi0, eta):
    """Infimum of S(xi0; .) over admissible twists of the toric valuation.

    Twisting wt_eta by xi gives wt_(eta+xi), admissible whenever eta + xi
    stays in the Reeb cone; the twisted vector therefore ranges over the
    whole cone, where S(xi0; .) = <alpha0, .>.  alpha0 is interior to the
    weight cone, so <alpha0, .> > 0 on sigma minus the origin, and the
    infimum is 0, attained only at the origin.  Returns (value, minimizing
    twisted vector) = (0, 0) once xi0 and eta are checked.
    """
    _xi_row(eta, s.rank)
    okounkov_body(s, xi0)
    return Fraction(0), (Fraction(0),) * s.rank


def delta_red_objective(s: ConeSingularity, xi0, eta) -> Fraction:
    """Inner objective of the reduced delta invariant at a toric direction.

    Requires the Futaki character to vanish on the coweight lattice; then
    u = A(xi0) alpha0 and the ratio A / (A(xi0) S) is identically 1 on the
    cone, which the Charnes-Cooper LP confirms.
    """
    e, _ = _xi_row(eta, s.rank)
    ok, cert = semistable_verdict(s, xi0)
    if not ok:
        raise FutakiNonvanishing(
            f"Futaki character does not vanish; certificate {cert}")
    if not s.sigma.contains(e, strict=True):
        raise NotPrimary("direction must lie in the open Reeb cone")
    from .exactgeom.lp import fractional_lp
    # The verdict holds: A(xi0) alpha0 - u = 0, so the denominator is u.
    value, _ = fractional_lp(s.u, s.u, s.sigma.halfspaces, sense="max")
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
    x, L = _xi_row(xi0, s.rank)
    if s.rank == 1:
        raise DegenerateCone("coercivity constant: the level-one slice of a rank-1 cone "
                             "is a point, with no boundary to measure to")
    alpha0 = _okounkov_cached(s.weight_cone, x, L).alpha0
    # Over the facet normals v of the weight cone; projecting out x or xi0 is the same.
    return min(dot(alpha0, v) ** 2 / norm_sq(gram_project_out(vec(v), x)) for v in s.sigma.rays)


def quotient_norm_sq(xi, xi0) -> Fraction:
    """Squared Euclidean norm of xi modulo the line through xi0."""
    xi0 = vec(xi0)
    _xi_row(xi, len(xi0))
    return norm_sq(gram_project_out(vec(xi), xi0))


# ---------------------------------------------------------------------------
# Reports

CLOSED_FORM = "closed-form"
OPTIMIZER = "optimizer"


def _decimal(q, digits):
    """The rational q to ``digits`` significant digits, with no float."""
    from decimal import Decimal
    return f"{Decimal(q.numerator) / q.denominator:.{digits}g}"


def _decimal12(x):
    """x to 12 significant digits: the float's where it is finite and nonzero, or x = 0."""
    try:
        return f"{f:.12g}" if (f := float(x)) or not x else _decimal(x, 12)
    except OverflowError:  # too large for a float
        return _decimal(x, 12)


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
            out["decimal"] = _decimal12(self.exact)
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
