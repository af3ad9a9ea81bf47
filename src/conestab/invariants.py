"""Closed-form scalar invariants of a polarized toric cone singularity.

Everything here reduces to exact polyhedral data of the weight cone sliced
by the polarization: volumes and barycenters of the slice, epigraph LPs for
extremal slopes, a Newton-polyhedron LP for the log canonical threshold,
and linear-fractional programs over the cone for the delta invariant.  The
volume derivative has the exact closed form

    D_eta vol(xi) = -(n+1)! * V(xi) * <bary(xi), eta>,

with V the Euclidean slice volume, which turns the Futaki invariant of a
product configuration into a single pairing and stationarity of the
normalized volume into barycenter alignment.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import FutakiNonvanishing, IdentityViolated, NotPrimary
from .exactgeom import (
    PLConcave,
    barycenter,
    dot,
    frac,
    integrate_pl,
    lp_solve,
    primitivize,
    slice_polytope,
    vec,
    volume,
)
from .exactgeom.linalg import gram_project_out, norm_sq
from .filtration import MonomialFiltration, newton_polyhedron, toric_filtration
from .singularity import ConeSingularity, ReebVector, log_discrepancy, reeb_vector


def _xi(x):
    return x.xi if isinstance(x, ReebVector) else vec(x)


@dataclass(frozen=True)
class OkounkovBody:
    """Weight-cone slice at level one with its exact volume statistics.

    alpha0 = (n+1)/n * barycenter represents the linear form S(xi0; .) on
    coweights; it pairs to 1 with xi0 and lies in the relative interior of
    the level-one slice.
    """

    body: object
    vol: Fraction
    bary: tuple
    alpha0: tuple


@lru_cache(maxsize=4096)
def _okounkov_cached(s: ConeSingularity, xi0: tuple) -> OkounkovBody:
    n = s.rank
    body = slice_polytope(s.weight_cone, xi0, 1)
    v = volume(body)
    b = barycenter(body)
    if dot(b, xi0) != Fraction(n, n + 1):
        raise IdentityViolated(f"barycenter pairs to {dot(b, xi0)} with xi0, not {n}/{n + 1}")
    alpha0 = tuple(Fraction(n + 1, n) * x for x in b)
    return OkounkovBody(body=body, vol=v, bary=b, alpha0=alpha0)


def okounkov_body(s: ConeSingularity, xi0) -> OkounkovBody:
    return _okounkov_cached(s, _xi(xi0))


@lru_cache(maxsize=8192)
def _vol_cached(s: ConeSingularity, xi: tuple) -> Fraction:
    import math
    return math.factorial(s.rank) * volume(slice_polytope(s.weight_cone, xi, 1))


def vol(s: ConeSingularity, xi) -> Fraction:
    """Volume of the toric valuation of xi: n! times the slice volume."""
    return _vol_cached(s, _xi(xi))


def nvol(s: ConeSingularity, xi) -> Fraction:
    """Normalized volume A(xi)^n vol(xi); invariant under rescaling xi."""
    xi = _xi(xi)
    return log_discrepancy(s, xi) ** s.rank * vol(s, xi)


def vol_derivative(s: ConeSingularity, xi, eta) -> Fraction:
    """Directional derivative of vol at xi along eta (exact closed form)."""
    xi = _xi(xi)
    eta = vec(eta)
    import math
    body = slice_polytope(s.weight_cone, xi, 1)
    V = volume(body)
    b = barycenter(body)
    return -math.factorial(s.rank + 1) * V * dot(b, eta)


@lru_cache(maxsize=16384)
def _s_closed_cached(s, xi0, F) -> Fraction:
    n = s.rank
    O = _okounkov_cached(s, xi0)
    return Fraction(n + 1, n) * integrate_pl(O.body, F.transform) / O.vol


def s_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Expected-vanishing-order invariant of F against the polarization.

    (n+1)/n times the mean of the concave transform over the level-one
    slice of the weight cone; exact via chamberwise linear integration.
    """
    return _s_closed_cached(s, _xi(xi0), F)


@lru_cache(maxsize=16384)
def _lambda_max_cached(s, xi0, F) -> Fraction:
    n = s.rank
    cons = []
    for z in F.covectors:
        cons.append((tuple(z) + (Fraction(-1),), ">=", Fraction(0)))
    for v in s.sigma.rays:
        cons.append((tuple(v) + (Fraction(0),), ">=", Fraction(0)))
    cons.append((tuple(xi0) + (Fraction(0),), "==", Fraction(1)))
    res = lp_solve((Fraction(0),) * n + (Fraction(1),), cons, sense="max")
    return res.value


def lambda_max_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Max of the concave transform on the level-one slice (epigraph LP)."""
    return _lambda_max_cached(s, _xi(xi0), F)


def _slice_vertices(s: ConeSingularity, xi0):
    xi0 = _xi(xi0)
    out = []
    for r in s.weight_cone.rays:
        p = dot(xi0, r)
        out.append(tuple(frac(x) / p for x in r))
    return out


def lambda_min_closed(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """Min of the concave transform on the slice; attained at a vertex."""
    return min(F.ord(v) for v in _slice_vertices(s, xi0))


def j_norm(s: ConeSingularity, xi0, F: MonomialFiltration) -> Fraction:
    """lambda_max - S; nonnegative, zero exactly on rescaled polarizations."""
    return lambda_max_closed(s, xi0, F) - s_closed(s, xi0, F)


@dataclass(frozen=True)
class LctResult:
    value: Fraction
    minimizer: tuple  # optimal toric valuation direction


def lct_monomial(s: ConeSingularity, F: MonomialFiltration) -> LctResult:
    """Log canonical threshold of a monomial filtration.

    The infimum of A(xi)/wt_xi(F) over toric valuations is the LP
    min <u, xi> over xi in sigma with <alpha, xi> >= 1 at every vertex
    alpha of the Newton polyhedron.  For torus-invariant data on toric
    pairs this toric infimum is the threshold itself.
    """
    verts = newton_polyhedron(F).vertices
    cons = [(v, ">=", Fraction(1)) for v in verts]
    for h in s.sigma.halfspaces:
        cons.append((h, ">=", Fraction(0)))
    res = lp_solve(s.u, cons, sense="min")
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

    Both A and S(xi0; .) are linear on the cone, so the infimum of the
    linear-fractional ratio is attained on an extreme ray; solved by a
    Charnes-Cooper LP and always <= 1 (the polarization itself has ratio 1).
    """
    xi0 = _xi(xi0)
    alpha0 = okounkov_body(s, xi0).alpha0
    a0 = log_discrepancy(s, xi0)
    den = tuple(a0 * x for x in alpha0)
    from .exactgeom.lp import fractional_lp
    value, y = fractional_lp(s.u, den, s.sigma.halfspaces, sense="min")
    if value > 1:
        raise IdentityViolated(f"delta_T LP returned {value} > 1")
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


@dataclass(frozen=True)
class ReducedJResult:
    value: Fraction
    minimizer_twist: tuple
    lower: Fraction
    upper: Fraction

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def reduced_j(s: ConeSingularity, xi0, F: MonomialFiltration) -> ReducedJResult:
    """Reduced J-norm: the infimum of J(xi0; F twisted by xi) over twists.

    The twisted max slope is max over the slice P of g(alpha) + <alpha, xi>,
    which by minimax equals min over convex combinations lam of the
    covectors of max over vertices of P of <zeta(lam) + xi, .>.  The whole
    infimum therefore collapses to one exact LP in (lam, xi, t):

        minimize  t - <alpha0, xi>
        subject to t >= <sum_j lam_j zeta_j + xi, alpha_v>  (vertices of P)
                   lam in the simplex, xi in the closed Reeb cone,

    minus S(xi0; F).  The value is exact, so lower = upper = value.
    """
    xi0 = _xi(xi0)
    n = s.rank
    covs = F.covectors
    k = len(covs)
    verts = _slice_vertices(s, xi0)
    alpha0 = okounkov_body(s, xi0).alpha0
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
    for av in verts:
        row = [dot(z, av) for z in covs] + list(av) + [Fraction(-1)]
        cons.append((tuple(row), "<=", Fraction(0)))
    objective = zeros(k) + tuple(-a for a in alpha0) + (Fraction(1),)
    res = lp_solve(objective, cons, sense="min")
    value = res.value - s_closed(s, xi0, F)
    twist_xi = res.point[k:k + n]
    return ReducedJResult(value=value, minimizer_twist=twist_xi,
                          lower=value, upper=value)


def twisted_lambda_max(s: ConeSingularity, xi0, F: MonomialFiltration, xi):
    """Max slope of the xi-twist of F, with a maximizing slice point.

    Works directly on the shifted covectors, so xi may sit anywhere (even
    where the twisted transform loses positivity); the maximizer is a
    subgradient anchor for the convex function xi -> lambda_max(F twisted).
    """
    xi0 = _xi(xi0)
    xi = vec(xi)
    n = s.rank
    cons = []
    for z in F.covectors:
        shifted = tuple(a + b for a, b in zip(z, xi))
        cons.append((shifted + (Fraction(-1),), ">=", Fraction(0)))
    for v in s.sigma.rays:
        cons.append((tuple(v) + (Fraction(0),), ">=", Fraction(0)))
    cons.append((tuple(xi0) + (Fraction(0),), "==", Fraction(1)))
    res = lp_solve((Fraction(0),) * n + (Fraction(1),), cons, sense="max")
    return res.value, res.point[:n]


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
    is the constant in the lower bound J(xi0; xi) >= C |xi mod xi0|.
    """
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
ESTIMATOR = "estimator"
OPTIMIZER = "optimizer"


@dataclass
class ReportEntry:
    exact: Fraction | None
    method: str
    lower: Fraction | None = None
    upper: Fraction | None = None
    params: dict = field(default_factory=dict)

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


@dataclass
class InvariantReport:
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
