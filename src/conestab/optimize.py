"""Normalized-volume minimization over the Reeb cone.

On the slice where the log discrepancy is one, nvol is vol(xi) =
sum_tau |det W_tau| / prod_i <w_i, xi> over one simplicial fan of the
weight cone (Lawrence's formula, ``exactgeom.fan``), a strictly convex
rational function whose gradient and Hessian are exact sums over the same
fan.  ``minimize_nvol`` takes exact Newton steps on it and certifies the
result, on integer rows (x, L) for xi = x / L; only the result is Fractions.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import IdentityViolated, ParseError, ToleranceNotReached
from .exactgeom import frac
from .exactgeom.fan import _fan_sums, cone_fan
from .exactgeom.linalg import _integer_row, _solve_rows
from .invariants import _alpha0_ints, _decimal, _slice_value
from .singularity import ConeSingularity

MAX_NEWTON_STEPS = 80
POLISH_ROUNDS = 4


class NvolResult(NamedTuple):
    minimizer: tuple          # rational Reeb vector on the A = 1 slice
    nvol_value: Fraction      # exact normalized volume at the minimizer
    certificate_gap: Fraction  # exact upper bound on nvol - inf nvol
    alignment_residual: tuple  # alpha0(minimizer) - u; zero iff stationary
    iterations: int


def _limit(n, d, max_den):
    """(p, q) = Fraction(n, d).limit_denominator(max_den) for d > 0, on
    integers: the last convergent p1 / q1 of n / d within the bound, or the
    semiconvergent past it when strictly closer, 2 b (q0 + k q1) > d for the
    last remainder b (3.12's form of the distance test of 3.10 and 3.11)."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if d <= max_den:
        return n, d
    p0, q0, p1, q1, b = 0, 1, 1, 0, d
    while (q2 := q0 + (a := n // b) * q1) <= max_den:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, b = b, n - a * b
    k = (max_den - q0) // q1
    return (p1, q1) if 2 * b * (q0 + k * q1) <= d else (p0 + k * p1, q0 + k * q1)


def _round_to_slice(s, x, den, max_den, exact=False):
    """x / den rounded entry by entry by ``_limit``, from the float a / den (an
    int / int division, correctly rounded) unless ``exact``, then renormalized
    exactly to A = 1 in lowest terms; None where A <= 0."""
    q = [_limit(a, den, max_den) if exact else
         _limit(*float(a / den).as_integer_ratio(), max_den) for a in x]
    m = lcm(*(b for _, b in q))
    c = [a * (m // b) for a, b in q]
    a = sum(map(mul, s.u_row, c))  # <u, cand> = a / (u_den m) for cand = c / m
    if a <= 0:
        return None
    g = gcd(a, *(c := [s.u_den * ci for ci in c]))
    return tuple(ci // g for ci in c), a // g


def _slice_min(s, c):
    """min <c, y> over the slice {y in sigma : <u, y> = 1}.

    A linear form is least at a vertex of the slice, a ray r of sigma
    scaled onto <u, .> = 1 (u is positive on the rays), so the value is the
    least <c, r> / <u, r>, compared on integers.
    """
    ci, Lc = _integer_row(c)
    return _slice_value((((ci,), s.sigma.rays),), s.u_row, s.u_den, Lc, False)


def minimize_nvol(s: ConeSingularity, tol=Fraction(1, 10 ** 9),
                  raise_on_gap=False) -> NvolResult:
    """Minimize the normalized volume over the Reeb cone.

    Works on {A = 1}, where nvol equals vol.  Steps: exact Newton direction
    from the integer fan sums (``fan._fan_sums``; the reduced Hessian is
    asked for only where a step is taken, and is positive definite as vol
    is strictly convex on the slice), rational rounding of the float trial
    point (denominators capped), exact descent check, at most once per
    candidate and step.  The loop ends at once where the reduced gradient
    is exactly zero, or where no rounded trial point descends, and the
    last iterate is the result.  The certificate is the convexity bound
    vol(x*) + <grad, y - x*> minimized over the slice polytope
    {y in sigma : <u, y> = 1}, which is linear in y and so least at a
    vertex v / <u, v>, v a ray of sigma (no LP is needed); at an exactly
    stationary point the gap is exactly zero.  A gap still above a
    positive ``tol`` is polished by exact Newton steps, each rounded with
    no float at denominators 10^3 / tol, 10^6 / tol, ... (POLISH_ROUNDS).
    The alignment residual alpha0 - u reads alpha0 off the volume and
    gradient held at the iterate.  A negative ``tol`` raises ParseError.
    """
    tol = frac(tol)
    if tol < 0:
        raise ParseError(f"tolerance must be nonnegative, got {tol}", "tol")
    n = s.rank
    fan = cone_fan(s.weight_cone)

    def below(cand, fx, strict):
        """cand = (c, m) is in the open cone with m^n V / Q < fx (<= unless strict)."""
        if cand is None or any(sum(map(mul, h, cand[0])) <= 0 for h in s.sigma.halfspaces):
            return False
        Qc, Vc, _, _ = _fan_sums(fan, cand[0], 0)
        d = cand[1] ** n * Vc * fx[1] - fx[0] * Qc
        return d < 0 or d == 0 and not strict

    # Integer tangent basis of the slice: u_p e_j - u_j e_p, p the first
    # column where u is nonzero (``nullspace`` of u scaled by u_p).
    u = s.u_row
    p = next(k for k, a in enumerate(u) if a)
    tangent = [tuple(u[p] if k == j else -u[j] if k == p else 0 for k in range(n))
               for j in range(n) if j != p]

    def newton(x, L, Q, b):
        """The step at x / L as (w, D), w / D.  With hess = L^(n+2) H / Q^3,
        -T (T^t hess T)^-1 T^t grad is (Q / L) T y for (T^t H T) y = b."""
        H = _fan_sums(fan, x, 2)[3]
        y = _solve_rows([[*(sum(a * H[max(i, j)][min(i, j)] * c for i, a in enumerate(ti)
                                for j, c in enumerate(tj)) for tj in tangent), bi]
                         for ti, bi in zip(tangent, b)], n - 1)
        if y is None:
            raise IdentityViolated("reduced Hessian of vol is singular, but vol is strictly "
                                   "convex on the slice")
        return [Q * sum(map(mul, y[0], col)) for col in zip(*tangent)], L * y[1]

    # Interior start on the slice.  The iterate is point = (x, L), with the
    # order-1 sums (Q, V, G) there; its value is L^n V / Q.
    point = _round_to_slice(s, s.sigma.interior_point(), 1, 1, exact=True)
    Q, V, G, _ = _fan_sums(fan, point[0], 1)
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        b = [sum(map(mul, t, G)) for t in tangent]  # -Q^2 / L^(n+1) times T^t grad
        if not any(b):
            break  # by strict convexity nothing descends, not even a rounding
        (x, L), fx = point, (point[1] ** n * V, Q)
        w, D = newton(x, L, Q, b)
        rejected = [point]  # fx is fixed until a candidate descends, so none is evaluated twice
        for e, max_den in product(range(40), (10 ** 6, 10 ** 4, 100, 10)):
            cand = _round_to_slice(s, [a * (D << e) + L * v for a, v in zip(x, w)],
                                   L * (D << e), max_den)  # x / L + w / (D 2^e)
            if cand not in rejected:
                if below(cand, fx, True):
                    break
                rejected.append(cand)
        else:
            break
        point = cand
        Q, V, G, _ = _fan_sums(fan, point[0], 1)

    def gap_at(x, L):  # <grad, xi> - _slice_min(s, grad) for grad = -L^(n+1) G / Q^2
        return (Fraction(-sum(map(mul, G, x)), L) - _slice_min(s, [-g for g in G])) \
            * L ** (n + 1) / (Q * Q)

    gap = gap_at(*point)
    for k in range(POLISH_ROUNDS if 0 < tol < gap else 0):
        x, L = point
        w, D = newton(x, L, Q, [sum(map(mul, t, G)) for t in tangent])
        max_den = -(-10 ** (3 * k + 3) * tol.denominator // tol.numerator)  # ceil(10^(3k+3)/tol)
        cand = _round_to_slice(s, [a * D + L * v for a, v in zip(x, w)], L * D, max_den, exact=True)
        if not below(cand, (L ** n * V, Q), False):
            break
        iterations, point = iterations + 1, cand
        Q, V, G, _ = _fan_sums(fan, point[0], 1)
        gap = gap_at(*point)
        if gap <= tol:
            break

    x, L = point
    alpha, ad = _alpha0_ints(x, L, Q, V, G)
    residual = tuple(Fraction(a * s.u_den - ui * ad, ad * s.u_den) for a, ui in zip(alpha, u))
    result = NvolResult(minimizer=tuple(Fraction(a, L) for a in x),
                        nvol_value=Fraction(L ** n * V, Q), certificate_gap=gap,
                        alignment_residual=residual, iterations=iterations)
    if raise_on_gap and gap > tol:
        raise ToleranceNotReached(f"certificate gap {_decimal(gap, 3)} above the tolerance "
                                  f"tol = {_decimal(tol, 3)}; exact gap {gap}", result=result)
    return result


__all__ = [
    "NvolResult",
    "minimize_nvol",
]
