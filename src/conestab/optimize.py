"""Normalized-volume minimization over the Reeb cone.

On the slice where the log discrepancy is one, nvol is vol(xi) =
sum_tau |det W_tau| / prod_i <w_i, xi> over one simplicial fan of the
weight cone (Lawrence's formula, ``exactgeom.fan``), a strictly convex
rational function whose gradient and Hessian are exact sums over the same
fan.  ``minimize_nvol`` takes exact Newton steps on it and certifies the
result.
"""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import ParseError, ToleranceNotReached
from .exactgeom import dot, frac
from .exactgeom.fan import _fan_sums, cone_fan, fan_moments
from .exactgeom.linalg import _integer_row, solve
from .invariants import _barycenter, _slice_value
from .singularity import ConeSingularity

MAX_NEWTON_STEPS = 80


class NvolResult(NamedTuple):
    minimizer: tuple          # rational Reeb vector on the A = 1 slice
    nvol_value: Fraction      # exact normalized volume at the minimizer
    certificate_gap: Fraction  # exact upper bound on nvol - inf nvol
    alignment_residual: tuple  # alpha0(minimizer) - u; zero iff stationary
    iterations: int


def _round_to_slice(s, x, max_den):
    """Continued-fraction rounding, then exact renormalization to A = 1."""
    c, _ = _integer_row([Fraction(float(v)).limit_denominator(max_den) for v in x])
    a = sum(map(mul, s.u_row, c))  # <u, cand> = a / (u_den L) for cand = c / L
    if a <= 0:
        return None
    return tuple(Fraction(s.u_den * ci, a) for ci in c)


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
    asked for only where a step is taken, steepest descent if it is
    singular), rational rounding of the float trial point (denominators
    capped), exact descent check, at most once per candidate and step.  The
    loop ends at once where the reduced gradient is exactly zero, and that
    iterate is returned unrounded; otherwise a rounding ladder looks for a
    simpler point that does not increase the value.  The certificate is the
    convexity bound vol(x*) + <grad, y - x*> minimized over the slice
    polytope {y in sigma : <u, y> = 1}, which is linear in y and so least
    at a vertex v / <u, v>, v a ray of sigma (no LP is needed); at an
    exactly stationary point the gap is exactly zero.  The alignment
    residual alpha0 - u reads alpha0 off the volume and gradient held at
    the iterate.  A negative ``tol`` raises ParseError.
    """
    tol = frac(tol)
    if tol < 0:
        raise ParseError(f"tolerance must be nonnegative, got {tol}", "tol")
    n = s.rank
    fan = cone_fan(s.weight_cone)

    def f(xi):
        return fan_moments(fan, xi, order=0)[0]

    def sums(xi, order):
        """(L, Q, vol, grad, hess) of ``_fan_sums`` at xi = x / L."""
        x, L = _integer_row(xi)
        return (L, *_fan_sums(fan, x, order))

    # Integer tangent basis of the slice: u_p e_j - u_j e_p, p the first
    # column where u is nonzero (``nullspace`` of u scaled by u_p).
    u = s.u_row
    p = next(k for k, a in enumerate(u) if a)
    tangent = [tuple(u[p] if k == j else -u[j] if k == p else 0 for k in range(n))
               for j in range(n) if j != p]

    # Interior start on the slice.
    xi = s.sigma.interior_point()
    a = sum(map(mul, u, xi))
    xi = tuple(Fraction(s.u_den * x, a) for x in xi)
    L, Q, V, G, _ = sums(xi, 1)
    fx = Fraction(L ** n * V, Q)

    iterations = 0
    stationary = False
    for it in range(MAX_NEWTON_STEPS):
        iterations = it + 1
        b = [sum(map(mul, t, G)) for t in tangent]  # -Q^2 / L^(n+1) times T^t grad
        stationary = not any(b)
        if stationary:
            break  # by strict convexity nothing descends, not even a rounding
        # Newton direction in the slice: with hess = L^(n+2) H / Q^3, the
        # exact step -T (T^t hess T)^-1 T^t grad is (Q / L) T y for
        # (T^t H T) y = b; a singular T^t H T falls back to -T T^t grad.
        H = sums(xi, 2)[-1]
        y = solve([[sum(a * H[max(i, j)][min(i, j)] * c for i, a in enumerate(ti)
                        for j, c in enumerate(tj)) for tj in tangent] for ti in tangent], b)
        step_dir = ([Q * dot(y, col) / L for col in zip(*tangent)] if y else
                    [L ** (n + 1) * dot(b, col) / (u[p] * Q) ** 2 for col in zip(*tangent)])
        moved = False
        rejected = []  # fx is fixed until a candidate descends, so none is evaluated twice
        for e in range(40):
            scale = Fraction(1, 2 ** e)
            trial = [a + scale * v for a, v in zip(xi, step_dir)]
            for max_den in (10 ** 6, 10 ** 4, 100, 10):
                cand = _round_to_slice(s, trial, max_den)
                if cand is None or cand == xi or cand in rejected \
                        or not s.sigma.contains(cand, strict=True):
                    continue
                fc = f(cand)
                if fc < fx:
                    xi, fx = cand, fc
                    L, Q, V, G, _ = sums(xi, 1)
                    moved = True
                    break
                rejected.append(cand)
            if moved:
                break
        if not moved:
            break

    # Prefer the simplest rational point near the iterate that does not
    # increase the value; exact minimizers of small height are recovered.
    # An exactly stationary iterate is kept as it is: every other point of
    # the slice has a larger value, so the ladder could only return it.
    ladder = () if stationary else (1, 2, 3, 4, 6, 10, 100, 10 ** 4)
    for max_den in ladder:
        cand = _round_to_slice(s, xi, max_den)
        if cand is None or not s.sigma.contains(cand, strict=True):
            continue
        fc = f(cand)
        if fc <= fx:
            xi, fx = cand, fc
            L, Q, V, G, _ = sums(xi, 1)
            break
    grad = tuple(Fraction(-L ** (n + 1) * g, Q ** 2) for g in G)

    # Certificate: convexity lower bound minimized over the slice polytope.
    gap = dot(grad, xi) - _slice_min(s, grad)
    alpha0 = _barycenter(fx, grad, xi)[1]
    residual = tuple(a - u for a, u in zip(alpha0, s.u))
    result = NvolResult(minimizer=xi, nvol_value=fx, certificate_gap=gap,
                        alignment_residual=residual, iterations=iterations)
    if raise_on_gap and gap > tol:
        raise ToleranceNotReached(f"certificate gap {_decimal(gap)} above the tolerance "
                                  f"tol = {_decimal(tol)}; exact gap {gap}", result=result)
    return result


def _decimal(q):
    """A Fraction q >= 0 to three significant digits, with no float."""
    from decimal import Decimal
    return f"{Decimal(q.numerator) / q.denominator:.3g}"


__all__ = [
    "NvolResult",
    "minimize_nvol",
]
