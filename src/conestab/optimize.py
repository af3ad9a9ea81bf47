"""Normalized-volume minimization over the Reeb cone.

The normalized-volume minimizer works on the affine slice where the log
discrepancy equals one.  There nvol is vol(xi) = sum_tau |det W_tau| /
prod_i <w_i, xi> over one simplicial fan of the weight cone (Lawrence's
formula, ``exactgeom.fan``), a strictly convex rational function of the
Reeb vector whose gradient and Hessian are exact sums over the same fan.
The search takes exact Newton steps, converts each trial point to float
only to round it to a nearby rational with a capped denominator, and
verifies descent exactly.  It stops as soon as the reduced gradient is
exactly zero, since by strict convexity no candidate can then descend, and
such an iterate is returned with no final rounding; otherwise a last
rounding ladder looks for a simpler point that does not increase the
value.  A final convexity bound, minimized over the vertices of the slice,
certifies the gap, which collapses to zero whenever the iterate is exactly
stationary.  The alignment residual alpha0 - u reads alpha0 off the volume
and gradient already held at the iterate.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, ToleranceNotReached
from .exactgeom import dot, frac
from .exactgeom.fan import cone_fan, fan_moments
from .exactgeom.linalg import _integer_row, nullspace, solve
from .exactgeom.polytope import _slice_extreme
from .invariants import _barycenter
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
    cand = [Fraction(float(v)).limit_denominator(max_den) for v in x]
    a = dot(s.u, cand)
    if a <= 0:
        return None
    return tuple(c / a for c in cand)


def _slice_min(s, c):
    """min <c, y> over the slice {y in sigma : <u, y> = 1}.

    A linear form is least at a vertex of the slice, a ray r of sigma
    scaled onto <u, .> = 1 (u is positive on the rays), so the value is the
    least <c, r> / <u, r>, compared on integers.
    """
    ci, Lc = _integer_row(c)
    u, Lu = _integer_row(s.u)
    num, p, _, _ = _slice_extreme((((ci,), s.sigma.rays),), u, False)
    return Fraction(Lu * num, Lc * p)


def minimize_nvol(s: ConeSingularity, tol=Fraction(1, 10 ** 9),
                  raise_on_gap=False) -> NvolResult:
    """Minimize the normalized volume over the Reeb cone.

    Works on {A = 1}: there nvol equals vol, and vol with its gradient and
    Hessian are exact sums over the weight cone's simplicial fan.  Steps:
    exact Newton direction (steepest descent if the reduced Hessian is
    singular), rational rounding of the float trial point (denominators
    capped), exact descent check; the loop ends at once where the reduced
    gradient is exactly zero, and that iterate is returned unrounded.  The
    certificate is the convexity bound vol(x*) + <grad, y - x*> minimized
    over the slice polytope {y in sigma : <u, y> = 1}, which is linear in y
    and so least at a vertex v / <u, v>, v a ray of sigma (no LP is
    needed); at an exactly stationary point the gap is exactly zero.  A
    negative ``tol`` raises ParseError.
    """
    tol = frac(tol)
    if tol < 0:
        raise ParseError(f"tolerance must be nonnegative, got {tol}", "tol")
    n = s.rank
    fan = cone_fan(s.weight_cone)

    def f(xi):
        return fan_moments(fan, xi, order=0)[0]

    # Interior start on the slice.
    xi = s.sigma.interior_point()
    xi = tuple(frac(x) / dot(s.u, xi) for x in xi)
    fx, grad, hess = fan_moments(fan, xi)
    tangent = nullspace([s.u], n)

    iterations = 0
    stationary = False
    for it in range(MAX_NEWTON_STEPS):
        iterations = it + 1
        neg_gt = [-dot(t, grad) for t in tangent]
        stationary = not any(neg_gt)
        if stationary:
            break  # by strict convexity nothing descends, not even a rounding
        # Newton direction in the slice: solve (T^t H T) d = -T^t g exactly.
        Ht = [[dot(ti, [dot(row, tj) for row in hess]) for tj in tangent]
              for ti in tangent]
        d = solve(Ht, neg_gt) or neg_gt
        step_dir = [dot(d, col) for col in zip(*tangent)]
        moved = False
        for k in range(40):
            scale = Fraction(1, 2 ** k)
            trial = [x + scale * v for x, v in zip(xi, step_dir)]
            for max_den in (10 ** 6, 10 ** 4, 100, 10):
                cand = _round_to_slice(s, trial, max_den)
                if cand is None or not s.sigma.contains(cand, strict=True):
                    continue
                if cand == xi:
                    continue
                fc = f(cand)
                if fc < fx:
                    xi = cand
                    fx, grad, hess = fan_moments(fan, xi)
                    moved = True
                    break
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
            _, grad, _ = fan_moments(fan, xi, order=1)
            break

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
