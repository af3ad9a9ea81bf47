"""Exact rational simplex solver.

Two-phase dense tableau simplex with Bland's rule, so the solver is
deterministic and cannot cycle.  The variables are free and split into
positive and negative parts; each <=-form row gets a slack and an
artificial, and the tableau stores all of these columns.  Infeasibility
and unboundedness are reported as distinct exceptions carrying
certificates: a Farkas combination of the rows, or an improving ray.

The tableau is fraction-free.  Each row is a primitive integer vector R_i
standing for the rational row R_i / R_i[basis[i]], and that scale
R_i[basis[i]] is kept positive.  A pivot on (r, c) makes the pivot entry
positive (negating row r if needed) and replaces every other row by the
primitive part of R_i * R_r[c] - R_i[c] * R_r.  The reduced-cost row is an
integer vector z over a positive denominator zd, updated the same way.
Bland's rule reads only signs and the ratios R_i[rhs] / R_i[enter], which
the positive scales leave unchanged and which are compared by
cross-multiplying, so the pivot sequence -- and with it every value,
vertex and certificate -- is the one a ``Fraction`` tableau normalized to
a unit basis entry would take.  Answers are converted back to ``Fraction``
only at the end.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ..errors import DenominatorVanishes, Infeasible, LPUnbounded
from .linalg import _integer_row, dot, vec

LE, GE, EQ = "<=", ">=", "=="
_LE_FORM = {LE: (1,), GE: (-1,), EQ: (1, -1)}  # the <=-form rows of a relation, by sign


class LPResult(NamedTuple):
    value: Fraction
    point: tuple


def lp_solve(objective, constraints, sense="min") -> LPResult:
    """Optimize a linear objective over {x : constraints}.

    objective:   covector c (the objective is <c, x>)
    constraints: iterable of (covector a, relation, rhs b) with relation one
                 of '<=', '>=', '=='
    sense:       'min' or 'max'

    Returns one optimal vertex.  Raises Infeasible or LPUnbounded, each with
    a certificate.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    ic, Lc = _integer_row(tuple(objective))
    if sense == "max":
        ic = [-x for x in ic]

    # Normalize to <=-form rows (the Farkas certificate is indexed by them),
    # each scaled once to integers: (L*a, L*b, L) for a.x <= b.
    rows = []
    for a, rel, b in constraints:
        if rel not in _LE_FORM:
            raise ValueError(f"unknown relation {rel!r}")
        iv, L = _integer_row((*a, b))
        rows.extend(([s * x for x in iv[:-1]], s * iv[-1], L) for s in _LE_FORM[rel])

    value, x = _two_phase(rows, ic, Lc, len(ic))
    if sense == "max":
        value = -value
    return LPResult(value=value, point=x)


def _two_phase(rows, ic, Lc, n):
    """Solve min <ic/Lc, x+ - x-> over rows (L*a, L*b, L): a.(x+ - x-) <= b.

    Columns: x+ (n), x- (n), one slack per row, one artificial per row, rhs.
    Returns the optimal value and point as Fractions.
    """
    m = len(rows)
    ncols = 2 * n + m
    total = ncols + m
    # Each row is L * (a, -a, e_slack, rhs), negated when rhs < 0 so that the
    # artificial basis is feasible; the artificial entry is +L either way.
    T = []
    for i, (a, b, L) in enumerate(rows):
        s = -1 if b < 0 else 1
        row = [s * x for x in a] + [-s * x for x in a] + [0] * (2 * m) + [s * b]
        row[2 * n + i] = s * L
        row[ncols + i] = L
        T.append(row)
    basis = [ncols + i for i in range(m)]

    # Phase 1: minimize the sum of the artificials.
    z, zd = _reduced_cost_row(T, basis, [0] * ncols + [1] * m + [0], 1)
    z, zd, _ = _simplex_loop(T, basis, z, zd, total)
    if z[total] != 0:
        # The Farkas multiplier of <=-form row i is its slack's reduced cost.
        farkas = tuple(Fraction(z[2 * n + i], zd) for i in range(m))
        raise Infeasible("feasible region is empty", farkas=farkas)

    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if T[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(T, basis, i, piv)

    # Phase 2 on the original cost; artificials may no longer enter.
    cost = ic + [-x for x in ic] + [0] * (2 * m + 1)
    z, zd = _reduced_cost_row(T, basis, cost, Lc)
    z, zd, col = _simplex_loop(T, basis, z, zd, ncols)
    if col is not None:
        raise LPUnbounded("objective unbounded on feasible region",
                          ray=_ray_from_column(T, basis, col, ncols, n))
    x = [Fraction(0)] * total
    for row, bv in zip(T, basis):
        x[bv] = Fraction(row[total], row[bv])
    return -Fraction(z[total], zd), tuple(x[j] - x[n + j] for j in range(n))


def _eliminate(z, zd, prow, col):
    """(z', zd') with z'/zd' = z/zd - (z[col]/zd) * prow/prow[col], reduced."""
    f = z[col]
    if f == 0:
        return z, zd
    p = prow[col]
    z = [a * p - f * b for a, b in zip(z, prow)]
    zd *= p
    g = gcd(zd, *z)
    if g > 1:
        z = [a // g for a in z]
        zd //= g
    return z, zd


def _reduced_cost_row(T, basis, cost, zd):
    z = cost
    for row, bv in zip(T, basis):
        z, zd = _eliminate(z, zd, row, bv)
    return z, zd


def _simplex_loop(T, basis, z, zd, ncand):
    """Pivot until no column below ``ncand`` has negative reduced cost.

    Returns (z, zd, None) at an optimum, or (z, zd, col) when column col
    improves without bound.
    """
    total = len(z) - 1
    while True:
        # Bland: entering variable is the smallest index with negative cost.
        enter = next((j for j in range(ncand) if z[j] < 0), None)
        if enter is None:
            return z, zd, None
        # Ratio test; Bland again on ties via smallest basis variable.
        best = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if best is None:
                    best = i
                    continue
                lhs = row[total] * T[best][enter]
                rhs = T[best][total] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return z, zd, enter
        _pivot(T, basis, best, enter)
        z, zd = _eliminate(z, zd, T[best], enter)


def _pivot(T, basis, r, col):
    prow = T[r]
    p = prow[col]
    if p < 0:
        prow = T[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(T):
        f = row[col]
        if i != r and f != 0:
            new = [a * p - f * b for a, b in zip(row, prow)]
            g = gcd(*new)
            T[i] = [a // g for a in new] if g > 1 else new
    basis[r] = col


def _ray_from_column(T, basis, col, ncols, n_orig):
    """Recession direction in original variables for an unbounded column."""
    d = [Fraction(0)] * ncols
    d[col] = Fraction(1)  # phase 2 never enters an artificial, so col < ncols
    for row, bv in zip(T, basis):
        if bv < ncols:
            d[bv] = -Fraction(row[col], row[bv])
    return tuple(d[j] - d[n_orig + j] for j in range(n_orig))


def fractional_lp(num, den, halfspaces, sense="min"):
    """Optimize <num,x>/<den,x> over the cone {x : <h,x> >= 0 for h in halfspaces}.

    Uses the Charnes-Cooper substitution y = x / <den,x>: the program becomes
    linear in y with <den,y> = 1.  The denominator must be positive on the
    cone minus the origin; a vanishing denominator direction surfaces as an
    unbounded or degenerate transformed program.
    """
    num = vec(num)
    den = vec(den)
    from .cone import cone_from_halfspaces
    feasible = cone_from_halfspaces(halfspaces)
    for r in feasible.rays:
        if dot(den, r) <= 0:
            raise DenominatorVanishes(
                f"denominator not strictly positive on feasible ray {r}")
    cons = [(den, EQ, Fraction(1))] + [(vec(h), GE, Fraction(0)) for h in halfspaces]
    try:
        res = lp_solve(num, cons, sense=sense)
    except LPUnbounded as exc:
        raise DenominatorVanishes(
            "denominator not strictly positive on the feasible cone") from exc
    y = res.point
    d = dot(den, y)
    if d <= 0:
        raise DenominatorVanishes("denominator vanishes at the optimum")
    return res.value, y
