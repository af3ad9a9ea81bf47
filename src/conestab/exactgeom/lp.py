"""Exact rational simplex solver.

Two-phase dense tableau simplex with Bland's rule, so the solver is
deterministic and cannot cycle.  Variables are free by default and are
split into positive and negative parts internally; each <=-form row gets a
slack and an artificial.  Infeasibility and unboundedness are reported as
distinct exceptions carrying certificates: a Farkas combination of the
rows, or an improving recession ray.

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

Only n + m + 1 of the 2n + 2m + 1 columns are stored: x+, the slacks and
the rhs.  Row operations are linear in the columns, so the identities the
initial tableau has hold at every step: the x-_j column is -x+_j, and the
artificial of row i is s_i times its slack column, s_i being the sign the
row was multiplied by to make its rhs nonnegative.  For the reduced costs
z[x-_j] = -z[x+_j] and z[art_i] = s_i z[slack_i] + zd in phase 1 (the
artificials cost 1 there) and s_i z[slack_i] in phase 2; the Farkas
multiplier of row i is z[slack_i] / zd.  Every column keeps its index in
the full tableau, and an entry of a column that is not stored is read off
its stored column through a (column, sign) map.  Each such entry is plus
or minus a stored entry, or lies in the ideal of the stored entries and
zd, so the primitive parts, the signs and the ratios Bland's rule reads
are those of the full tableau: the pivot path is unchanged.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ..errors import DenominatorVanishes, Infeasible, LPUnbounded
from .linalg import _integer_row, dot, vec

LE, GE, EQ = "<=", ">=", "=="


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
        if rel == LE:
            signs = (1,)
        elif rel == GE:
            signs = (-1,)
        elif rel == EQ:
            signs = (1, -1)
        else:
            raise ValueError(f"unknown relation {rel!r}")
        iv, L = _integer_row((*a, b))
        rows.extend(([s * x for x in iv[:-1]], s * iv[-1], L) for s in signs)

    value, x = _two_phase(rows, ic, Lc, len(ic))
    if sense == "max":
        value = -value
    return LPResult(value=value, point=x)


def _two_phase(rows, ic, Lc, n):
    """Solve min <ic/Lc, x+ - x-> over rows (L*a, L*b, L): a.(x+ - x-) <= b.

    Column indices are those of the full tableau -- x+ (n), x- (n), one
    slack per row, one artificial per row, rhs -- of which x+, the slacks
    and the rhs are stored.  Returns the optimal value and point as
    Fractions.
    """
    m = len(rows)
    ncols = 2 * n + m
    total = ncols + m
    rhs = n + m
    # Each stored row is L * (a, e_slack, rhs), negated when rhs < 0 so that
    # the artificial basis is feasible; the artificial entry is +L either way.
    T = []
    signs = []
    for i, (a, b, L) in enumerate(rows):
        s = -1 if b < 0 else 1
        row = [s * x for x in a] + [0] * m + [s * b]
        row[n + i] = s * L
        T.append(row)
        signs.append(s)
    # (stored column, sign) of every column of the full tableau but the rhs.
    cols = ([(j, 1) for j in range(n)] + [(j, -1) for j in range(n)]
            + [(n + i, 1) for i in range(m)]
            + [(n + i, s) for i, s in enumerate(signs)])
    basis = [ncols + i for i in range(m)]

    # Phase 1: minimize the sum of the artificials.
    z, zd = _reduced_cost_row(T, basis, cols, [0] * (rhs + 1), 1, ncols)
    z, zd, _ = _simplex_loop(T, basis, cols, z, zd, signs, ncols)
    if z[rhs] != 0:
        # The artificial of row i has reduced cost 1 - yhat_i and the
        # multiplier of <=-form row i is s_i * (z[art_i]/zd - 1), which is
        # z[slack_i]/zd.
        farkas = tuple(Fraction(z[n + i], zd) for i in range(m))
        raise Infeasible("feasible region is empty", farkas=farkas)

    # Drive remaining artificials out of the basis where possible; x-_j is
    # nonzero only where x+_j is, so the first nonzero column is x+ or a slack.
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((k for k in range(rhs) if T[i][k] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(T, basis, cols, i, piv if piv < n else piv + n)

    # Phase 2 on the original cost; artificials may no longer enter.
    z, zd = _reduced_cost_row(T, basis, cols, ic + [0] * (m + 1), Lc, total)
    z, zd, col = _simplex_loop(T, basis, cols, z, zd, signs, total)
    if col is not None:
        raise LPUnbounded("objective unbounded on feasible region",
                          ray=_ray_from_column(T, basis, cols, col, ncols, n))
    x = [Fraction(0)] * (2 * n)
    for row, bv in zip(T, basis):
        if bv < 2 * n:
            k, sg = cols[bv]
            x[bv] = Fraction(row[rhs], sg * row[k])
    return -Fraction(z[rhs], zd), tuple(x[j] - x[n + j] for j in range(n))


def _eliminate(z, zd, cols, art, prow, col):
    """(z', zd') with z'/zd' = z/zd - (z[col]/zd) * prow/prow[col], reduced.

    Columns from ``art`` on are the artificials and cost 1: ``art`` is the
    first artificial in phase 1 and the number of columns in phase 2.
    """
    k, sg = cols[col]
    f = sg * z[k] + zd if col >= art else sg * z[k]
    if f == 0:
        return z, zd
    p = sg * prow[k]
    z = [a * p - f * b for a, b in zip(z, prow)]
    zd *= p
    g = gcd(zd, *z)
    if g > 1:
        z = [a // g for a in z]
        zd //= g
    return z, zd


def _reduced_cost_row(T, basis, cols, cost, zd, art):
    z = cost
    for row, bv in zip(T, basis):
        z, zd = _eliminate(z, zd, cols, art, row, bv)
    return z, zd


def _entering(z, zd, n, signs, phase1):
    """Bland: the smallest column index with negative reduced cost, read in
    full-tableau order x+, x-, slack and, in phase 1, artificial."""
    for j in range(n):
        if z[j] < 0:
            return j
    for j in range(n):
        if z[j] > 0:
            return n + j
    m = len(signs)
    for i in range(m):
        if z[n + i] < 0:
            return 2 * n + i
    if phase1:
        for i, s in enumerate(signs):
            if zd + s * z[n + i] < 0:
                return 2 * n + m + i
    return None


def _simplex_loop(T, basis, cols, z, zd, signs, art):
    """Pivot until no candidate column has negative reduced cost.

    Artificials are candidates, and cost 1, only in phase 1 (``art`` as in
    ``_eliminate``).  Returns (z, zd, None) at an optimum, or (z, zd, col)
    when column col improves without bound.
    """
    last = len(z) - 1
    n = last - len(signs)
    while True:
        enter = _entering(z, zd, n, signs, art < len(cols))
        if enter is None:
            return z, zd, None
        k, sg = cols[enter]
        # Ratio test; Bland again on ties via smallest basis variable.
        best = None
        for i, row in enumerate(T):
            a = sg * row[k]
            if a > 0:
                if best is None:
                    best = i
                    continue
                lhs = row[last] * sg * T[best][k]
                rhs = T[best][last] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return z, zd, enter
        _pivot(T, basis, cols, best, enter)
        z, zd = _eliminate(z, zd, cols, art, T[best], enter)


def _pivot(T, basis, cols, r, col):
    k, sg = cols[col]
    prow = T[r]
    p = sg * prow[k]
    if p < 0:
        prow = T[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(T):
        f = sg * row[k]
        if i != r and f != 0:
            new = [a * p - f * b for a, b in zip(row, prow)]
            g = gcd(*new)
            T[i] = [a // g for a in new] if g > 1 else new
    basis[r] = col


def _ray_from_column(T, basis, cols, col, ncols, n_orig):
    """Recession direction in original variables for an unbounded column."""
    d = [Fraction(0)] * ncols
    if col < ncols:
        d[col] = Fraction(1)
    k, sg = cols[col]
    for row, bv in zip(T, basis):
        if bv < ncols:
            kb, sb = cols[bv]
            d[bv] = -Fraction(sg * row[k], sb * row[kb])
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
    cons = [(den, EQ, Fraction(1))]
    for h in halfspaces:
        cons.append((vec(h), GE, Fraction(0)))
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
