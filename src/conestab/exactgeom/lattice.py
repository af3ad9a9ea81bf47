"""Deterministic lattice-point enumeration inside sliced cones."""

import os
from itertools import product
from math import ceil, floor, lcm
from operator import mul

from ..errors import BudgetExceeded, ParseError, UnboundedSlice
from .cone import Cone
from .linalg import dot, frac, vec

DEFAULT_BUDGET = 10 ** 7


def enumeration_budget() -> int:
    """Point budget for enumerations; CONESTAB_BUDGET overrides the default."""
    raw = os.environ.get("CONESTAB_BUDGET")
    try:
        return int(raw) if raw else DEFAULT_BUDGET
    except ValueError as exc:
        raise ParseError(f"not an integer: {raw!r}", "CONESTAB_BUDGET") from exc


def lattice_points_below(c: Cone, xi, m, budget=None, strict=True):
    """All integer points a in c with <a, xi> < m, in lexicographic order.

    With ``strict=False`` the bound is <a, xi> <= m instead.  The covector
    xi must be strictly positive on the cone so the region is finite.  Exact
    integer kernel: the first n-1 coordinates run over the slice's bounding
    box and the last one over a range solved from the integer rows.  Points
    are tuples of int.  More than ``budget`` kept points raise BudgetExceeded
    rather than silently truncating.
    """
    xi = vec(xi)
    m = frac(m)
    budget = enumeration_budget() if budget is None else budget
    pairings = [dot(xi, r) for r in c.rays]
    if any(p <= 0 for p in pairings):
        raise UnboundedSlice("enumeration region is unbounded")
    n = c.rank
    # Coordinate bounds come from the vertices of the <= m slice: the origin
    # and each ray scaled onto the bounding hyperplane.
    verts = [(0,) * n] + [tuple(m * x / p for x in r) for r, p in zip(c.rays, pairings)]
    lo = [ceil(min(v[i] for v in verts)) for i in range(n)]
    hi = [floor(max(v[i] for v in verts)) for i in range(n)]
    # Rows <g, a> + g0 >= 0: the halfspaces, then <xi D, a> <= m D (- 1 if strict).
    den = lcm(m.denominator, *(x.denominator for x in xi))
    rows = [(h[:-1], h[-1], 0) for h in c.halfspaces]
    rows.append((tuple(-int(x * den) for x in xi[:-1]), -int(xi[-1] * den),
                 int(m * den) - (1 if strict else 0)))

    out = []
    for prefix in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        t_lo, t_hi = lo[-1], hi[-1]
        for g, g_last, g0 in rows:
            s = g0 + sum(map(mul, g, prefix))
            if g_last > 0:
                t_lo = max(t_lo, -(s // g_last))
            elif g_last < 0:
                t_hi = min(t_hi, s // -g_last)
            elif s < 0:
                t_hi = t_lo - 1
                break
        if t_lo <= t_hi:
            if len(out) + t_hi - t_lo + 1 > budget:
                raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
            out.extend(prefix + (t,) for t in range(t_lo, t_hi + 1))
    return out
