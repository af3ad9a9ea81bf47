"""Deterministic lattice-point enumeration inside sliced cones.

The kernel works in runs: for each prefix of the first n-1 coordinates the
last coordinate fills an exact integer range, so a slice is a list of
(prefix, t_lo, t_hi).  ``lattice_points_below`` lays the runs out as
points; the estimator sweeps aggregate each run of the last coordinate at
once, with strided slice updates, and never build the points.
"""

import os
from itertools import product
from math import ceil, floor
from operator import mul

from ..errors import BudgetExceeded, ParseError
from .cone import Cone
from .linalg import _integer_row, frac, vec
from .polytope import slice_vertices

DEFAULT_BUDGET = 10 ** 7


def enumeration_budget() -> int:
    """Point budget for enumerations; CONESTAB_BUDGET overrides the default."""
    raw = os.environ.get("CONESTAB_BUDGET")
    try:
        budget = int(raw) if raw else DEFAULT_BUDGET
    except ValueError as exc:
        raise ParseError(f"not an integer: {raw!r}", "CONESTAB_BUDGET") from exc
    if budget < 0:
        raise ParseError(f"budget must be nonnegative, got {budget}", "CONESTAB_BUDGET")
    return budget


def lattice_points_below(c: Cone, xi, m, budget=None, strict=True):
    """All integer points a in c with <a, xi> < m, in lexicographic order.

    With ``strict=False`` the bound is <a, xi> <= m instead.  The covector
    xi must be strictly positive on the cone so the region is finite
    (UnboundedSlice otherwise).  The points are the runs of
    ``_lattice_runs`` laid out one by one, as tuples of int.  More than
    ``budget`` kept points raise BudgetExceeded rather than silently
    truncating; a negative budget is a ParseError.
    """
    return [prefix + (t,) for prefix, t_lo, t_hi in _lattice_runs(c, xi, m, budget, strict)
            for t in range(t_lo, t_hi + 1)]


def _lattice_runs(c: Cone, xi, m, budget, strict):
    """The points of ``lattice_points_below`` as runs (prefix, t_lo, t_hi).

    Exact integer kernel: the first n-1 coordinates (the prefix, a tuple of
    int) run over the slice's bounding box in lexicographic order, and the
    last one over the range t_lo..t_hi solved from the integer rows; runs
    are nonempty.  The budget counts kept points, as in
    ``lattice_points_below``.
    """
    xi = vec(xi)
    m = frac(m)
    if budget is None:
        budget = enumeration_budget()
    elif budget < 0:
        raise ParseError(f"budget must be nonnegative, got {budget}", "budget")
    n = c.rank
    # Coordinate bounds come from the vertices of the <= m slice: the origin
    # and each ray scaled onto the bounding hyperplane.
    verts = ((0,) * n,) + slice_vertices(c.rays, xi, m)
    lo = [ceil(min(v[i] for v in verts)) for i in range(n)]
    hi = [floor(max(v[i] for v in verts)) for i in range(n)]
    # Rows <g, a> + g0 >= 0: the halfspaces, then <xi D, a> <= m D (- 1 if strict).
    *ixs, ixl, im = _integer_row((*xi, m))[0]
    rows = [(h[:-1], h[-1], 0) for h in c.halfspaces]
    rows.append((tuple(-x for x in ixs), -ixl, im - (1 if strict else 0)))

    runs = []
    kept = 0
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
            kept += t_hi - t_lo + 1
            if kept > budget:
                raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
            runs.append((prefix, t_lo, t_hi))
    return runs
