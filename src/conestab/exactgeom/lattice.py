"""Deterministic lattice-point enumeration inside sliced cones.

The library has one lattice kernel, ``fan._runs``: it splits a cone into
simplicial cones made half-open, and lists the points of each below a
limit as runs p + t r along the ray r that pairs least with the covector,
one per start point of its half-open parallelepiped and multiple of its
other rays.  ``lattice_points_below`` lays those runs out over the cone's
own fan and sorts the points, for callers outside the library: its
consumers read the runs or the start points over a filtration's chambers
or the cone's fan, and build only the points they keep.  This module
holds the public entry and the point budget every enumeration checks.
"""

import os
from itertools import repeat

from ..errors import ParseError
from .cone import Cone, _of_length
from .fan import _runs, cone_fan
from .linalg import _integer_row, frac, vec

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


def _checked_budget(budget):
    """``budget``, or ``enumeration_budget()`` when it is None; a negative
    budget, or one that is not an int (bool, float, str), is a ParseError."""
    if budget is None:
        return enumeration_budget()
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ParseError(f"budget must be a nonnegative integer, got {budget!r}", "budget")
    if budget < 0:
        raise ParseError(f"budget must be nonnegative, got {budget}", "budget")
    return budget


def lattice_points_below(c: Cone, xi, m, budget=None, strict=True):
    """All integer points a in c with <a, xi> < m, in lexicographic order.

    With ``strict=False`` the bound is <a, xi> <= m instead.  The covector
    xi must be strictly positive on the cone so the region is finite
    (UnboundedSlice otherwise, from ``fan._runs``).  With xi = x / L, x
    integral, the points are those with <x, a> below the integer limit
    ceil(m L), or floor(m L) + 1 when not strict: the runs of ``fan._runs``
    over c's simplicial fan, laid out one by one as tuples of int and
    sorted.  More than ``budget`` points raise BudgetExceeded rather than
    silently truncating; a negative budget is a ParseError.
    """
    x, L = _integer_row(vec(_of_length(xi, c.rank)))
    m, budget = frac(m), _checked_budget(budget)
    limit = -(-m * L // 1) if strict else m * L // 1 + 1
    fan = cone_fan(c)
    taus = [tuple(fan.rays[i] for i in tau) for _, tau in fan.simplices]
    return sorted(p for runs in _runs(c, taus, tuple(x), limit, budget) for p0, r, k in runs
                  for p in zip(*(range(a, a + k * b, b) if b else repeat(a, k)
                                 for a, b in zip(p0, r))))
