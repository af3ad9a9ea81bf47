"""Deterministic lattice-point enumeration inside sliced cones.

The kernel works in runs: for each prefix of the first n-1 coordinates the
last coordinate fills an exact integer range, so a slice is a list of
(prefix, t_lo, t_hi).  The ranges are bounded a prefix row at a time:
with the first n-2 coordinates fixed, every integer row is linear in
coordinate n-1, so its bound on the last coordinate along the row is one
list comprehension over a range.  ``lattice_points_below`` lays the runs
out as points; the approximation tables keep their orders per run and
never build the points.  Those tables, like the chamber decompositions
and the sweeps' parallelepipeds, are cached in a ``_TableCache``, which
bounds what it keeps by the size of the tables as well as by their
number.
"""

import os
from itertools import product
from math import ceil, floor
from operator import mul
from typing import NamedTuple

from ..errors import BudgetExceeded, ParseError
from .cone import Cone, _of_length
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
    (UnboundedSlice otherwise).  The points are the runs of
    ``_lattice_runs`` laid out one by one, as tuples of int.  More than
    ``budget`` kept points raise BudgetExceeded rather than silently
    truncating; a negative budget is a ParseError.
    """
    return [prefix + (t,) for prefix, t_lo, t_hi in _lattice_runs(c, xi, m, budget, strict)
            for t in range(t_lo, t_hi + 1)]


# Prefix rows are bounded in blocks of this many values of coordinate n-1,
# so a budget stop in a long row allocates only one block.
_BLOCK = 1024


def _lattice_runs(c: Cone, xi, m, budget, strict):
    """The points of ``lattice_points_below`` as runs (prefix, t_lo, t_hi).

    Exact integer kernel: the first n-1 coordinates (the prefix, a tuple of
    int) run over the slice's bounding box in lexicographic order, and the
    last one over the range t_lo..t_hi solved from the integer rows; runs
    are nonempty.  The bounds are computed a prefix row at a time: once the
    first n-2 coordinates are fixed, each row is linear along coordinate
    n-1, so its bound on t over that coordinate's range is one list.  The
    budget counts kept points, as in ``lattice_points_below``; the count is
    checked once per block of a row, so the enumeration stops at the end
    of the block in which it first passes the budget.
    """
    xi = vec(_of_length(xi, c.rank))
    m = frac(m)
    budget = _checked_budget(budget)
    n = c.rank
    lo, hi = _box(c, xi, m)
    # Rows <g, a> + g0 >= 0: the halfspaces, then <xi D, a> <= m D (- 1 if strict).
    *ixs, im = _integer_row((*xi, m))[0]
    rows = [(h, 0) for h in c.halfspaces]
    rows.append((tuple(-x for x in ixs), im - (1 if strict else 0)))
    if n == 1:  # no coordinate n-1: give every row and the box a zero one
        rows = [((0, *g), g0) for g, g0 in rows]
        lo, hi = [0, *lo], [0, *hi]

    runs = []
    kept = 0
    for outer in product(*(range(a, b + 1) for a, b in zip(lo[:-2], hi[:-2]))):
        # Row values along (u, t) = coordinates n-1 and n are s0 + gu u + gt t.
        # A row with gt = 0 cuts the range of u; the others bound t, from
        # below where gt > 0 and from above where gt < 0.  The slice is
        # bounded, so rows of both signs exist.
        u_lo, u_hi = lo[-2], hi[-2]
        lows, highs = [], []
        for (*go, gu, gt), g0 in rows:
            s0 = g0 + sum(map(mul, go, outer))
            if gt:
                (lows if gt > 0 else highs).append((s0, gu, gt))
            elif gu > 0:
                u_lo = max(u_lo, -(s0 // gu))
            elif gu < 0:
                u_hi = min(u_hi, s0 // -gu)
            elif s0 < 0:
                u_hi = u_lo - 1
        for start in range(u_lo, u_hi + 1, _BLOCK):
            us = range(start, min(start + _BLOCK, u_hi + 1))
            t_lo = _bound(lows, us, max)
            t_hi = _bound(highs, us, min)
            prefixes = [outer + (u,) for u in us] if n > 1 else [()]
            block = [(p, a, b) for p, a, b in zip(prefixes, t_lo, t_hi) if a <= b]
            kept += sum(b - a for _, a, b in block) + len(block)
            if kept > budget:
                raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
            runs += block
    return runs


def _box(c: Cone, xi, m):
    """(lo, hi), the integer box around the origin and c's rays scaled to <xi, .> = m."""
    verts = ((0,) * c.rank,) + slice_vertices(c.rays, xi, m)
    return ([ceil(min(v[i] for v in verts)) for i in range(c.rank)],
            [floor(max(v[i] for v in verts)) for i in range(c.rank)])


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _TableCache:
    """Least-recently-used store of tables, bounded by entry count and by
    the summed ``size`` of what the entries hold.

    Storing a table evicts the oldest entries until both bounds hold; a
    table larger than ``maxweight`` on its own is returned to its caller
    and never kept, and the table stored under its key stays.  The caller
    builds a table when ``get`` finds none that will do, and stores it with
    ``put``; a stored table that ``get``'s ``fits`` rejects is returned to
    be rebuilt from, and counts as a miss.  A store given ``build`` is
    called like it, as an ``lru_cache``, with the cold builder
    ``__wrapped__``.
    """

    def __init__(self, maxsize, maxweight, size, build=None):
        self.maxsize, self.maxweight, self.size = maxsize, maxweight, size
        self.__wrapped__ = build
        self.cache_clear()

    def __call__(self, *key):
        table = self.get(key)
        return self.put(key, self.__wrapped__(*key)) if table is None else table

    def get(self, key, fits=None):
        table = self.tables.pop(key, None)
        hit = table is not None and (fits is None or fits(table))
        self.hits, self.misses = self.hits + hit, self.misses + (not hit)
        if table is not None:
            self.tables[key] = table  # now the most recent
        return table

    def put(self, key, table):
        size = self.size(table)
        if size <= self.maxweight:
            old = self.tables.pop(key, None)
            if old is not None:
                self.weight -= self.size(old)
            self.tables[key] = table
            self.weight += size
            while len(self.tables) > self.maxsize or self.weight > self.maxweight:
                self.weight -= self.size(self.tables.pop(next(iter(self.tables))))
        return table

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self.tables))

    def cache_clear(self):
        self.tables, self.weight, self.hits, self.misses = {}, 0, 0, 0


def _bound(rows, us, pick):
    """t bound along u in us from rows (s0, gu, gt) with gt of one sign:
    ceil(-(s0 + gu u) / gt) from below (gt > 0, pick=max), floor of the same
    from above (gt < 0, pick=min), the tightest over the rows."""
    out = None
    for s0, gu, gt in rows:
        vals = range(s0 + gu * us.start, s0 + gu * us.stop, gu) if gu else [s0] * len(us)
        b = [-(s // gt) for s in vals] if gt > 0 else [s // -gt for s in vals]
        out = b if out is None else list(map(pick, out, b))
    return out
