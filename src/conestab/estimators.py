"""Finite-level lattice estimators for the asymptotic invariants.

A sweep enumerates the monomial basis below each weight level, reads off
orders under the integer-rounded filtration, and aggregates the counting
statistics whose limits are the closed-form invariants: N_m against the
volume, the order sums against S, the per-level maxima against the top
slope.  Everything is exact rational bookkeeping; "estimation" refers only
to the finiteness of the level, never to sampling.

``sweep`` builds no point: ``fan._shell_sums`` splits the weight cone
into the simplicial cones of F's chambers, where floor(g) is a start
value plus a linear form in the generators' multiplicities, and one walk
over the occupied weights gives every shell's count, order sum and
maximum, so N_m, TS0_m and count_gamma come from the same counts.  The
orders of ``sweep_approx`` are DP values, so it reads them off F's
approximation table (``filtration._approx_table``), whose reference-weight
window holds every point below the top level, and bins that table's
points below the top by shell, one point at a time: along each of the
table's runs <xi0, .> rises, so they are a head of the run.  A row holds
integers only; its ratios are Fractions built on read, and the CSV and
JSON writers print them from the integers.  ``gamma_semigroup`` lays out
only the kept tail of each of the chambers' runs, and
``good_valuation_check`` filters the start points of the weight cone's
half-open parallelepipeds, where its Hilbert basis lies.
"""

import json
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import ge, mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import BudgetExceeded, EmptyInput
from .exactgeom import frac
from .exactgeom.fan import _chamber_cones, _runs, _shell_sums, _starts, cone_fan
from .exactgeom.lattice import _checked_budget
from .filtration import MonomialFiltration, _approx_key, _approx_table, _rows
from .invariants import _lambda_max_cached, _s_closed_cached, _vol_cached
from .singularity import ConeSingularity, _xi_row

CSV_HEADER = ["m", "N_m", "TS_m", "S_m", "Sp_m", "Spp_m", "lammax_m"]


class LevelStats(NamedTuple):
    """One level's statistics, integers only.

    The ratios are properties that build their Fraction on read: S_m =
    TS_m / TS0_m and Sp_m = shell_TS / shell_TS0, None where the denominator
    is 0, Spp_m = (n+1) TS_m / (n m N_m) with n the rank, and lammax_m =
    top_ord / m.  ``EstimatorSweep``'s writers print them from the integers.
    """
    m: int
    N_m: int
    TS_m: int          # order sum of F over the basis below level m
    TS0_m: int         # order sum of the reference filtration itself
    count_gamma: int   # points at weight <= m
    shell_TS: int      # order sum of shell m, the weights in [m, m + 1)
    shell_TS0: int     # its reference order sum, m times its point count
    top_ord: int       # top order seen below level m
    rank: int

    S_m = property(lambda st: Fraction(st.TS_m, st.TS0_m) if st.TS0_m else None)
    Sp_m = property(lambda st: Fraction(st.shell_TS, st.shell_TS0) if st.shell_TS0 else None)
    Spp_m = property(lambda st: Fraction((st.rank + 1) * st.TS_m, st.rank * st.m * st.N_m))
    lammax_m = property(lambda st: Fraction(st.top_ord, st.m))


def _ratio(p, q, null, quote):
    """str(Fraction(p, q)) between quotes for q > 0, ``null`` for q = 0."""
    if not q:
        return null
    g = gcd(p, q)
    return f"{quote}{p // g}{quote}" if q == g else f"{quote}{p // g}/{q // g}{quote}"


def _ratio_texts(per_level, null, quote):
    """Each row's S_m, Sp_m, Spp_m and lammax_m, written by ``_ratio``."""
    for m, N, TS, TS0, _, sTS, sTS0, top, n in per_level:
        yield (_ratio(TS, TS0, null, quote), _ratio(sTS, sTS0, null, quote),
               _ratio((n + 1) * TS, n * m * N, null, quote), _ratio(top, m, null, quote))


class EstimatorSweep(NamedTuple):
    levels: list
    per_level: list
    target: dict = MappingProxyType({})  # empty and read-only unless given

    def row(self, m) -> LevelStats:
        for st in self.per_level:
            if st.m == m:
                return st
        raise KeyError(m)

    def to_csv(self) -> str:
        """The table as ``csv.writer`` writes it: CRLF line ends, and an
        empty field for a missing ratio."""
        texts = _ratio_texts(self.per_level, "", "")
        rows = "".join(f"{st.m},{st.N_m},{st.TS_m},{S},{Sp},{Spp},{lam}\r\n"
                       for st, (S, Sp, Spp, lam) in zip(self.per_level, texts))
        return f"{','.join(CSV_HEADER)}\r\n{rows}"

    def to_json(self) -> str:
        """{"levels", "rows", "target"}, byte for byte what
        ``json.dumps(..., indent=2)`` writes for it, with the rationals as
        "p/q" strings and missing ratios as null.  The rows have a fixed
        schema (ints, and ratios written from their integers), so each is
        one f-string; the small target goes through ``json.dumps`` and is
        indented one level.
        """
        levels = ",".join(f"\n    {m}" for m in self.levels)
        texts = _ratio_texts(self.per_level, "null", '"')
        rows = ",".join(f"""
    {{
      "m": {st.m},
      "N_m": {st.N_m},
      "TS_m": {st.TS_m},
      "TS0_m": {st.TS0_m},
      "S_m": {S},
      "Sp_m": {Sp},
      "Spp_m": {Spp},
      "lammax_m": {lam},
      "count_gamma": {st.count_gamma}
    }}""" for st, (S, Sp, Spp, lam) in zip(self.per_level, texts))
        target = json.dumps({k: None if v is None else str(v) for k, v in self.target.items()},
                            indent=2).replace("\n", "\n  ")
        return (f'{{\n  "levels": {_json_list(levels)},\n  "rows": {_json_list(rows)},\n'
                f'  "target": {target}\n}}')


def _json_list(items):
    """A list of pre-indented items at depth one, as json.dumps(indent=2) closes it."""
    return f"[{items}\n  ]" if items else "[]"


def _levels(levels):
    """The levels sorted and distinct.  A range with a positive step already
    is, and stays a range, so that a long one is never listed before the
    lattice budget has been checked."""
    if isinstance(levels, range) and levels.step > 0:
        if not levels or levels.start < 1:
            raise EmptyInput("levels must be positive integers")
        return levels
    levels = list(levels)
    if not levels or not all(isinstance(m, int) and not isinstance(m, bool) and m >= 1
                             for m in levels):
        raise EmptyInput("levels must be positive integers")
    return sorted(set(levels))


def _per_level(s, levels, counts, eq_counts, sums_ord, maxs):
    """The rows at ``levels`` from the per-shell point counts, counts at
    integer weight, order sums and order maxima of the shells below the top
    level, each a list indexed by shell."""
    Ns, TS0s, TSs = (list(accumulate(x, initial=0)) for x in
                     (counts, [k * c for k, c in enumerate(counts)], sums_ord))
    lams = list(accumulate(maxs, max, initial=0))
    return [LevelStats(m, Ns[m], TSs[m], TS0s[m], Ns[m] + eq_counts[m], sums_ord[m],
                       m * counts[m], lams[m], s.rank) for m in levels]


def _target(s, x, L, F):
    """The closed forms a sweep's statistics converge to, at xi0 = x / L."""
    key = (s.weight_cone, x, L, *_rows(s, F))
    return {"S": _s_closed_cached(*key), "lambda_max": _lambda_max_cached(*key),
            "vol": _vol_cached(s.weight_cone, x, L)}


def sweep(s: ConeSingularity, xi0, F: MonomialFiltration, levels,
          budget=None) -> EstimatorSweep:
    """Exact counting statistics of F at the given weight levels.

    Monomials form a basis compatible with every monomial filtration at
    once, so orders are read off pointwise; orders use the integer rounding
    floor(g), which leaves the S-limit unchanged.  No point is built: every
    level comes from one walk over F's chamber cones (``fan._shell_sums``).
    """
    (x, L), levels = _xi_row(xi0, s.rank), _levels(levels)
    target = _target(s, x, L, F)  # checks F's ambient before any enumeration
    per_level = _per_level(s, levels, *_shell_sums(s.weight_cone, *_rows(s, F), x, L,
                                                   levels[-1] + 1, _checked_budget(budget)))
    return EstimatorSweep(levels=list(levels), per_level=per_level, target=target)


def sweep_approx(s: ConeSingularity, xi0, F: MonomialFiltration,
                 m_filtration: int, levels, budget=None) -> EstimatorSweep:
    """Sweep of the degree-m approximating filtration of F.

    The orders are read off F's approximation table on the window
    <ell, .> <= W, with ell = sigma's interior point and W the largest
    floor(<ell, r> (top L - 1) / <x, r>) over the weight-cone rays r
    (xi0 = x / L): the vertex bound of the slice <x, .> <= top L - 1, so
    the window holds every point below the top level.  Along each of the
    table's runs <x, .> rises, so its points below the top are a head of
    the run, whose orders are one slice of the table's; they are binned by
    shell <x, p> // L.  The budget counts the
    window's points: on a skinny cone W exceeds the largest <ell, .> of a
    point below the top, and a budget between the two windows' point
    counts raises although the points up to that largest value fit it.
    Statistics are pointwise below those of the sweep of F and close the
    gap once the level exceeds the generation degree.
    """
    key = _approx_key(F, m_filtration)
    (x, L), levels = _xi_row(xi0, s.rank), _levels(levels)
    budget = _checked_budget(budget)
    target = {**_target(s, x, L, F), "m_filtration": Fraction(m_filtration)}
    top = levels[-1] + 1
    limit = top * L
    ell = s.sigma.interior_point()
    window = max(sum(map(mul, ell, r)) * (limit - 1) // sum(map(mul, x, r))
                 for r in s.weight_cone.rays)
    counts, eq_counts, sums_ord, maxs = ([0] * top for _ in range(4))
    table = _approx_table(F, key, window, budget)
    for p, r, k, start in table.runs:
        w, X = sum(map(mul, x, p)), sum(map(mul, x, r))
        n = min(k, (limit - 1 - w) // X + 1)  # n <= 0: the run starts at or above the top
        for o in table.orders[start:start + max(n, 0)]:
            k, rem = divmod(w, L)
            counts[k] += 1
            eq_counts[k] += not rem
            sums_ord[k] += o
            if o > maxs[k]:
                maxs[k] = o
            w += X
    per_level = _per_level(s, levels, counts, eq_counts, sums_ord, maxs)
    return EstimatorSweep(levels=list(levels), per_level=per_level, target=target)


class SemigroupSample(NamedTuple):
    """Finite slice of the graded value semigroup of a filtration level.

    ``cloud``, the points divided by m, is a list of Fraction tuples built
    on read.
    """

    m: int
    t: Fraction
    points: list

    cloud = property(lambda g: [tuple(Fraction(a, g.m) for a in p) for p in g.points])


def gamma_semigroup(s: ConeSingularity, xi0, F: MonomialFiltration,
                    m: int, t, budget=None) -> SemigroupSample:
    """Lattice points of weight <= m whose order reaches m*t, sorted.

    The budget counts the points <x, .> < m L + 1 (xi0 = x / L), read as
    ``fan._runs`` over F's chamber cones.  On chamber j, g = <z_j, .> / den
    and <z_j, r> >= 0 along a run p + i r: one division finds its kept tail.
    """
    _levels([m])
    x, L = _xi_row(xi0, s.rank)
    t = frac(t)
    zs, den = _rows(s, F)
    budget, wc, keep = _checked_budget(budget), s.weight_cone, []
    # g(p) >= m t in integers: <z_j, p> td >= den m tn, with t = tn / td.
    td, bound, cones = t.denominator, den * m * t.numerator, _chamber_cones(wc, zs)
    for (z, _), runs in zip(cones, _runs(wc, [tau for _, tau in cones], x, m * L + 1, budget)):
        for p, r, k in runs:
            a, b = sum(map(mul, z, p)) * td - bound, sum(map(mul, z, r)) * td
            i = 0 if a >= 0 else min(k, -(a // b)) if b else k  # the first kept index
            keep += zip(*(range(c + i * e, c + k * e, e) if e else repeat(c, k - i)
                          for c, e in zip(p, r)))
    keep.sort()
    return SemigroupSample(m=m, t=t, points=keep)


def bj_bound_check(s: ConeSingularity, xi0, F: MonomialFiltration,
                   eps, m0: int, levels=None) -> bool:
    """Do all levels m >= m0 in the window satisfy S''_m <= (1+eps) S?"""
    if not isinstance(m0, int) or isinstance(m0, bool) or m0 < 1:
        raise EmptyInput(f"m0 must be a positive integer, got {m0!r}")
    eps = frac(eps)
    if eps <= 0:
        raise EmptyInput("eps must be positive")
    if levels is None:
        levels = range(m0, m0 + 25)
    levels = [m for m in levels if m >= m0]
    if not levels:
        return True
    sw = sweep(s, xi0, F, levels)
    bound = (1 + eps) * sw.target["S"]  # S''_m <= p/q, in integers
    p, q, n = bound.numerator, bound.denominator, s.rank
    return all((n + 1) * st.TS_m * q <= p * n * st.m * st.N_m for st in sw.per_level)


class GoodValuationReport(NamedTuple):
    r0: Fraction
    generators: list


def good_valuation_check(s: ConeSingularity, xi0, budget=None) -> GoodValuationReport:
    """Certify the exponent valuation of the singularity as a good one.

    For the grading functional ell = <., xi0>, which must be strictly
    positive on the weight cone (else UnboundedSlice, as for every xi0
    entry), returns (r0, generators): the irreducible generators of the
    weight semigroup and the certified constant r0 = 1 / max generator
    weight of the vertex-order bound ord_m(x^a) >= r0 * ell(a).  Monomial
    leaves are one-dimensional for an exponent valuation, and the lattice
    points of the full-dimensional weight cone generate the full lattice
    (they hold an interior point p and every p + e_i), so neither needs a
    check.  The generators lie among the rays and the start points, which
    the budget counts, of the half-open parallelepipeds of ``cone_fan``
    (Bruns and Ichim, J. Algebra 324, 2010).  By increasing weight, p is
    kept unless its facet pairings are all at least a kept q's; such a q
    vanishes on every facet p vanishes on, a bitmask tested first.
    """
    x, L = _xi_row(xi0, s.rank)  # <xi0, .> = <x, .> / L
    wc = s.weight_cone
    budget, spent, fan, found = _checked_budget(budget), 0, cone_fan(wc), set(wc.rays)
    for _, tau in fan.simplices:
        rays = tuple(fan.rays[i] for i in tau)
        starts = _starts(wc, rays, x, 1, sum(sum(map(mul, x, r)) for r in rays) + 1, budget, spent)
        if (spent := spent + len(starts)) > budget:  # a stored list is read uncounted
            raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
        found.update(p for _, p in starts if any(p))
    kept = []  # (weight, facet pairings, zero-facet bits, point), by increasing weight
    for w, p in sorted((sum(map(mul, x, p)), p) for p in found):
        h = [sum(map(mul, n, p)) for n in wc.halfspaces]
        z = sum(1 << i for i, a in enumerate(h) if not a)
        if not any(zq & z == z and all(map(ge, h, hq)) for _, hq, zq, _ in kept):
            kept.append((w, h, z, p))
    return GoodValuationReport(r0=Fraction(L, kept[-1][0]), generators=sorted(p for *_, p in kept))
