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
orders of ``sweep_approx`` are DP values, so it reads a cached table of
lattice runs instead: a run's residue classes of the grading denominator
fill strided slices of shells, counted by +1/-1 pairs in strided
difference arrays, and the pass adds its orders onto them.  A row holds
integers only; its ratios are Fractions built on read, and the CSV and
JSON writers print them from the integers.
"""

import json
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .errors import BudgetExceeded, EmptyInput, LatticeNotGenerated
from .exactgeom import frac, lattice_points_below
from .exactgeom.fan import _shell_sums
from .exactgeom.lattice import _checked_budget, _lattice_runs, _TableCache
from .exactgeom.linalg import smith_diagonal
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


class _ShellTable(NamedTuple):
    """The filtration-independent part of ``sweep_approx`` below level ``top``."""

    runs: tuple       # (prefix, lo, hi, classes): (orders slice, shell slice) pairs
    counts: list      # index k < top: points in shell k
    eq_counts: list   # index k < top: points with <xi0, a> = k exactly


def _build_shell_table(wc, xs, den, top, budget):
    """Runs, shell slices and counts of the lattice below ``top``.

    Along a run the integer weight <xi0 den, a> is w0 + X t.  Within one
    residue class of t mod den the floor weight steps by exactly X and the
    test "weight is an integer" does not change, so the counts of a class
    are one +1/-1 pair in a difference array of stride |X|, and its orders
    land on one strided slice of shells (only shells up to top + 1 are
    stored).  When X = 0 a run sits in one shell, and each point is a class
    of its own, of stride 1.
    """
    runs = _lattice_runs(wc, xs, top * den, budget, True)
    *xs, X = xs  # integer weights <xi0 den, a>
    step = abs(X) or 1
    # Difference arrays: a class's -1 lands one stride past its last shell.
    counts = [0] * (top + 2)
    eq_counts = [0] * (top + 2)
    table = []
    for prefix, lo, hi in runs:
        w0 = sum(map(mul, xs, prefix))
        period = den if X else hi - lo + 1
        classes = []
        for r in range(min(period, hi - lo + 1)):
            fw, rem = divmod(w0 + X * (lo + r), den)
            k = (hi - lo - r) // period + 1
            src = slice(r, None, period)
            if X < 0:  # walk the class from its lowest shell up
                fw += X * (k - 1)
                src = slice(r + den * (k - 1), r - 1 if r else None, -den)
            end = fw + step * k
            for diffs in (counts,) if rem else (counts, eq_counts):
                diffs[fw] += 1
                if end <= top + 1:
                    diffs[end] -= 1
            classes.append((src, slice(fw, end, step)))
        table.append((prefix, lo, hi, tuple(classes)))
    for r in range(min(step, top + 2)):  # prefix sums of stride |X| turn differences into counts
        counts[r::step] = accumulate(counts[r::step])
        eq_counts[r::step] = accumulate(eq_counts[r::step])
    return _ShellTable(runs=tuple(table), counts=counts[:top], eq_counts=eq_counts[:top])


# Shell tables, keyed on (weight cone, x, L, top): at most _TABLES of them,
# holding at most _TABLE_ENTRIES runs and shells together.  A larger table
# is built for its sweep and dropped after it.
_TABLES = 8
_TABLE_ENTRIES = 1 << 16
_shell_table = _TableCache(_TABLES, _TABLE_ENTRIES,
                          lambda table: len(table.runs) + len(table.counts))


def _aggregate(s, table, levels, run_orders):
    """The per-filtration pass over a shell table: ``run_orders(prefix, lo,
    hi)`` lists the orders along one run, which go onto its shell slices."""
    sums_ord = [0] * len(table.counts)
    maxs = [0] * len(table.counts)
    for prefix, lo, hi, classes in table.runs:
        orders = run_orders(prefix, lo, hi)
        for src, dst in classes:
            os = orders[src]
            sums_ord[dst] = map(add, sums_ord[dst], os)
            maxs[dst] = [o if o > m else m for m, o in zip(maxs[dst], os)]
    return _per_level(s, levels, table.counts, table.eq_counts, sums_ord, maxs)


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

    The orders along each run of the cached shell table of (weight cone,
    xi0, top level) are a slice of one run of F's approximation table,
    whose reference-weight window holds every point below the top level.
    Statistics are pointwise below those of the sweep of F and close the
    gap once the level exceeds the generation degree.
    """
    key = _approx_key(F, m_filtration)
    (x, L), levels = _xi_row(xi0, s.rank), _levels(levels)
    budget = _checked_budget(budget)
    target = {**_target(s, x, L, F), "m_filtration": Fraction(m_filtration)}
    tkey = (s.weight_cone, x, L, levels[-1] + 1)
    table = _shell_table.get(tkey)
    if table is None:  # enumerated under the budget, and stored only when complete
        table = _shell_table.put(tkey, _build_shell_table(*tkey, budget))
    if sum(table.counts) > budget:  # a hit raises what an enumeration would
        raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
    ell = s.sigma.interior_point()
    # <ell, .> is linear along a run, so its largest value sits at an end.
    wmax = max(sum(map(mul, ell, p)) + max(ell[-1] * lo, ell[-1] * hi)
               for p, lo, hi, _ in table.runs)
    runs = _approx_table(F, key, wmax, budget).runs

    def run_orders(prefix, lo, hi):
        start, orders = runs[prefix]
        return orders[lo - start:hi - start + 1]
    per_level = _aggregate(s, table, levels, run_orders)
    return EstimatorSweep(levels=list(levels), per_level=per_level, target=target)


class SemigroupSample(NamedTuple):
    """Finite slice of the graded value semigroup of a filtration level."""

    m: int
    t: Fraction
    points: list
    cloud: list  # points divided by m

    def verify_origin_level(self, s, xi0) -> bool:
        """Level zero of the graded semigroup holds only the origin."""
        zero_level = lattice_points_below(s.weight_cone, _xi_row(xi0, s.rank)[0], 0,
                                          strict=False)
        return zero_level == [tuple(0 for _ in range(s.rank))]

    def verify_closure(self, s, xi0, F, limit=200) -> bool:
        """Sampled additive closure: sums of members land in the level-2m slice."""
        x, L = _xi_row(xi0, s.rank)
        _rows(s, F)  # F must be over s
        checked = 0
        for i, p in enumerate(self.points):
            for q in self.points[i:]:
                total = tuple(a + b for a, b in zip(p, q))
                if sum(map(mul, x, total)) > 2 * self.m * L:
                    return False
                if F.ord(total) < 2 * self.m * self.t:
                    return False
                checked += 1
                if checked >= limit:
                    return True
        return True


def gamma_semigroup(s: ConeSingularity, xi0, F: MonomialFiltration,
                    m: int, t, budget=None) -> SemigroupSample:
    """Lattice points of weight <= m whose order reaches m*t."""
    _levels([m])
    x, L = _xi_row(xi0, s.rank)
    t = frac(t)
    zs, den = _rows(s, F)
    pts = lattice_points_below(s.weight_cone, x, m * L, strict=False, budget=budget)
    # g(p) >= m t in integers: g = min_j <zs_j, .> / den and t = tn / td.
    td, bound = t.denominator, den * m * t.numerator
    keep = [p for p in pts if min(sum(map(mul, z, p)) for z in zs) * td >= bound]
    cloud = [tuple(Fraction(x, m) for x in p) for p in keep]
    return SemigroupSample(m=m, t=t, points=keep, cloud=cloud)


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
    ok: bool
    r0: Fraction
    ell: tuple
    generators: list
    snf_diagonal: list

    def __bool__(self):
        return self.ok


def good_valuation_check(s: ConeSingularity, xi0) -> GoodValuationReport:
    """Verify the exponent valuation of the singularity is a good one.

    Checks, for the grading functional ell = <., xi0>: monomial leaves are
    one-dimensional (automatic for an exponent valuation); the weight
    semigroup generates the full lattice (Smith normal form of an
    irreducible generating set); ell is strictly positive on the weight
    cone; and the vertex-order bound ord_m(x^a) >= r0 * ell(a) with the
    certified constant r0 = 1 / max generator weight.
    """
    x, L = _xi_row(xi0, s.rank)  # <xi0, .> = <x, .> / L
    wc = s.weight_cone
    for r in wc.rays:
        if sum(map(mul, x, r)) <= 0:
            raise LatticeNotGenerated("grading functional vanishes on the weight cone")
    # Generators inside the zonotope bound of Gordan's lemma.
    bound = sum(sum(map(mul, x, r)) for r in wc.rays)
    pts = lattice_points_below(wc, x, bound, strict=False)
    nonzero = [p for p in pts if any(x != 0 for x in p)]
    members = set(nonzero)
    # Irreducible: p - q is not a nonzero member for any nonzero member q.
    gens = [p for p in nonzero if not any(tuple(map(sub, p, q)) in members for q in nonzero)]
    diag = smith_diagonal(gens)
    if diag != [1] * s.rank:
        raise LatticeNotGenerated(
            f"weight semigroup generates a proper sublattice (SNF {diag})")
    r0 = Fraction(L, max(sum(map(mul, x, g)) for g in gens))
    return GoodValuationReport(ok=True, r0=r0, ell=tuple(Fraction(a, L) for a in x),
                               generators=sorted(gens), snf_diagonal=diag)
