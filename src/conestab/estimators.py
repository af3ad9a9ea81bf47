"""Finite-level lattice estimators for the asymptotic invariants.

A sweep enumerates the monomial basis below each weight level, reads off
orders under the integer-rounded filtration, and aggregates the counting
statistics whose limits are the closed-form invariants: N_m against the
volume, the order sums against S, the per-level maxima against the top
slope.  Everything is exact rational bookkeeping; "estimation" refers only
to the finiteness of the level, never to sampling.

The basis comes as lattice runs, a prefix with a range of the last
coordinate.  Along a run the weights step linearly and the orders are
integers.  Split by residue class of the grading denominator, a run adds
its counts to the weight shells as one +1/-1 pair in a strided difference
array; only its order sums and maxima are updated per point, by slices.
"""

import csv
import io
import json
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .errors import EmptyInput, LatticeNotGenerated
from .exactgeom import dot, frac, lattice_points_below
from .exactgeom.lattice import _lattice_runs
from .exactgeom.linalg import _integer_row, smith_diagonal
from .filtration import MonomialFiltration, _floor_run_orders, approx_orders
from .invariants import lambda_max_closed, s_closed, vol
from .singularity import ConeSingularity, _xi

CSV_HEADER = ["m", "N_m", "TS_m", "S_m", "Sp_m", "Spp_m", "lammax_m"]


class LevelStats(NamedTuple):
    m: int
    N_m: int
    TS_m: int          # order sum of F over the basis below level m
    TS0_m: int         # order sum of the reference filtration itself
    S_m: Fraction | None
    Sp_m: Fraction | None
    Spp_m: Fraction
    lammax_m: Fraction  # top order seen below level m, divided by m
    count_gamma: int    # points at weight <= m


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
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_HEADER)
        for st in self.per_level:
            w.writerow([
                st.m, st.N_m, st.TS_m,
                "" if st.S_m is None else str(st.S_m),
                "" if st.Sp_m is None else str(st.Sp_m),
                str(st.Spp_m),
                str(st.lammax_m),
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        """{"levels", "rows", "target"}, byte for byte what
        ``json.dumps(..., indent=2)`` writes for it, with the rationals as
        "p/q" strings and missing ratios as null.  The rows have a fixed
        schema (ints, rationals and None), so each is one f-string; the
        small target goes through ``json.dumps`` and is indented one level.
        """
        def q(x):
            return "null" if x is None else f'"{x}"'
        levels = ",".join(f"\n    {m}" for m in self.levels)
        rows = ",".join(f"""
    {{
      "m": {st.m},
      "N_m": {st.N_m},
      "TS_m": {st.TS_m},
      "TS0_m": {st.TS0_m},
      "S_m": {q(st.S_m)},
      "Sp_m": {q(st.Sp_m)},
      "Spp_m": {q(st.Spp_m)},
      "lammax_m": {q(st.lammax_m)},
      "count_gamma": {st.count_gamma}
    }}""" for st in self.per_level)
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


def _aggregate(s, xi0, levels, runs, run_orders):
    """Shared accumulation: bucket points by floor weight, prefix-sum.

    ``runs`` are the lattice runs (prefix, lo, hi) below level
    max(levels) + 1 of xi0, and ``run_orders(prefix, lo, hi)`` lists the
    orders along one run.  Along a run the integer weight <xi0 den, a> is
    w0 + X t.  Within one residue class of t mod den the floor weight steps
    by exactly X and the test "weight is an integer" does not change, so
    the counts of a class are one +1/-1 pair in a difference array of
    stride |X|; only its order sums and maxima take a strided slice each.
    """
    top = levels[-1] + 1  # S'_m at the last level needs one extra shell
    (*xs, X), den = _integer_row(xi0)  # integer weights <xi0 den, a>
    step = abs(X)
    # Difference arrays: the -1 of a class lands one stride past its last shell.
    counts = [0] * (top + 1 + step)
    eq_counts = [0] * (top + 1 + step)
    sums_ord = [0] * (top + 1)
    maxs = [0] * (top + 1)
    for prefix, lo, hi in runs:
        orders = run_orders(prefix, lo, hi)
        w0 = sum(map(mul, xs, prefix))
        for r in range(min(den, hi - lo + 1)):
            fw, rem = divmod(w0 + X * (lo + r), den)
            os = orders[r::den]
            k = len(os)
            if X == 0:  # the whole class sits in one shell
                counts[fw] += k
                sums_ord[fw] += sum(os)
                maxs[fw] = max(maxs[fw], *os)
                if not rem:
                    eq_counts[fw] += k
                continue
            if X < 0:  # walk the class from its lowest shell up
                fw += X * (k - 1)
                os.reverse()
            end = fw + step * k
            for diffs in (counts,) if rem else (counts, eq_counts):
                diffs[fw] += 1
                diffs[end] -= 1
            sl = slice(fw, end, step)
            sums_ord[sl] = map(add, sums_ord[sl], os)
            maxs[sl] = [o if o > m else m for m, o in zip(maxs[sl], os)]
    for r in range(step):  # prefix sums of stride |X| turn differences into counts
        counts[r::step] = accumulate(counts[r::step])
        eq_counts[r::step] = accumulate(eq_counts[r::step])
    # Index m of each prefix array aggregates the shells below level m.
    Ns, TSs, TS0s = (list(accumulate(x, initial=0)) for x in
                     (counts, sums_ord, [fw * c for fw, c in enumerate(counts)]))
    lams = list(accumulate(maxs, max, initial=0))

    per_level = []
    for m in levels:
        N, TS, TS0, TS1, TS01 = Ns[m], TSs[m], TS0s[m], TSs[m + 1], TS0s[m + 1]
        S_m = Fraction(TS, TS0) if TS0 else None
        Sp = Fraction(TS1 - TS, TS01 - TS0) if TS01 > TS0 else None
        per_level.append(LevelStats(
            m=m, N_m=N, TS_m=TS, TS0_m=TS0, S_m=S_m, Sp_m=Sp,
            Spp_m=Fraction((s.rank + 1) * TS, s.rank * m * N),
            lammax_m=Fraction(lams[m], m),
            count_gamma=N + eq_counts[m],
        ))
    return per_level


def _target(s, xi0, F):
    """The closed forms a sweep's statistics converge to."""
    return {"S": s_closed(s, xi0, F), "lambda_max": lambda_max_closed(s, xi0, F),
            "vol": vol(s, xi0)}


def sweep(s: ConeSingularity, xi0, F: MonomialFiltration, levels,
          budget=None) -> EstimatorSweep:
    """Exact counting statistics of F at the given weight levels.

    Monomials form a basis compatible with every monomial filtration at
    once, so orders are read off pointwise; orders use the integer rounding
    floor(g), which leaves the S-limit unchanged.  The points are never
    built: orders and shells are computed a lattice run at a time.
    """
    xi0, levels = _xi(xi0), _levels(levels)
    runs = _lattice_runs(s.weight_cone, xi0, levels[-1] + 1, budget, True)
    per_level = _aggregate(s, xi0, levels, runs, _floor_run_orders(F))
    return EstimatorSweep(levels=list(levels), per_level=per_level, target=_target(s, xi0, F))


def sweep_approx(s: ConeSingularity, xi0, F: MonomialFiltration,
                 m_filtration: int, levels, budget=None) -> EstimatorSweep:
    """Sweep of the degree-m approximating filtration of F.

    The points below the top level are enumerated once; their orders come
    from one approx_orders pass over the reference-weight window that
    holds them all.  Statistics are pointwise below those of the sweep of
    F and close the gap once the level exceeds the generation degree.
    """
    if m_filtration < 1:
        raise EmptyInput("approximation level must be >= 1")
    xi0, levels = _xi(xi0), _levels(levels)
    runs = _lattice_runs(s.weight_cone, xi0, levels[-1] + 1, budget, True)
    ell = s.sigma.interior_point()
    # <ell, .> is linear along a run, so its largest value sits at an end.
    wmax = max(sum(map(mul, ell, p)) + max(ell[-1] * lo, ell[-1] * hi) for p, lo, hi in runs)
    window = lattice_points_below(s.weight_cone, ell, wmax, strict=False, budget=budget)
    orders = approx_orders(F, m_filtration, window)
    per_level = _aggregate(s, xi0, levels, runs, lambda p, lo, hi: [
        orders[p + (t,)] for t in range(lo, hi + 1)])
    target = {**_target(s, xi0, F), "m_filtration": Fraction(m_filtration)}
    return EstimatorSweep(levels=list(levels), per_level=per_level, target=target)


class SemigroupSample(NamedTuple):
    """Finite slice of the graded value semigroup of a filtration level."""

    m: int
    t: Fraction
    points: list
    cloud: list  # points divided by m

    def verify_origin_level(self, s, xi0) -> bool:
        """Level zero of the graded semigroup holds only the origin."""
        xi0 = _xi(xi0)
        zero_level = lattice_points_below(s.weight_cone, xi0, 0, strict=False)
        return zero_level == [tuple(0 for _ in range(s.rank))]

    def verify_closure(self, s, xi0, F, limit=200) -> bool:
        """Sampled additive closure: sums of members land in the level-2m slice."""
        xi0 = _xi(xi0)
        checked = 0
        for i, p in enumerate(self.points):
            for q in self.points[i:]:
                total = tuple(a + b for a, b in zip(p, q))
                if dot(xi0, total) > 2 * self.m:
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
    if m < 1:
        raise EmptyInput("levels must be positive integers")
    xi0 = _xi(xi0)
    t = frac(t)
    pts = lattice_points_below(s.weight_cone, xi0, m, strict=False, budget=budget)
    keep = [p for p in pts if F.ord(p) >= m * t]
    cloud = [tuple(Fraction(x, m) for x in p) for p in keep]
    return SemigroupSample(m=m, t=t, points=keep, cloud=cloud)


def bj_bound_check(s: ConeSingularity, xi0, F: MonomialFiltration,
                   eps, m0: int, levels=None) -> bool:
    """Do all levels m >= m0 in the window satisfy S''_m <= (1+eps) S?"""
    eps = frac(eps)
    if eps <= 0:
        raise EmptyInput("eps must be positive")
    if levels is None:
        levels = range(m0, m0 + 25)
    levels = [m for m in levels if m >= m0]
    if not levels:
        return True
    sw = sweep(s, xi0, F, levels)
    bound = (1 + eps) * sw.target["S"]
    return all(st.Spp_m <= bound for st in sw.per_level)


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
    xi0 = _xi(xi0)
    wc = s.weight_cone
    for r in wc.rays:
        if dot(xi0, r) <= 0:
            raise LatticeNotGenerated("grading functional vanishes on the weight cone")
    # Generators inside the zonotope bound of Gordan's lemma.
    bound = sum(dot(xi0, r) for r in wc.rays)
    pts = lattice_points_below(wc, xi0, bound, strict=False)
    nonzero = [p for p in pts if any(x != 0 for x in p)]
    members = set(nonzero)
    # Irreducible: p - q is not a nonzero member for any nonzero member q.
    gens = [p for p in nonzero if not any(tuple(map(sub, p, q)) in members for q in nonzero)]
    diag = smith_diagonal(gens)
    if diag != [1] * s.rank:
        raise LatticeNotGenerated(
            f"weight semigroup generates a proper sublattice (SNF {diag})")
    wmax = max(dot(xi0, g) for g in gens)
    r0 = Fraction(1) / wmax
    return GoodValuationReport(ok=True, r0=r0, ell=tuple(xi0),
                               generators=sorted(gens), snf_diagonal=diag)
