"""Finite-level lattice estimators for the asymptotic invariants.

A sweep enumerates the monomial basis below each weight level, reads off
orders under the integer-rounded filtration, and aggregates the counting
statistics whose limits are the closed-form invariants: N_m against the
volume, the order sums against S, the per-level maxima against the top
slope.  Everything is exact rational bookkeeping; "estimation" refers only
to the finiteness of the level, never to sampling.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import floor, lcm
from operator import mul

from .errors import EmptyInput, LatticeNotGenerated
from .exactgeom import dot, frac, lattice_points_below, vec
from .filtration import MonomialFiltration, _reference_level
from .invariants import lambda_max_closed, s_closed, vol
from .singularity import ConeSingularity, ReebVector

CSV_HEADER = ["m", "N_m", "TS_m", "S_m", "Sp_m", "Spp_m", "lammax_m"]


def _xi(x):
    return x.xi if isinstance(x, ReebVector) else vec(x)


@dataclass
class LevelStats:
    m: int
    N_m: int
    TS_m: int          # order sum of F over the basis below level m
    TS0_m: int         # order sum of the reference filtration itself
    S_m: Fraction | None
    Sp_m: Fraction | None
    Spp_m: Fraction
    lammax_m: Fraction  # top order seen below level m, divided by m
    count_gamma: int    # points at weight <= m


@dataclass
class EstimatorSweep:
    levels: list
    per_level: list
    target: dict = field(default_factory=dict)

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
                "" if st.S_m is None else str(Fraction(st.S_m)),
                "" if st.Sp_m is None else str(Fraction(st.Sp_m)),
                str(Fraction(st.Spp_m)),
                str(Fraction(st.lammax_m)),
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        def enc(x):
            return None if x is None else str(Fraction(x))
        rows = [{
            "m": st.m, "N_m": st.N_m, "TS_m": st.TS_m, "TS0_m": st.TS0_m,
            "S_m": enc(st.S_m), "Sp_m": enc(st.Sp_m), "Spp_m": enc(st.Spp_m),
            "lammax_m": enc(st.lammax_m), "count_gamma": st.count_gamma,
        } for st in self.per_level]
        return json.dumps({"levels": self.levels, "rows": rows,
                           "target": {k: enc(v) for k, v in self.target.items()}},
                          indent=2)


def _aggregate(s, xi0, levels, order_of, budget=None):
    """Shared accumulation: bucket points by floor weight, prefix-sum."""
    xi0 = _xi(xi0)
    levels = sorted(set(int(m) for m in levels))
    if not levels or levels[0] < 1:
        raise EmptyInput("levels must be positive integers")
    top = levels[-1] + 1  # S'_m at the last level needs one extra shell
    pts = lattice_points_below(s.weight_cone, xi0, top, budget=budget)
    den = lcm(*(x.denominator for x in xi0))
    xs = [int(x * den) for x in xi0]  # integer weights <xi0 den, a>
    counts = [0] * (top + 1)
    sums_ord = [0] * (top + 1)
    maxs = [0] * (top + 1)
    eq_counts = [0] * (top + 2)
    for a in pts:
        wi = sum(map(mul, xs, a))
        fw = wi // den
        o = order_of(a)
        counts[fw] += 1
        sums_ord[fw] += o
        if o > maxs[fw]:
            maxs[fw] = o
        if wi == fw * den:
            eq_counts[fw] += 1
    # Index m of each prefix array aggregates the shells below level m.
    Ns, TSs, TS0s = (list(accumulate(x, initial=0)) for x in
                     (counts, sums_ord, [fw * c for fw, c in enumerate(counts)]))
    lams = list(accumulate(maxs, max, initial=0))

    per_level = []
    for m in levels:
        N, TS, TS0, TS1, TS01 = Ns[m], TSs[m], TS0s[m], TSs[m + 1], TS0s[m + 1]
        S_m = Fraction(TS, TS0) if TS0 else None
        Sp = Fraction(TS1 - TS, TS01 - TS0) if TS01 > TS0 else None
        Spp = Fraction(s.rank + 1, s.rank) * Fraction(TS, m * N)
        per_level.append(LevelStats(
            m=m, N_m=N, TS_m=TS, TS0_m=TS0, S_m=S_m, Sp_m=Sp, Spp_m=Spp,
            lammax_m=Fraction(lams[m], m),
            count_gamma=N + eq_counts[m],
        ))
    return levels, per_level


def sweep(s: ConeSingularity, xi0, F: MonomialFiltration, levels,
          budget=None) -> EstimatorSweep:
    """Exact counting statistics of F at the given weight levels.

    Monomials form a basis compatible with every monomial filtration at
    once, so orders are read off pointwise; orders use the integer rounding
    floor(g), which leaves the S-limit unchanged.
    """
    den = lcm(*(x.denominator for z in F.covectors for x in z))
    zs = [[int(x * den) for x in z] for z in F.covectors]
    levels, per_level = _aggregate(
        s, xi0, levels, lambda a: min(sum(map(mul, z, a)) for z in zs) // den,
        budget=budget)
    target = {
        "S": s_closed(s, xi0, F),
        "lambda_max": lambda_max_closed(s, xi0, F),
        "vol": vol(s, xi0),
    }
    return EstimatorSweep(levels=levels, per_level=per_level, target=target)


def _dp_orders(F: MonomialFiltration, m: int, pts, ell):
    """Orders of every enumerated point under the degree-m approximation."""
    pts = sorted(pts, key=lambda p: (dot(ell, p), p))
    best = {}
    order = []
    for p in pts:
        if all(x == 0 for x in p):
            best[p] = 0
            order.append(p)
            continue
        value = min(floor(F.ord(p)), m)
        wp = dot(ell, p)
        for q in order:
            if all(x == 0 for x in q):
                continue
            if dot(ell, q) > wp:
                break
            rest = tuple(a - b for a, b in zip(p, q))
            prev = best.get(rest)
            if prev is not None:
                cand = min(floor(F.ord(q)), m) + prev
                if cand > value:
                    value = cand
        best[p] = value
        order.append(p)
    return best


def sweep_approx(s: ConeSingularity, xi0, F: MonomialFiltration,
                 m_filtration: int, levels, budget=None) -> EstimatorSweep:
    """Sweep of the degree-m approximating filtration of F.

    Orders come from the block-decomposition dynamic program; statistics
    are pointwise below those of the sweep of F and close the gap once the
    level exceeds the generation degree.
    """
    if m_filtration < 1:
        raise EmptyInput("approximation level must be >= 1")
    xi0v = _xi(xi0)
    levels_sorted = sorted(set(int(m) for m in levels))
    if not levels_sorted or levels_sorted[0] < 1:
        raise EmptyInput("levels must be positive integers")
    ell = _reference_level(s)
    # One DP over the widest window that the aggregation will touch.
    top = levels_sorted[-1] + 1
    pts = lattice_points_below(s.weight_cone, xi0v, top, budget=budget)
    wmax = max((dot(ell, p) for p in pts), default=Fraction(0))
    window = lattice_points_below(s.weight_cone, ell, wmax, strict=False,
                                  budget=budget)
    orders = _dp_orders(F, m_filtration, window, ell)
    levels_out, per_level = _aggregate(s, xi0, levels, lambda a: orders[tuple(a)],
                                       budget=budget)
    target = {
        "S": s_closed(s, xi0, F),
        "lambda_max": lambda_max_closed(s, xi0, F),
        "vol": vol(s, xi0),
        "m_filtration": Fraction(m_filtration),
    }
    return EstimatorSweep(levels=levels_out, per_level=per_level, target=target)


@dataclass
class SemigroupSample:
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


@dataclass
class GoodValuationReport:
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
    gens = []
    for p in nonzero:  # irreducible = not a sum of two nonzero members
        reducible = False
        for q in nonzero:
            rest = tuple(a - b for a, b in zip(p, q))
            if rest != p and rest in members and any(x != 0 for x in rest):
                reducible = True
                break
        if not reducible:
            gens.append(p)
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(Matrix(gens))
    diag = [int(snf[i, i]) for i in range(min(snf.shape))]
    ok = len(diag) == s.rank and all(abs(d) == 1 for d in diag)
    if not ok:
        raise LatticeNotGenerated(
            f"weight semigroup generates a proper sublattice (SNF {diag})")
    wmax = max(dot(xi0, g) for g in gens)
    r0 = Fraction(1) / wmax
    return GoodValuationReport(ok=True, r0=r0, ell=tuple(xi0),
                               generators=sorted(gens), snf_diagonal=diag)
