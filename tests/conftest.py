import csv
import io
import json
import random
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import ceil, factorial, floor, gcd, lcm
from operator import mul, sub
from types import MappingProxyType
from typing import NamedTuple

import pytest

from conestab import estimators, from_rays, monomial_filtration, toric_filtration
from conestab.errors import DegenerateCone
from conestab.exactgeom import dot, slice_polytope
from conestab.exactgeom.cone import Cone, _distinct, _facet_normals, _validate
from conestab.exactgeom.fan import Fan, _fan_sums, cone_fan
from conestab.exactgeom.linalg import _integer_row, _row_reduce, det, primitivize, vsub
from conestab.invariants import _alpha0_ints
from conestab.singularity import _xi_row


@pytest.fixture(scope="session")
def c2():
    return from_rays([(1, 0), (0, 1)])


@pytest.fixture(scope="session")
def a1():
    return from_rays([(1, 0), (1, 2)])


@pytest.fixture(scope="session")
def z3():
    return from_rays([(1, 0), (1, 3)])


@pytest.fixture(scope="session")
def half_boundary():
    return from_rays([(1, 0), (0, 1)], [Fraction(1, 2), 0])


@pytest.fixture(scope="session")
def fex(c2):
    return monomial_filtration(c2, [(2, 1), (1, 2)])


def fan_moments(fan, xi, order=2):
    """(vol, grad, hess) of sum_tau |det W_tau| / prod_i <w_i, xi> over a
    fan at the rational xi, as Fractions (grad None at order 0, hess None
    below 2): the reference the tests read.  With xi = x / L, x integral,
    these are ``fan._fan_sums`` at x over the degrees -n, -n-1, -n-2."""
    x, L = _integer_row(xi)
    n = fan.rank
    Q, vol, grad, hess = _fan_sums(fan, x, order)
    vol_q = Fraction(L ** n * vol, Q)
    if order == 0:
        return vol_q, None, None
    grad_q = tuple(Fraction(-L ** (n + 1) * g, Q ** 2) for g in grad)
    if order == 1:
        return vol_q, grad_q, None
    scale = L ** (n + 2)
    lower = [[Fraction(scale * hess[k][m], Q ** 3) for m in range(k + 1)] for k in range(n)]
    hess_q = tuple(tuple(lower[max(k, m)][min(k, m)] for m in range(n)) for k in range(n))
    return vol_q, grad_q, hess_q


def verify_closure(sample, s, xi0, F, limit=200):
    """Sampled additive closure of a ``SemigroupSample``: sums of its
    members land in the level-2m slice.  Checks at most ``limit`` pairs."""
    x, L = _xi_row(xi0, s.rank)
    checked = 0
    for i, p in enumerate(sample.points):
        for q in sample.points[i:]:
            total = tuple(a + b for a, b in zip(p, q))
            if sum(map(mul, x, total)) > 2 * sample.m * L:
                return False
            if F.ord(total) < 2 * sample.m * sample.t:
                return False
            checked += 1
            if checked >= limit:
                return True
    return True


def parse_exact(payload):
    """The exact fractions of an ``InvariantReport.to_json`` payload."""
    return {name: Fraction(entry["exact"])
            for name, entry in json.loads(payload).items() if "exact" in entry}


class ReferenceOkounkovBody(NamedTuple):
    """``invariants.OkounkovBody`` as it was while it held its views."""
    body: object
    vol: Fraction
    bary: tuple
    alpha0: tuple
    alpha0_ints: tuple


def okounkov_reference(s, xi0):
    """Cold reference of ``invariants.okounkov_body``: the record built
    eagerly, the slice polytope and every Fraction view made with it."""
    wc = s.weight_cone
    x, L = _xi_row(xi0, s.rank)
    n = wc.rank
    Q, V, G, _ = _fan_sums(cone_fan(wc), x, 1)
    a, d = _alpha0_ints(x, L, Q, V, G)
    return ReferenceOkounkovBody(body=slice_polytope(wc, tuple(Fraction(b, L) for b in x), 1),
                                 vol=Fraction(L ** n * V, Q * factorial(n)),
                                 bary=tuple(Fraction(n * b, (n + 1) * d) for b in a),
                                 alpha0=tuple(Fraction(b, d) for b in a), alpha0_ints=(a, d))


def scan_facet_normals(rays, n):
    """Cold reference of ``cone._facet_normals``: the facet normals of
    cone(rays) in R^n by scanning (n-1)-subsets of the integer rays.

    Each independent subset's kernel vector comes off the integer kernel as
    (d at the free column, minus the rest of that column), oriented so that
    its free entry is positive, and is dotted with the rays in integers; it
    is a normal, made primitive, when no ray pairs negatively with it, or
    with its negative (then negated).  On rays spanning less than R^n every
    independent subset's vector is normal to them all and is kept with that
    orientation, where the double description returns [].
    """
    normals = set()
    for subset in combinations(rays, n - 1):
        m, pivots, d, _ = _row_reduce(subset, n)
        if len(pivots) != n - 1:  # the n - 1 rays are dependent
            continue
        fc = n * (n - 1) // 2 - sum(pivots)  # the one column without a pivot
        s = 1 if d > 0 else -1
        h = [0] * n
        h[fc] = s * d
        for r, pc in zip(m, pivots):
            h[pc] = -s * r[fc]
        side = 0  # the first nonzero pairing; one of the other sign rejects h
        for r in rays:
            v = sum(map(mul, h, r))
            if v * side < 0:
                break
            if not side:
                side = v
        else:
            g = gcd(*h) if side >= 0 else -gcd(*h)
            normals.add(tuple(a // g for a in h))
    return sorted(normals)


def scan_triangulation(rays):
    """Cold reference of ``cone._triangulate_rays``: the same pulling
    triangulation, recursive on faces, each face's facets found afresh by
    the H/V conversion in the pivot coordinates of its row-reduced rays
    (projecting onto the pivot columns is injective on the span of the rays,
    so it keeps every facet and tight set).  The simplices come in recursion
    order, each a sorted ray tuple."""
    rays = sorted(rays)
    pivots = _row_reduce(rays, len(rays[0]))[1]
    if len(rays) == len(pivots):
        return [tuple(rays)]
    apex = rays[0]
    coords = {r: tuple(r[c] for c in pivots) for r in rays}
    simplices = []
    for h in _facet_normals(list(coords.values()), len(pivots)):
        tight = [r for r in rays if not sum(map(mul, h, coords[r]))]
        if apex not in tight:
            simplices += [tuple(sorted((apex,) + tau)) for tau in scan_triangulation(tight)]
    return simplices


def scan_fan(rays, rank):
    """Cold reference of ``fan.simplicial_fan``: the sorted simplices of
    ``scan_triangulation``, with |det| from the Fraction ``det``."""
    rays = tuple(sorted(rays))
    index = {r: i for i, r in enumerate(rays)}
    return Fan(rank, rays, tuple((abs(int(det(tau))), tuple(index[r] for r in tau))
                                 for tau in sorted(scan_triangulation(rays))))


def scan_chambers(c, covectors):
    """Cold reference of ``fan.chambers``: the rays of chamber j are the
    facet normals of c's halfspaces and the z_i - z_j (duality), and it is
    kept when they span R^n."""
    covs = list(dict.fromkeys(covectors))
    n = c.rank
    found = []
    for j, zj in enumerate(covs):
        hs = [primitivize(vsub(zi, zj)) for i, zi in enumerate(covs) if i != j]
        rays = scan_facet_normals(list(c.halfspaces) + hs, n) if hs else c.rays
        if len(_row_reduce(rays, n)[1]) == n:
            found.append((zj, scan_fan(rays, n)))
    return tuple(found)


def scan_cone(rays):
    """Cold reference of ``cone._cone``: the facet normals by one scan of
    the rays, and the extreme rays by a second scan of the normals."""
    rays, n = _distinct(rays, "rays")
    if len(_row_reduce(rays, n)[1]) < n:
        raise DegenerateCone("rays do not span the ambient space")
    normals = scan_facet_normals(rays, n)
    if len(_row_reduce(normals, n)[1]) < n:
        raise DegenerateCone("cone is not pointed")
    cone = Cone(rank=n, rays=tuple(scan_facet_normals(normals, n)), halfspaces=tuple(normals))
    _validate(cone)
    return cone


def random_cone(rnd, rank):
    """Random pointed full-dimensional Q-Gorenstein cone (simplicial)."""
    while True:
        rays = [tuple(rnd.randint(-2, 3) for _ in range(rank)) for _ in range(rank)]
        try:
            coeffs = None
            if rnd.random() < 0.4:
                coeffs = [rnd.choice([0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
                          for _ in rays]
            return from_rays(rays, coeffs)
        except Exception:
            continue


def random_reeb(rnd, s):
    """Interior point: a positive random combination of the rays."""
    xi = [Fraction(0)] * s.rank
    for r in s.sigma.rays:
        c = Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
        xi = [x + c * ri for x, ri in zip(xi, r)]
    return tuple(xi)


def random_filtration(rnd, s, max_covectors=3):
    """Primary monomial filtration: covectors interior to sigma."""
    k = rnd.randint(1, max_covectors)
    covs = []
    for _ in range(k):
        z = [Fraction(0)] * s.rank
        for r in s.sigma.rays:
            c = Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
            z = [x + c * ri for x, ri in zip(z, r)]
        covs.append(tuple(z))
    return monomial_filtration(s, covs)


def random_instance(rnd, rank):
    s = random_cone(rnd, rank)
    return s, random_reeb(rnd, s), random_filtration(rnd, s)


def c2_battery(seed=20, count=20):
    """Fixed battery of integer-covector filtrations on the smooth surface."""
    rnd = random.Random(seed)
    s = from_rays([(1, 0), (0, 1)])
    battery = []
    while len(battery) < count:
        k = rnd.randint(1, 3)
        covs = [(rnd.randint(1, 3), rnd.randint(1, 3)) for _ in range(k)]
        battery.append(monomial_filtration(s, covs))
    return s, battery


def pairwise_dp_orders(F_, m, pts, ell):
    """Reference orders of the degree-m approximation of F_ on a down-closed
    point set: the O(P^2) DP trying every earlier nonzero point (by
    <ell, .>) as a block worth min(floor(g), m)."""
    order = sorted(pts, key=lambda p: (sum(map(mul, ell, p)), p))
    best, blocks = {}, []  # blocks: (q, value of q) for the nonzero points before p
    for p in order:
        v = min(floor(F_.ord(p)), m) if any(p) else 0
        best[p] = max([v] + [u + best[r] for q, u in blocks
                             if (r := tuple(map(sub, p, q))) in best])
        if any(p):
            blocks.append((p, v))
    return best


def _box_scan(c, xi, m, strict):
    """Every integer a in the cone c with <a, xi> < m (<= m unless strict),
    in lexicographic order, or None when the region is unbounded.

    The reference for the lattice kernel, sharing none of its code: a box
    one wider on every side than the hull of the origin and the rays
    scaled onto <xi, .> = m is scanned point by point with the integer
    halfspaces and the Fraction pairing.  The region is bounded exactly
    when xi pairs positively with every ray.
    """
    pairings = [dot(xi, r) for r in c.rays]
    if min(pairings) <= 0:
        return None
    hull = [(0,) * c.rank] + [tuple(m * x / p for x in r) for r, p in zip(c.rays, pairings)]
    box = [range(floor(min(v[i] for v in hull)) - 1, ceil(max(v[i] for v in hull)) + 2)
           for i in range(c.rank)]
    return [a for a in product(*box) if all(sum(map(mul, h, a)) >= 0 for h in c.halfspaces)
            and (dot(xi, a) < m if strict else dot(xi, a) <= m)]


def _reference_aggregate(s, xi0, levels, order_of, pts):
    """Per-point aggregation: one Python step per lattice point.

    The sweeps' original accumulation, kept as the reference that the
    run-based aggregation must reproduce exactly.
    """
    xi0 = tuple(Fraction(x) for x in xi0)
    levels = sorted(set(levels))
    top = levels[-1] + 1
    den = lcm(*(x.denominator for x in xi0))
    xs = [int(x * den) for x in xi0]
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
    return ReferenceSweep(levels=levels, per_level=reference_per_level(
        s, levels, counts, eq_counts, sums_ord, maxs))


class ReferenceLevelStats(NamedTuple):
    """A sweep row as ``estimators`` built it while its ratios were fields,
    made as Fractions with the row: the reference for the rows' properties."""
    m: int
    N_m: int
    TS_m: int
    TS0_m: int
    S_m: Fraction | None
    Sp_m: Fraction | None
    Spp_m: Fraction
    lammax_m: Fraction
    count_gamma: int


def reference_per_level(s, levels, counts, eq_counts, sums_ord, maxs):
    """Cold reference of ``estimators._per_level``: the same per-shell lists,
    each ratio a Fraction built with its row."""
    Ns, TS0s, TSs = (list(accumulate(x, initial=0)) for x in
                     (counts, [k * c for k, c in enumerate(counts)], sums_ord))
    lams = list(accumulate(maxs, max, initial=0))
    per_level = []
    for m in levels:
        N, TS, TS0, TS1, TS01 = Ns[m], TSs[m], TS0s[m], TSs[m + 1], TS0s[m + 1]
        S_m = Fraction(TS, TS0) if TS0 else None
        Sp = Fraction(TS1 - TS, TS01 - TS0) if TS01 > TS0 else None
        per_level.append(ReferenceLevelStats(
            m=m, N_m=N, TS_m=TS, TS0_m=TS0, S_m=S_m, Sp_m=Sp,
            Spp_m=Fraction((s.rank + 1) * TS, s.rank * m * N),
            lammax_m=Fraction(lams[m], m),
            count_gamma=N + eq_counts[m],
        ))
    return per_level


class ReferenceSweep(NamedTuple):
    """Cold reference of ``estimators.EstimatorSweep``'s writers: CSV through
    ``csv.writer`` and JSON rows formatted from the Fraction fields of
    ``ReferenceLevelStats``."""
    levels: list
    per_level: list
    target: dict = MappingProxyType({})

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(estimators.CSV_HEADER)
        for st in self.per_level:
            w.writerow([st.m, st.N_m, st.TS_m, *("" if x is None else str(x) for x in
                                                  (st.S_m, st.Sp_m, st.Spp_m, st.lammax_m))])
        return buf.getvalue()

    def to_json(self):
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
        return (f'{{\n  "levels": {estimators._json_list(levels)},\n'
                f'  "rows": {estimators._json_list(rows)},\n  "target": {target}\n}}')
