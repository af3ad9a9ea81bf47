import csv
import io
import json
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations, product, repeat
from math import ceil, factorial, floor, gcd, prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

import pytest

from conestab import estimators, from_rays, monomial_filtration, toric_filtration
from conestab.errors import BudgetExceeded, DegenerateCone
from conestab.exactgeom import slice_polytope
from conestab.exactgeom.cone import Cone, _distinct, _facet_normals, _of_length, _validate
from conestab.exactgeom.fan import Fan, _fan_sums, cone_fan
from conestab.exactgeom.lattice import _checked_budget
from conestab.exactgeom.linalg import _integer_row, _row_reduce, det, frac, primitivize, vec, vsub
from conestab.exactgeom.polytope import slice_vertices
from conestab.filtration import MonomialFiltration, _approx_key, _block_dp, _coder
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
    value = {p: min(floor(F_.ord(p)), m) for p in order}
    best = {}
    for i, p in enumerate(order):
        best[p] = max([value[p] if any(p) else 0]
                      + [value[q] + best[r] for q in order[:i]
                         if any(q) and (r := tuple(map(sub, p, q))) in best])
    return best


# ---------------------------------------------------------------------------
# The level-coordinate scan that ``estimators.sweep`` ran before its
# simplicial-cone kernel, kept as a second reference next to the per-point
# sweeps of ``tests/test_estimators.py``.

def unimodular_completion(p):
    """(U, W): integer matrices with U W = I and U's first row the primitive
    integer vector p.  Euclid's column steps (a, b) -> (b, q b - a), of
    determinant 1, take p to +-e_1; W collects them and U their inverses."""
    n, a = len(p), p[0]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    W = [row[:] for row in U]
    for i in range(1, n):
        b = p[i]
        while b:
            q = a // b
            a, b = b, q * b - a
            for row in W:
                row[0], row[i] = row[i], q * row[i] - row[0]
            U[0], U[i] = [q * u + v for u, v in zip(U[0], U[i])], [-u for u in U[0]]
    if a < 0:  # p W = -e_1: negate the first row of U and column of W
        U[0], W = [-u for u in U[0]], [[-row[0], *row[1:]] for row in W]
    return U, W


# ---------------------------------------------------------------------------
# The coordinate box scan and the lower envelope of lines that listed the
# approximation tables' points before ``fan._runs`` did: ``_lattice_runs``,
# ``_box``, ``_bound``, ``_BLOCK``, ``_envelope`` and ``_floor_runs`` are
# the retired library functions, unchanged, and ``box_approx_table`` the
# table builder that read them.

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


def _envelope(lines, lo, hi):
    """The lower envelope of the lines c + d t on the integers lo..hi: pieces
    (t0, t1, c, d), each the least line at t0 (of least slope on a tie) up to
    where one of smaller slope is no larger, so at most len(lines) pieces."""
    pieces = []
    while lo <= hi:
        c, d = lines[0]
        for c1, d1 in lines:
            if c1 + d1 * lo < c + d * lo or c1 + d1 * lo == c + d * lo and d1 < d:
                c, d = c1, d1
        end = hi + 1
        for c1, d1 in lines:  # c1 + d1 t <= c + d t from t = ceil((c1 - c) / (d - d1)) on
            if d1 < d and -((c - c1) // (d - d1)) < end:
                end = -((c - c1) // (d - d1))
        pieces.append((lo, end - 1, c, d))
        lo = end
    return pieces


def _floor_runs(F: MonomialFiltration):
    """floor(g) along a run (prefix, lo, hi): the covectors pair as lines
    c + d t, g is their ``_envelope``, and the list holds floor(g) over
    t = lo..hi."""
    zs, den = F.transform.rows, F.transform.den
    heads = [(z[:-1], z[-1]) for z in zs]

    def orders(prefix, lo, hi):
        return [(c + d * t) // den
                for t0, t1, c, d in _envelope([(sum(map(mul, z, prefix)), d) for z, d in heads],
                                              lo, hi)
                for t in range(t0, t1 + 1)]
    return orders


class BoxApproxTable(NamedTuple):
    """The approximation table as the box-scan builder kept it."""

    window: int
    runs: dict      # {prefix: (t_lo, approximate orders along the run)}
    blocks: tuple   # kept (gamma, v, <ell, gamma>), in scan order
    counts: list    # index k: window points with <ell, .> <= k


def box_approx_table(F: MonomialFiltration, m, window, budget):
    """Cold reference of ``filtration._build_approx_table``: the builder as
    it was while the table was read off the box scan, unchanged but for the
    record it returns.

    Along a lattice run the codes and weights are ranges and the block
    values come from ``_floor_runs``; one ``_block_dp`` gives the
    blocks and the order of every point, which are stored per run.
    """
    s = F.ambient
    ell = s.sigma.interior_point()
    *head, last = ell
    runs = _lattice_runs(s.weight_cone, ell, window, budget, False)
    code, decode = _coder(s.rank, max((max(map(abs, (*p, lo, hi))) for p, lo, hi in runs),
                                      default=0))
    floor_orders = _floor_runs(F)
    codes, weights, values, spans = [], [], [], []
    for prefix, lo, hi in runs:
        c0, w0 = code((*prefix, 0)), sum(map(mul, head, prefix))
        spans.append(range(c0 + lo, c0 + hi + 1))
        codes += spans[-1]
        weights += range(w0 + last * lo, w0 + last * (hi + 1), last) if last else \
            repeat(w0, hi - lo + 1)
        values += [v if v < m else m for v in floor_orders(prefix, lo, hi)]
    kept, best = _block_dp(m, codes, weights, values)
    table_runs = {prefix: (lo, list(map(best.__getitem__, span)))
                  for (prefix, lo, _), span in zip(runs, spans)}
    blocks = tuple((decode(c), v, w) for c, v, w in kept)
    weights.sort()
    counts = [bisect_right(weights, k) for k in range(window + 1)]
    return BoxApproxTable(window, table_runs, blocks, counts)


def floor_sum(n, m, a, b):
    """The sum of (a i + b) // m over i = 0..n-1 (m >= 1), in Euclid-like steps."""
    total = 0
    while n:
        (qa, a), (qb, b) = divmod(a, m), divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        (n, b), m, a = divmod(a * n + b, m), a, m
    return total


def floor_runs(F_, W=None):
    """(orders, stats) of floor(g) along a run (prefix, lo, hi) of y, a = W y
    (y = a if W is None): the covectors pair as lines c + d t, g is their
    ``_envelope``, ``orders`` lists floor(g) over t = lo..hi and ``stats``
    gives its sum (floor sums per piece) and maximum (at a piece end)."""
    zs, den = F_.transform.rows, F_.transform.den
    zs = [tuple(sum(map(mul, z, col)) for col in zip(*W)) for z in zs] if W else zs
    heads = [(z[:-1], z[-1]) for z in zs]

    def pieces(prefix, lo, hi):
        return _envelope([(sum(map(mul, z, prefix)), d) for z, d in heads], lo, hi)

    def orders(prefix, lo, hi):
        return [(c + d * t) // den for t0, t1, c, d in pieces(prefix, lo, hi)
                for t in range(t0, t1 + 1)]

    def stats(prefix, lo, hi):
        total, ends = 0, []
        for t0, t1, c, d in pieces(prefix, lo, hi):
            total += floor_sum(t1 - t0 + 1, den, d, c + d * t0)
            ends += c + d * t0, c + d * t1
        return total, max(ends) // den
    return orders, stats


def level_frame(wc, xs):
    """(cone, x, W): the weight cone and the integer row xs = g p of xi0, p
    primitive, in level coordinates y = U a, U unimodular with first row p
    and W = U^-1: rays r go to U r, halfspaces h to h W, xs to (g, 0, ...)."""
    g = gcd(*xs)
    U, W = unimodular_completion([x // g for x in xs])
    cone = Cone(wc.rank, tuple(tuple(sum(map(mul, u, r)) for u in U) for r in wc.rays),
                tuple(tuple(sum(map(mul, h, col)) for col in zip(*W)) for h in wc.halfspaces))
    return cone, (g,) + (0,) * (wc.rank - 1), tuple(map(tuple, W))


def level_coordinates(wc, xs, den, top):
    """Whether the scan of xs / den below ``top`` took level coordinates: in
    rank >= 2, if the slice's bounding box over the prefix ones is no larger."""
    def prefixes(c, x):
        box = list(zip(*_box(c, x, top * den)))[:-1]
        return prod(b - a + 1 for a, b in box)
    return wc.rank > 1 and prefixes(*level_frame(wc, xs)[:2]) <= prefixes(wc, xs)


def scan_sweep(s, xi0, F_, levels, budget=None, level=None):
    """Cold reference of ``estimators.sweep``: the lattice runs below the top
    level, in level coordinates if ``level`` (None: if ``level_coordinates``
    says so), else in the exponents.  A run of rank >= 2 in level
    coordinates sits in one shell, and ``floor_runs``' stats give its order
    sum and maximum in closed form; any other run is binned a point at a
    time.  The rows come from the library's ``_per_level``."""
    (x, L), levels = _xi_row(xi0, s.rank), estimators._levels(levels)
    top = levels[-1] + 1
    if level is None:
        level = level_coordinates(s.weight_cone, x, L, top)
    cone, xs, W = level_frame(s.weight_cone, x) if level else (s.weight_cone, x, None)
    orders, stats = floor_runs(F_, W)
    counts, eqs, sums, maxs = ([0] * top for _ in range(4))

    def add(w, k, total, top_order):
        fw, rem = divmod(w, L)
        counts[fw] += k
        eqs[fw] += 0 if rem else k
        sums[fw] += total
        maxs[fw] = max(maxs[fw], top_order)
    *head, X = xs
    for prefix, lo, hi in _lattice_runs(cone, xs, top * L, _checked_budget(budget), True):
        w0 = sum(map(mul, head, prefix))
        if X:
            for t, o in zip(range(lo, hi + 1), orders(prefix, lo, hi)):
                add(w0 + X * t, 1, o, o)
        else:
            add(w0, hi - lo + 1, *stats(prefix, lo, hi))
    return estimators.EstimatorSweep(levels=list(levels), per_level=estimators._per_level(
        s, levels, counts, eqs, sums, maxs))


# ---------------------------------------------------------------------------
# The shell table that ``estimators.sweep_approx`` built before it binned its
# approximation table by shell: ``build_shell_table`` and
# ``shell_table_aggregate`` are the retired ``_build_shell_table`` and
# ``_aggregate``, unchanged.

class ShellTable(NamedTuple):
    """The filtration-independent part of ``sweep_approx`` below level ``top``."""

    runs: tuple       # (prefix, lo, hi, classes): (orders slice, shell slice) pairs
    counts: list      # index k < top: points in shell k
    eq_counts: list   # index k < top: points with <xi0, a> = k exactly


def build_shell_table(wc, xs, den, top, budget):
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
    return ShellTable(runs=tuple(table), counts=counts[:top], eq_counts=eq_counts[:top])


def shell_table_aggregate(s, table, levels, run_orders):
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
    return estimators._per_level(s, levels, table.counts, table.eq_counts, sums_ord, maxs)


def shell_table_window(s, table):
    """The exact window of a shell table: the largest <ell, .> on its runs,
    ell = sigma's interior point.  <ell, .> is linear along a run, so its
    largest value sits at an end."""
    ell = s.sigma.interior_point()
    return max(sum(map(mul, ell, p)) + max(ell[-1] * lo, ell[-1] * hi)
               for p, lo, hi, _ in table.runs)


def shell_table_sweep_approx(s, xi0, F_, m, levels, budget=None):
    """Cold reference of ``estimators.sweep_approx``: the shell table of the
    lattice below the top level, and the orders of F_'s approximation table
    on that table's exact window, put onto its shells.  The budget bounds
    the shell table's points and the window's."""
    key = _approx_key(F_, m)
    (x, L), levels = _xi_row(xi0, s.rank), estimators._levels(levels)
    budget = _checked_budget(budget)
    target = {**estimators._target(s, x, L, F_), "m_filtration": Fraction(m)}
    table = build_shell_table(s.weight_cone, x, L, levels[-1] + 1, budget)
    runs = box_approx_table(F_, key[-1], shell_table_window(s, table), budget).runs

    def run_orders(prefix, lo, hi):
        start, orders = runs[prefix]
        return orders[lo - start:hi - start + 1]
    per_level = shell_table_aggregate(s, table, levels, run_orders)
    return estimators.EstimatorSweep(levels=list(levels), per_level=per_level, target=target)


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
