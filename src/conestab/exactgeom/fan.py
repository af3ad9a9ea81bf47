"""Slice volume, gradient and Hessian of a cone from one simplicial fan.

Split a pointed full-dimensional cone C in R^n into simplicial cones tau
with primitive integer rays w_1..w_n.  The slice {alpha in tau : <alpha,
xi> <= 1} is the simplex on 0 and the points w_i / p_i, p_i = <w_i, xi>, so
with c_tau = |det W_tau| / prod_i p_i and s_tau = sum_i w_i / p_i

    vol(xi)  = sum_tau c_tau                  (n! times the slice volume)
    grad     = -sum_tau c_tau s_tau
    hess     =  sum_tau c_tau (s_tau s_tau^T + sum_i w_i w_i^T / p_i^2)

and the slice barycenter is -grad / ((n+1) vol).  This is Lawrence's
formula (J. Lawrence, "Polytope volume computation", Math. Comp. 57, 1991)
in the toric form Martelli, Sparks and Yau use for the volume of a Sasakian
link (hep-th/0503183).  The fan depends on the cone alone, so it is built
once per cone, from its ray-facet incidences and one |det| per simplex;
each evaluation then runs over integers (``_fan_sums``) at
x = L xi, with the pairings p_i cleared to the common denominator Q =
prod of the pairings of all rays; the callers keep the integers and form
one Fraction per value they return.  For g = min_j <z_j, .>, ``chambers``
splits C into the cones on which g is linear, cut from C's rays by the
double description steps of the one H/V conversion (``cone._cut``), each
with its fan, triangulated from the incidences the last cut leaves; the
fans give S, through one store of their integer first moments
(``_chamber_moments``), and their rays lambda_max and the irredundant
covectors.  The same simplices, made half-open, are the one lattice
kernel: each is a parallelepiped of start points, stored once per simplex,
plus its generators (Koeppe and Verdoolaege, Electron. J. Combin. 15,
2008).  ``_shell_sums`` walks them to every level of a sweep, and ``_runs``
lists the points below a limit as runs along one ray.  The stores are
``_TableCache``s, bounded by what they hold and by their entry count.
"""

from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from ..errors import BudgetExceeded, UnboundedSlice
from .cone import Cone, _cut, _incidence, _triangulate_rays
from .linalg import _row_reduce, primitivize, vsub


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


class Fan(NamedTuple):
    """Simplicial subdivision of a full-dimensional cone in R^rank.

    rays:      primitive integer rays, sorted
    simplices: (|det W_tau|, indices into rays) per simplicial cone tau
    """

    rank: int
    rays: tuple
    simplices: tuple


def simplicial_fan(incidence, rank) -> Fan:
    """Triangulate a cone spanning R^rank on its own rays, given with the
    bitsets of their tight halfspaces (``cone._triangulate_rays``)."""
    rays = tuple(sorted(r for r, _ in incidence))
    index = {r: i for i, r in enumerate(rays)}
    simplices = tuple((abs(_row_reduce(tau, rank)[2]), tuple(index[r] for r in tau))
                      for tau in _triangulate_rays(incidence, rank))
    return Fan(rank=rank, rays=rays, simplices=simplices)


@lru_cache(maxsize=4096)
def cone_fan(c: Cone) -> Fan:
    """The simplicial fan of a cone, built once per cone."""
    return simplicial_fan(_incidence(c.rays, c.halfspaces), c.rank)


# At most 256 decompositions, whose fans hold at most 32768 simplices: a
# filtration's are read while it is in use, so a short store keeps the hits.
@partial(_TableCache, 256, 1 << 15, lambda found: sum(len(fan.simplices) for _, fan in found))
def chambers(c: Cone, covectors):
    """((z_j, Fan of chamber j), ...) for g = min_j <z_j, .> on the cone c.

    Chamber j is {alpha in c : <z_i - z_j, alpha> >= 0 for all i}, where
    z_j attains the minimum; its rays are c's cut by each halfspace
    (``_cut``), and its fan is built here, once, on them.  Duplicated
    covectors are dropped first, and a chamber is dropped at the first cut
    that leaves no ray strictly inside, so only the full-dimensional ones are
    kept, in input order (a lone one is the whole cone, with ``cone_fan``):
    z_j has one exactly when it is irredundant, for the chambers of lower
    dimension (ties) carry no volume.  Cached per (cone, covector tuple);
    the library asks through ``_chamber_rows``, whose key is translation
    and scale free, so the reduction, S and lambda_max of a transform and
    its twists share it.
    """
    covs = list(dict.fromkeys(covectors))
    n, m = c.rank, len(c.halfspaces)
    start = _incidence(c.rays, c.halfspaces)
    found = []
    for j, zj in enumerate(covs):
        rays = start
        for i, zi in enumerate(covs):
            if i != j:
                bit = 1 << (m + i)
                rays = _cut(rays, primitivize(vsub(zi, zj)), bit, n)
                if all(z & bit for _, z in rays):
                    break
        else:
            found.append((zj, rays))
    if len(found) == 1:
        return ((found[0][0], cone_fan(c)),)
    return tuple((z, simplicial_fan(rays, n)) for z, rays in found)


@lru_cache(maxsize=256)  # a filtration's rows are asked for again and again
def _chamber_key(rows):
    """{difference from the first row over their gcd: row}, in order."""
    zs = [[a - b for a, b in zip(z, rows[0])] for z in rows]
    g = gcd(*(a for z in zs for a in z)) or 1
    return {tuple(a // g for a in d): z for d, z in zip(zs, rows)}


def _chamber_rows(c: Cone, rows):
    """``chambers`` of integer covector rows, cached under their differences
    from the first row over their gcd: a chamber depends only on the
    directions of the differences, so the twists and rescalings of a
    transform share its decomposition.  A redundant row attains the minimum
    on no open set, so the kept rows have the same chambers; the record is
    stored under their key as well, which the reduced transform asks for."""
    back = _chamber_key(tuple(rows))
    found = chambers(c, tuple(back))
    if len(found) < len(back):
        kept = tuple(_chamber_key(tuple(back[d] for d, _ in found)))
        chambers.put((c, kept), tuple(zip(kept, (fan for _, fan in found))))
    return tuple((back[d], fan) for d, fan in found)


@lru_cache(maxsize=16384)
def _chamber_moments(c: Cone, key, x):
    """((d, Q, G), ...) per chamber of ``chambers(c, key)``: Q and G the
    order-1 ``_fan_sums`` of its fan at the int tuple x, for the covector
    rows whose ``_chamber_key`` is key.  A transform, its twists and
    rescalings share the key, and so do all one-covector transforms; the
    entries hold ints, so no Fan outlives the ``chambers`` store."""
    return tuple((d, Q, tuple(G)) for d, fan in _chamber_rows(c, key)
                 for Q, _, G, _ in [_fan_sums(fan, x, 1)])


def _fan_sums(fan: Fan, x, order):
    """(Q, vol, grad, hess) at the integer vector x, as ints: Q the product
    of the pairings <w, x> over the rays, and the three moments of the
    module docstring at xi = x times Q, -Q^2 and Q^3 (hess only its lower
    triangle; grad None at order 0, hess None below 2)."""
    n = fan.rank
    P = [sum(map(mul, w, x)) for w in fan.rays]
    if any(p <= 0 for p in P):
        raise UnboundedSlice("slicing covector vanishes on a ray")
    Q = prod(P)
    R = [Q // p for p in P]  # Q / p_i: the point w_i / p_i is R_i w_i / Q
    vol = 0
    grad = [0] * n
    hess = [[0] * n for _ in range(n)]
    weight = [0] * len(P)  # sum of c_tau over the simplices at each ray
    for d, tau in fan.simplices:
        c = d * Q // prod(P[i] for i in tau)  # c_tau * Q
        vol += c
        if order == 0:
            continue
        s = [sum(R[i] * fan.rays[i][k] for i in tau) for k in range(n)]  # s_tau * Q
        for k in range(n):
            grad[k] += c * s[k]
        if order == 2:
            for i in tau:
                weight[i] += c
            for k in range(n):
                for m in range(k + 1):
                    hess[k][m] += c * s[k] * s[m]
    if order < 2:
        return Q, vol, grad if order else None, None
    for i, w in enumerate(fan.rays):
        if weight[i]:
            f = weight[i] * R[i] * R[i]
            for k in range(n):
                for m in range(k + 1):
                    hess[k][m] += f * w[k] * w[m]
    return Q, vol, grad, hess


def _parallelepiped(c: Cone, tau, x, den, limit, budget, spent):
    """[(<x, p>, p), ...] for the lattice points p, <x, p> < limit, of the
    half-open parallelepiped {sum_i lambda_i r_i : 0 <= lambda_i < den} of
    the simplicial cone on the rays tau; past budget - spent of them,
    BudgetExceeded names the budget.

    Facet i is open (lambda_i in (0, den]) unless lambda_i is positive at
    c's interior point perturbed by e_1, e_2, ... symbolically: a point of c
    lies in the one simplex that holds it plus such a perturbation, so the
    simplices of any subdivision of c partition its lattice points.  A point
    is mu / d in tau's coordinates, d = |det tau|, mu in M = d tau^-1 Z^n,
    a lattice holding d Z^n.  M's Hermite basis (b_k zero before entry k,
    b_k[k] = h_k dividing d), heaviest ray first, lists the mu a coordinate
    at a time, each a range of step h_k cut at the limit.
    """
    n = c.rank
    m, _, d, _ = _row_reduce([(*r, *(int(i == j) for j in range(n))) for i, r in enumerate(tau)],
                             n)
    W = [sum(map(mul, x, r)) for r in tau]
    order = sorted(range(n), key=W.__getitem__, reverse=True)
    inv = [[row[n + i] if d > 0 else -row[n + i] for row in m] for i in order]  # lambda_i d
    d, q = abs(d), c.interior_point()
    low = [0 if next(v for v in (sum(map(mul, a, q)), *a) if v) > 0 else 1 for a in inv]
    gens, basis = [list(col) for col in zip(*inv)], []
    for k in range(n):
        piv, rest = [0] * n, []
        for r in gens + [[d * (i == k) for i in range(n)]]:
            while r[k]:  # Euclid on entry k
                t = piv[k] // r[k]
                piv, r = r, [a - t * b for a, b in zip(piv, r)]
            rest.append([a % d for a in r])  # d Z^n is in M
        basis.append(piv if piv[k] > 0 else [-a for a in piv])
        gens = rest
    W, cols, bound = [W[i] for i in order], list(zip(*(tau[i] for i in order))), limit * d
    out, stack = [], [(0, [0] * n, 0)]
    while stack:
        k, mu, w = stack.pop()
        if k == n:
            out.append((w // d, tuple(sum(map(mul, mu, col)) // d for col in cols)))
            if spent + len(out) > budget:
                raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
            continue
        b, h, lo = basis[k], basis[k][k], low[k]
        for v in range(lo + (mu[k] - lo) % h, min(lo + d * den, -((w - bound) // W[k])), h):
            stack.append((k + 1, [a + (v - mu[k]) // h * e for a, e in zip(mu, b)], w + v * W[k]))
    return out


# At most 256 parallelepipeds, holding at most 32768 points together: the
# simplices of a filtration's chambers recur across its sweeps and tables.
_parallelepipeds = _TableCache(256, 1 << 15, lambda found: len(found[1]))


def _starts(c: Cone, tau, x, den, limit, budget, spent):
    """``_parallelepiped``'s start points below limit, read from the store of
    each (cone, simplex rays, x, den), which keeps the list below the largest
    limit asked so far with that limit."""
    key = (c, tau, x, den)
    found = _parallelepipeds.get(key, lambda found: found[0] >= limit)
    if found is None or found[0] < limit:
        return _parallelepipeds.put(key, (limit, _parallelepiped(*key, limit, budget, spent)))[1]
    return found[1] if found[0] == limit else [(w, p) for w, p in found[1] if w < limit]


def _runs(c: Cone, taus, x, limit, budget):
    """[[(p, r, k), ...] per simplicial cone of taus]: the lattice points a
    with <x, a> < limit of the half-open cones on the rays tau, which
    subdivide c, as runs p + t r, 0 <= t < k, along the ray r of tau that
    pairs least with x, so the runs are as long and as few as they can be.

    x pairs positively with every ray.  A point of tau is a start point of
    its half-open parallelepiped (``_parallelepiped`` at den 1) plus
    multiples of its rays: one run per start point and per multiple of the
    other rays.  Past ``budget`` points, BudgetExceeded names it before listing them.
    """
    out, total = [], 0
    for tau in taus:
        _, i = min((sum(map(mul, x, r)), i) for i, r in enumerate(tau))
        bases = _starts(c, tau, x, 1, limit, budget, total)
        for j, ray in enumerate(tau[:i] + tau[i + 1:] + tau[i:i + 1], 1):  # the runs' ray last
            dw = sum(map(mul, x, ray))
            ks = [(limit - 1 - w) // dw + 1 for w, _ in bases]  # multiples of ray below limit
            if total + sum(ks) > budget:  # as many distinct points, counted before listed
                raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
            if j < len(tau):
                bases = [(w + k * dw, tuple([a + k * b for a, b in zip(p, ray)]))
                         for (w, p), n in zip(bases, ks) for k in range(n)]
        total += sum(ks)
        out.append([(p, tau[i], k) for (_, p), k in zip(bases, ks)])
    return out


def _shell_sums(c: Cone, rows, den, x, L, top, budget):
    """(counts, eq_counts, order sums, order maxima) per shell k < top of
    the lattice points a of c with <x, a> < top L, shell <x, a> // L: how
    many, how many at <x, a> = k L, and the sum and maximum of floor(g) for
    g = min_j <rows_j, .> / den.  More than ``budget`` points raise
    BudgetExceeded, before any per-shell list is made.

    On chamber j's simplicial cone tau (rays r_i), a point is a start point
    p of den tau's half-open parallelepiped plus sum_i k_i den r_i, of
    weight <x, p> + sum_i k_i den <x, r_i> and order floor(<z_j, p> / den)
    + sum_i k_i <z_j, r_i>.  One walk over the occupied weights in
    increasing order adds generator i to the points made from the first
    i - 1 at each weight, so each weight's count, order sum and maximum is
    final when it is reached, and the budget stops the walk there.
    """
    limit, n, found, total = top * L, c.rank, [], 0
    for z, fan in _chamber_rows(c, rows):
        for _, tau in fan.simplices:
            rays = tuple(fan.rays[i] for i in tau)
            starts = _starts(c, rays, x, den, limit, budget, total)
            # slots[weight]: (count, order sum, order max) of its start points, then
            # at 3 i of those generator i (weight den <x, r_i>) carries in; max -1: none.
            steps = [(3 * i, den * sum(map(mul, x, r)), sum(map(mul, z, r)))
                     for i, r in enumerate(rays, 1)]
            slots = {}
            for w, p in starts:
                slot = slots.setdefault(w, [0, 0, -1] * (n + 1))
                v = sum(map(mul, z, p)) // den
                slot[0], slot[1], slot[2] = slot[0] + 1, slot[1] + v, max(slot[2], v)
            heap = list(slots)
            heapify(heap)
            while heap:
                w = heappop(heap)
                slot = slots.pop(w)
                k, t, mx = slot[0], slot[1], slot[2]
                for j, dw, dv in steps:
                    if slot[j]:
                        o = slot[j + 2]
                        k, t, mx = k + slot[j], t + slot[j + 1], mx if mx > o else o
                    u = w + dw
                    if k and u < limit:
                        nxt = slots.get(u)
                        if nxt is None:
                            slots[u] = nxt = [0, 0, -1] * (n + 1)
                            heappush(heap, u)
                        nxt[j], nxt[j + 1], nxt[j + 2] = k, t + dv * k, mx + dv
                found.append((w, k, t, mx))
                total += k
                if total > budget:
                    raise BudgetExceeded(f"lattice enumeration exceeded budget {budget}")
    counts, eqs, sums, maxs = ([0] * top for _ in range(4))
    for w, k, t, mx in found:
        s, r = divmod(w, L)
        counts[s] += k
        eqs[s] += 0 if r else k
        sums[s] += t
        if mx > maxs[s]:
            maxs[s] = mx
    return counts, eqs, sums, maxs
