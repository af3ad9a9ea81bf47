import random
from fractions import Fraction
from itertools import combinations
from math import floor, gcd
from operator import mul, sub

import pytest

from conestab import from_rays, monomial_filtration, toric_filtration
from conestab.errors import DegenerateCone
from conestab.exactgeom.cone import Cone, _distinct, _facet_normals, _validate
from conestab.exactgeom.fan import Fan, _moments
from conestab.exactgeom.linalg import _integer_row, _row_reduce, det, primitivize, vsub


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
    fan at the rational xi, as Fractions: the reference the tests read."""
    return _moments(fan, *_integer_row(xi), order)


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
