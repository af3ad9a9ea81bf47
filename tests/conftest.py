import random
from fractions import Fraction
from math import floor
from operator import mul, sub

import pytest

from conestab import from_rays, monomial_filtration, toric_filtration
from conestab.errors import DegenerateCone
from conestab.exactgeom.cone import Cone, _distinct, _facet_normals, _triangulate_rays, _validate
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


def scan_fan(rays, rank):
    """Cold reference of ``fan.simplicial_fan``: every simplex of
    ``_triangulate_rays``, with |det| from the Fraction ``det``."""
    rays = tuple(sorted(rays))
    index = {r: i for i, r in enumerate(rays)}
    return Fan(rank, rays, tuple((abs(int(det(tau))), tuple(index[r] for r in tau))
                                 for tau in _triangulate_rays(rays)))


def scan_chambers(c, covectors):
    """Cold reference of ``fan.chambers``: the rays of chamber j are the
    facet normals of c's halfspaces and the z_i - z_j (duality), and it is
    kept when they span R^n."""
    covs = list(dict.fromkeys(covectors))
    n = c.rank
    found = []
    for j, zj in enumerate(covs):
        hs = [primitivize(vsub(zi, zj)) for i, zi in enumerate(covs) if i != j]
        rays = _facet_normals(list(c.halfspaces) + hs, n) if hs else c.rays
        if len(_row_reduce(rays, n)[1]) == n:
            found.append((zj, scan_fan(rays, n)))
    return tuple(found)


def scan_cone(rays):
    """Cold reference of ``cone._cone``: the facet normals by one scan of
    the rays, and the extreme rays by a second scan of the normals."""
    rays, n = _distinct(rays, "rays")
    if len(_row_reduce(rays, n)[1]) < n:
        raise DegenerateCone("rays do not span the ambient space")
    normals = _facet_normals(rays, n)
    if len(_row_reduce(normals, n)[1]) < n:
        raise DegenerateCone("cone is not pointed")
    cone = Cone(rank=n, rays=tuple(_facet_normals(normals, n)), halfspaces=tuple(normals))
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
