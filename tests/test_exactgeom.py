import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.errors import (
    BudgetExceeded,
    NotFullDimensional,
    ParseError,
    Unbounded,
    UnboundedSlice,
)
from conestab.exactgeom import (
    PLConcave,
    Polytope,
    barycenter,
    cone_from_rays,
    dot,
    dual_cone,
    integrate_pl,
    lattice_points_below,
    slice_polytope,
    vec,
    volume,
)
from conftest import random_cone, random_reeb

F = Fraction


def test_dual_orthant_self_dual():
    c = cone_from_rays([(1, 0), (0, 1)])
    assert dual_cone(c).rays == c.rays


def test_dual_hand_example():
    c = cone_from_rays([(1, 0), (1, 2)])
    d = dual_cone(c)
    assert set(d.rays) == {(0, 1), (2, -1)}
    # cross-check: every dual ray pairs nonnegatively with every primal ray
    for a in d.rays:
        for r in c.rays:
            assert dot(a, r) >= 0


def test_dual_orthant_3d():
    c = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual_cone(c).rays == c.rays


def test_dual_involution_random():
    rnd = random.Random(11)
    for _ in range(30):
        s = random_cone(rnd, rnd.choice([2, 3]))
        c = s.sigma
        assert dual_cone(dual_cone(c)).rays == c.rays


def test_dual_cube_cone():
    c = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    d = dual_cone(c)
    assert dual_cone(d).rays == c.rays
    assert len(d.rays) == 4


def test_slice_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    p = slice_polytope(orthant, (1, 1), 1)
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    c = cone_from_rays([(0, 1), (2, -1)])
    p2 = slice_polytope(c, (1, 1), 1)
    assert set(p2.vertices) == {(0, 0), (0, 1), (2, -1)}
    p3 = slice_polytope(orthant, (1, 2), 1)
    assert set(p3.vertices) == {(0, 0), (1, 0), (0, F(1, 2))}


def test_slice_rejects_unbounded():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    with pytest.raises(UnboundedSlice):
        slice_polytope(orthant, (1, -1), 1)


def test_equality_slice():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    p = slice_polytope(orthant, (1, 2), 1, equality=True)
    assert set(p.vertices) == {(1, 0), (0, F(1, 2))}
    assert p.contains((F(1, 2), F(1, 4)))
    assert not p.contains((F(1, 2), F(1, 2)))


def test_volume_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert volume(slice_polytope(orthant, (1, 1), 1)) == F(1, 2)
    c = cone_from_rays([(0, 1), (2, -1)])
    assert volume(slice_polytope(c, (1, 1), 1)) == 1


def test_volume_unbounded_raises():
    p = Polytope(dim=2, vertices=((F(0), F(0)),), recession_rays=((1, 0),),
                 halfspaces=())
    with pytest.raises(Unbounded):
        volume(p)


def test_barycenter_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert barycenter(slice_polytope(orthant, (1, 1), 1)) == (F(1, 3), F(1, 3))
    assert barycenter(slice_polytope(orthant, (1, 2), 1)) == (F(1, 3), F(1, 6))
    c = cone_from_rays([(0, 1), (2, -1)])
    assert barycenter(slice_polytope(c, (1, 1), 1)) == (F(2, 3), F(0))


def test_volume_homogeneity_and_centroid_law():
    rnd = random.Random(5)
    for _ in range(50):
        s = random_cone(rnd, rnd.choice([2, 3]))
        c = s.weight_cone
        xi = tuple(sum(r[i] for r in s.weight_cone.rays) for i in range(s.rank))
        # xi is interior to sigma^v's dual? use the singularity's u-like form:
        xi = tuple(sum(r[i] for r in s.sigma.rays) for i in range(s.rank))
        n = c.rank
        t = F(rnd.randint(1, 5), rnd.randint(1, 3))
        v1 = volume(slice_polytope(c, xi, 1))
        vt = volume(slice_polytope(c, xi, t))
        assert vt == t ** n * v1
        b = barycenter(slice_polytope(c, xi, 1))
        assert dot(b, xi) == F(n, n + 1)


def test_integrate_pl_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    tri = slice_polytope(orthant, (1, 1), 1)
    assert integrate_pl(tri, PLConcave(covectors=(vec((1, 1)),))) == F(1, 3)
    g = PLConcave(covectors=(vec((2, 1)), vec((1, 2))))
    assert integrate_pl(tri, g) == F(5, 12)
    point = Polytope(dim=2, vertices=((F(0), F(0)),), recession_rays=(),
                     halfspaces=())
    assert integrate_pl(point, g) == 0


def test_integrate_single_covector_is_volume_times_pairing():
    rnd = random.Random(9)
    for _ in range(25):
        s = random_cone(rnd, rnd.choice([2, 3]))
        xi = tuple(sum(r[i] for r in s.sigma.rays) for i in range(s.rank))
        p = slice_polytope(s.weight_cone, xi, 1)
        zeta = vec([rnd.randint(-2, 4) for _ in range(s.rank)])
        got = integrate_pl(p, PLConcave(covectors=(zeta,)))
        assert got == volume(p) * dot(zeta, barycenter(p))


def test_integrate_duplicate_covectors_no_double_count():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    tri = slice_polytope(orthant, (1, 1), 1)
    g = PLConcave(covectors=(vec((1, 1)), vec((1, 1))))
    assert integrate_pl(tri, g) == F(1, 3)


def test_lattice_points_examples():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert lattice_points_below(orthant, (1, 1), 2) == [(0, 0), (0, 1), (1, 0)]
    assert len(lattice_points_below(orthant, (1, 1), 5)) == 15
    skew = cone_from_rays([(0, 1), (2, -1)])
    assert lattice_points_below(skew, (1, 1), 2) == [(0, 0), (0, 1), (1, 0), (2, -1)]


def test_lattice_points_lex_order_and_budget():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    pts = lattice_points_below(orthant, (1, 1), 9)
    assert pts == sorted(pts)
    with pytest.raises(BudgetExceeded):
        lattice_points_below(orthant, (1, 1), 100, budget=10)


def test_lattice_budget_counts_kept_points():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    pts = lattice_points_below(orthant, (1, 1), 9)
    assert len(pts) == 45
    assert lattice_points_below(orthant, (1, 1), 9, budget=45) == pts
    with pytest.raises(BudgetExceeded):
        lattice_points_below(orthant, (1, 1), 9, budget=44)


def test_lattice_budget_env_malformed(monkeypatch):
    orthant = cone_from_rays([(1, 0), (0, 1)])
    monkeypatch.setenv("CONESTAB_BUDGET", "abc")
    with pytest.raises(ParseError, match="CONESTAB_BUDGET"):
        lattice_points_below(orthant, (1, 1), 3)
    monkeypatch.setenv("CONESTAB_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        lattice_points_below(orthant, (1, 1), 3)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), strict=st.booleans())
def test_lattice_points_match_fraction_box_scan(seed, strict):
    # Ranks 2-4 and the level's numerator are drawn uniformly from the seed.
    rnd = random.Random(seed)
    rank, num = 2 + seed % 3, rnd.randint(0, 24)
    m_den, xi_den = rnd.randint(1, 3), rnd.randint(1, 3)
    s = random_cone(rnd, rank)
    c = s.weight_cone
    xi = tuple(x / xi_den for x in random_reeb(rnd, s))
    # The slice lies in the hull of the origin and the rays scaled onto <xi, .> = m.
    # Measure that hull at m = 1, divide the level until a box one wider than the
    # hull on every side holds at most 8000 points, and scan that box.
    unit = [(0,) * rank] + [tuple(x / dot(xi, r) for x in r) for r in c.rays]
    lo = [min(v[i] for v in unit) for i in range(rank)]
    hi = [max(v[i] for v in unit) for i in range(rank)]
    k = 1
    while prod(ceil(F(num, m_den * k) * (b - a)) + 3 for a, b in zip(lo, hi)) > 8000:
        k += 1
    m = F(num, m_den * k)
    box = [range(floor(m * a) - 1, ceil(m * b) + 2) for a, b in zip(lo, hi)]
    expected = [p for p in product(*box) if c.contains(p)
                and (dot(xi, p) < m if strict else dot(xi, p) <= m)]
    pts = lattice_points_below(c, xi, m, strict=strict)
    assert pts == expected
    assert all(type(p) is tuple and all(type(x) is int for x in p) for p in pts)


def test_lattice_count_matches_volume():
    # count / (m^n / n!) approaches n! * vol(unit slice) = 1 for the plane
    orthant = cone_from_rays([(1, 0), (0, 1)])
    m = 200
    count = len(lattice_points_below(orthant, (1, 1), m))
    est = F(count * 2, m ** 2)
    assert abs(est - 1) <= F(2, 100)


def test_dual_rejects_lower_dimensional():
    from conestab.errors import DegenerateCone
    with pytest.raises(DegenerateCone):
        cone_from_rays([(1, 0), (2, 0)])
    with pytest.raises(DegenerateCone):
        cone_from_rays([(1, 0), (-1, 0), (0, 1)])


def test_barycenter_degenerate_raises():
    from conestab.errors import ZeroVolume
    seg = Polytope(dim=2, vertices=((F(0), F(0)), (F(1), F(0))),
                   recession_rays=(), halfspaces=())
    with pytest.raises(ZeroVolume):
        barycenter(seg)
