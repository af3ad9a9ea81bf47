import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.errors import (
    AmbientMismatch,
    BudgetExceeded,
    EmptyInput,
    NonpositiveScale,
    NotPrimary,
    OutsideWeightCone,
)
from conestab.exactgeom import dot, lattice_points_below
from conestab.filtration import (
    approx_ord,
    approx_orders,
    approximant,
    geodesic,
    intersect,
    monomial_filtration,
    newton_polyhedron,
    ord_of,
    rescale,
    toric_filtration,
    twist,
    value_under,
)
from conestab.invariants import s_closed
from conestab.singularity import from_rays
from conftest import random_cone, random_filtration, random_reeb

F = Fraction

R3_RAYS = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_toric_filtration_examples(c2, a1):
    assert toric_filtration(c2, (1, 1)).covectors == ((1, 1),)
    assert toric_filtration(c2, (1, 2)).covectors == ((1, 2),)
    assert toric_filtration(a1, (1, 1)).covectors == ((1, 1),)


def test_primarity_rejection(c2):
    with pytest.raises(NotPrimary):
        monomial_filtration(c2, [(1, -1)])
    with pytest.raises(NotPrimary):
        monomial_filtration(c2, [(0, 1)])  # vanishes on a dual ray
    # boundary covectors are allowed for divisor-type filtrations
    monomial_filtration(c2, [(0, 1)], require_primary=False)


def test_rescale(c2, fex):
    triv = toric_filtration(c2, (1, 1))
    assert rescale(triv, 2) == toric_filtration(c2, (2, 2))
    assert rescale(fex, 1) == fex
    assert rescale(rescale(fex, F(5, 3)), F(3, 5)) == fex
    with pytest.raises(NonpositiveScale):
        rescale(fex, 0)


def test_twist(c2, fex):
    assert twist(toric_filtration(c2, (2, 3)), (1, 1)) == toric_filtration(c2, (3, 4))
    assert twist(fex, (0, 0)) == fex
    assert twist(fex, (1, 1)).covectors == ((2, 3), (3, 2))
    with pytest.raises(NotPrimary):
        twist(fex, (-5, -5))


def test_twist_rescale_compose(c2, fex):
    a = F(3, 2)
    xi = (F(1), F(2))
    got = rescale(twist(fex, xi), a)
    want = sorted(tuple(a * (z + x) for z, x in zip(cov, xi)) for cov in fex.covectors)
    assert sorted(got.covectors) == want


def test_geodesic_examples(c2, fex):
    f11 = toric_filtration(c2, (1, 1))
    f13 = toric_filtration(c2, (1, 3))
    assert geodesic([f11, f13], [F(1, 2), F(1, 2)]) == toric_filtration(c2, (1, 2))
    assert geodesic([fex], [1]) == fex
    g = geodesic([monomial_filtration(c2, [(2, 1)]), monomial_filtration(c2, [(1, 2)])],
                 [F(1, 2), F(1, 2)])
    assert g == toric_filtration(c2, (F(3, 2), F(3, 2)))
    with pytest.raises(EmptyInput):
        geodesic([], [])
    with pytest.raises(EmptyInput):
        geodesic([fex], [0])


def test_geodesic_ord_is_linear(c2):
    rnd = random.Random(41)
    for _ in range(10):
        fa = random_filtration(rnd, c2)
        fb = random_filtration(rnd, c2)
        w = F(rnd.randint(1, 4), 5)
        g = geodesic([fa, fb], [1 - w, w])
        for alpha in lattice_points_below(c2.weight_cone, (1, 1), 7):
            assert ord_of(g, alpha) == (1 - w) * ord_of(fa, alpha) + w * ord_of(fb, alpha)


def test_intersect(c2, fex):
    assert intersect(monomial_filtration(c2, [(2, 1)]),
                     monomial_filtration(c2, [(1, 2)])) == fex
    assert intersect(fex, fex) == fex
    assert intersect(toric_filtration(c2, (1, 1)),
                     toric_filtration(c2, (2, 2))) == toric_filtration(c2, (1, 1))


def test_intersect_algebra(c2):
    rnd = random.Random(43)
    for _ in range(8):
        fa = random_filtration(rnd, c2)
        fb = random_filtration(rnd, c2)
        fc = random_filtration(rnd, c2)
        assert intersect(fa, fb) == intersect(fb, fa)
        assert intersect(intersect(fa, fb), fc) == intersect(fa, intersect(fb, fc))
        assert intersect(fa, fa) == fa


def test_intersect_ambient_mismatch(c2, a1):
    with pytest.raises(AmbientMismatch):
        intersect(toric_filtration(c2, (1, 1)), toric_filtration(a1, (1, 1)))


def test_newton_polyhedron(c2, fex):
    assert sorted(newton_polyhedron(toric_filtration(c2, (1, 1))).vertices) == \
        [(0, 1), (1, 0)]
    assert sorted(newton_polyhedron(fex).vertices) == \
        [(0, 1), (F(1, 3), F(1, 3)), (1, 0)]
    assert sorted(newton_polyhedron(toric_filtration(c2, (1, 2))).vertices) == \
        [(0, F(1, 2)), (1, 0)]


def test_gauge_of_newton_region_reproduces_transform(c2, fex):
    # saturation identity, checked against the halfspace description of the
    # Newton region: alpha/g(alpha) sits in N, alpha over anything larger
    # falls out, so the gauge of N equals the transform
    rnd = random.Random(47)
    for Ftest in [fex, random_filtration(rnd, c2), random_filtration(rnd, c2)]:
        region = newton_polyhedron(Ftest).polytope
        for alpha in lattice_points_below(c2.weight_cone, (1, 1), 6):
            g = ord_of(Ftest, alpha)
            if g == 0:
                continue
            assert region.contains(tuple(F(x) / g for x in alpha))
            above = g * F(101, 100)
            assert not region.contains(tuple(F(x) / above for x in alpha))


def test_value_under(c2, fex):
    assert value_under(toric_filtration(c2, (1, 1)), (1, 1)) == 1
    assert value_under(fex, (1, 1)) == F(2, 3)
    assert value_under(toric_filtration(c2, (1, 1)), (1, 2)) == 1


def test_ord_of(c2, fex):
    assert ord_of(fex, (1, 0)) == 1
    assert ord_of(fex, (0, 0)) == 0
    assert ord_of(fex, (1, 1)) == 3
    with pytest.raises(OutsideWeightCone):
        ord_of(fex, (-1, 0))


def test_approx_ord_examples(c2, fex):
    assert approx_ord(fex, 3, (1, 1)) == 3
    assert approx_ord(fex, 5, (1, 1)) == 3
    assert approx_ord(toric_filtration(c2, (1, 1)), 1, (5, 0)) == 5
    assert approx_ord(fex, 2, (0, 0)) == 0
    with pytest.raises(EmptyInput):
        approx_ord(fex, 0, (1, 1))


def test_approx_ord_bounds_and_monotone(c2):
    rnd = random.Random(53)
    for _ in range(5):
        Ft = random_filtration(rnd, c2)
        pts = lattice_points_below(c2.weight_cone, (1, 1), 6)
        prev = None
        for m in (1, 2, 3, 5, 8):
            vals = [approx_ord(Ft, m, a) for a in pts]
            for v, a in zip(vals, pts):
                assert v <= floor(ord_of(Ft, a))
                if ord_of(Ft, a) <= m:
                    assert v == floor(ord_of(Ft, a))
            if prev is not None:
                assert all(v >= p for v, p in zip(vals, prev))
            prev = vals


def _pairwise_dp_orders(F_, m, pts, ell):
    """Reference: the O(P^2) DP trying every earlier point as a block."""
    pts = sorted(pts, key=lambda p: (dot(ell, p), p))
    best = {}
    order = []
    for p in pts:
        if all(x == 0 for x in p):
            best[p] = 0
            order.append(p)
            continue
        value = min(floor(F_.ord(p)), m)
        wp = dot(ell, p)
        for q in order:
            if all(x == 0 for x in q):
                continue
            if dot(ell, q) > wp:
                break
            rest = tuple(a - b for a, b in zip(p, q))
            prev = best.get(rest)
            if prev is not None:
                cand = min(floor(F_.ord(q)), m) + prev
                if cand > value:
                    value = cand
        best[p] = value
        order.append(p)
    return best


def _random_window(seed):
    """C^2 (even seeds) or the rank-3 non-simplicial cone (odd seeds), a
    filtration with rational covectors, rescaled down so that blocks of
    small order matter, and a reference-weight window of up to ~140 points."""
    rnd = random.Random(seed)
    s = from_rays(R3_RAYS) if seed % 2 else from_rays([(1, 0), (0, 1)])
    F_ = rescale(random_filtration(rnd, s), F(1, rnd.randint(1, 3)))
    ell = s.sigma.interior_point()
    window = lattice_points_below(s.weight_cone, ell, rnd.randint(0, 12), strict=False)
    return F_, ell, window


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(1, 5))
def test_approx_orders_match_pairwise_dp(seed, m):
    F_, ell, window = _random_window(seed)
    assert approx_orders(F_, m, window) == _pairwise_dp_orders(F_, m, window, ell)


def test_approx_ord_reads_approx_orders():
    # approx_ord runs the DP on the points below alpha only; a down-closed
    # window holding alpha must give alpha the same order.
    for seed in range(6):
        F_, _, window = _random_window(seed)
        for m in (1, 2, 4):
            orders = approx_orders(F_, m, window)
            for a in random.Random(seed).sample(window, min(6, len(window))):
                assert approx_ord(F_, m, a) == orders[a]


def test_approximant_budget_names_window(c2):
    # g = (a + b) / 5 keeps every block below weight 5, so the window
    # doubles 2 -> 4 -> 8 before the 45 points at weight <= 8 hit budget 20.
    thin = monomial_filtration(c2, [(F(1, 5), F(1, 5))])
    with pytest.raises(BudgetExceeded, match=r"^approximant window 8 after 2 doublings: "
                       r"lattice enumeration exceeded budget 20$"):
        approximant(thin, 1, budget=20)
    assert approximant(thin, 1, budget=45) == toric_filtration(c2, (F(1, 5), F(1, 5)))


def _ideal(F_, m, lam, window_pts):
    return {a for a in window_pts if approx_ord(F_, m, a) >= lam}


def _minkowski_power(points, base, l, window_pts):
    """l-fold sums of base points, clipped to the window and saturated up."""
    sums = {(0, 0)}
    for _ in range(l):
        sums = {tuple(x + y for x, y in zip(p, q)) for p in sums for q in base}
    out = set()
    for a in window_pts:
        for s in sums:
            diff = tuple(x - y for x, y in zip(a, s))
            if all(d >= 0 for d in diff):
                out.add(a)
                break
    return out


def test_approximant_multiplicative_at_divisible_level(c2, fex):
    # F_m^{d l} = (F_m^d)^l for sufficiently divisible d: search small d
    m = 2
    window_pts = lattice_points_below(c2.weight_cone, (1, 1), 9)
    found = None
    for d in (m, 2 * m, 3 * m):
        ok = True
        base = _ideal(fex, m, d, window_pts)
        for l in (2, 3):
            lhs = _ideal(fex, m, d * l, window_pts)
            rhs = _minkowski_power(window_pts, base, l, window_pts)
            big = {a for a in lhs if sum(a) + d * l <= 9}  # stay inside window
            if not all((a in rhs) == (a in lhs) for a in window_pts
                       if sum(a) <= 9 - 2):
                ok = False
                break
        if ok:
            found = d
            break
    assert found is not None


def test_approximant_reaches_source(c2, fex):
    assert approximant(fex, 3) == fex
    assert approximant(fex, 5) == fex
    f1 = approximant(fex, 1)
    assert f1 == toric_filtration(c2, (1, 1))  # degree-one blocks only


def test_approximant_orders_dominate_dp(c2, fex):
    for m in (1, 2, 3):
        env = approximant(fex, m)
        for a in lattice_points_below(c2.weight_cone, (1, 1), 7):
            assert env.ord(a) >= approx_ord(fex, m, a)


def test_saturation_rigidity_strict_inclusion_increases_s(c2):
    rnd = random.Random(59)
    for _ in range(10):
        Ft = random_filtration(rnd, c2)
        # strict enlargement by twisting with an interior coweight
        xi = random_reeb(rnd, c2)
        bigger = twist(Ft, xi)
        assert s_closed(c2, (1, 1), bigger) > s_closed(c2, (1, 1), Ft)
        # dropping one covector of a genuinely reduced pair also enlarges
        if len(Ft.covectors) >= 2:
            dropped = monomial_filtration(c2, Ft.covectors[:-1])
            if dropped != Ft:
                assert s_closed(c2, (1, 1), dropped) > s_closed(c2, (1, 1), Ft)
