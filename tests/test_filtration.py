import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import ceil, floor, gcd
from operator import le, mul, sub

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab.errors import (
    AmbientMismatch,
    BudgetExceeded,
    EmptyInput,
    IdentityViolated,
    NonpositiveScale,
    NotPrimary,
    OutsideWeightCone,
)
from conestab import estimators, filtration
from conestab.estimators import sweep_approx
from conestab.exactgeom import dot, enumerate_vertices, lattice_points_below, slice_vertices
from conestab.filtration import (
    approx_ord,
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
from conftest import (
    _box_scan,
    _reference_aggregate,
    pairwise_dp_orders,
    random_cone,
    random_filtration,
    random_reeb,
)

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


# A cone whose divisor filtration D = <(1, 0), .> vanishes on the weight-cone
# ray (0, 1): accepted as a non-primary filtration.
_BOUNDARY = from_rays([(1, 0), (1, 2)])


def _points(s):
    return lattice_points_below(s.weight_cone, (1, 1), 6)


def test_intersect_accepts_non_primary_inputs():
    s = _BOUNDARY
    F_, D = monomial_filtration(s, [(2, 1), (1, 1)]), toric_filtration(s, (1, 0))
    G = intersect(F_, D)
    assert G == intersect(D, F_) and intersect(D, D) == D
    assert all(G.ord(a) == min(F_.ord(a), D.ord(a)) for a in _points(s))


def test_geodesic_accepts_non_primary_inputs():
    s = _BOUNDARY
    F_, D = monomial_filtration(s, [(2, 1), (1, 1)]), toric_filtration(s, (1, 0))
    assert geodesic([D], [1]) == D
    G = geodesic([F_, D], [F(1, 3), F(2, 3)])
    assert all(G.ord(a) == F(1, 3) * F_.ord(a) + F(2, 3) * D.ord(a) for a in _points(s))


def test_twist_accepts_non_primary_inputs():
    # A non-primary transform may stay zero on a ray, never go negative.
    s = _BOUNDARY
    D = toric_filtration(s, (1, 0))
    assert twist(D, (0, 0)) == D
    assert twist(D, (1, 0)) == toric_filtration(s, (2, 0))
    assert twist(D, (1, 1)) == toric_filtration(s, (2, 1))
    with pytest.raises(NotPrimary, match=r"weight-cone ray \(0, 1\)"):
        twist(D, (0, -1))


def test_approximant_refuses_a_non_primary_filtration():
    # g vanishes on the weight-cone ray (0, 1), and so does every g_m <= g,
    # so no window is ever certified: NotPrimary comes before any enumeration.
    D = toric_filtration(_BOUNDARY, (1, 0))
    with pytest.raises(NotPrimary, match="approximant needs a primary filtration"):
        approximant(D, 2, budget=1000)


def _assert_canonical(F_):
    """den > 0 coprime to every entry, strictly sorted rows, and the record
    rebuilt from its own covectors."""
    rows, den = F_.transform
    assert den > 0 and gcd(den, *(a for z in rows for a in z)) == 1
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert F_ == monomial_filtration(F_.ambient, F_.covectors, require_primary=False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rank=st.sampled_from([2, 3]))
def test_every_constructor_gives_one_canonical_record(seed, rank):
    rnd = random.Random(seed)
    s = random_cone(rnd, rank)
    covs = [random_reeb(rnd, s) for _ in range(rnd.randint(1, 3))]  # interior: primary
    k, perm = rnd.randint(2, 6), rnd.sample(covs, len(covs))
    G = monomial_filtration(s, covs)
    for spelling in (perm, perm + perm[:1],
                     [tuple(f"{k * x.numerator}/{k * x.denominator}" for x in z) for z in perm]):
        assert monomial_filtration(s, spelling) == G
    H = toric_filtration(s, random_reeb(rnd, s))
    D = toric_filtration(s, rnd.choice(s.sigma.rays))  # a divisor: not primary
    weights = [F(rnd.randint(0, 3), rnd.randint(1, 3)) for _ in range(2)] + [F(1, 2)]
    made = [G, H, D, rescale(G, F(rnd.randint(1, 5), rnd.randint(1, 5))),
            geodesic([G, H, D], weights), intersect(G, D), intersect(G, H),
            twist(D, random_reeb(rnd, s))]
    try:
        made.append(twist(G, tuple(F(rnd.randint(-3, 3), rnd.randint(1, 3))
                                   for _ in range(rank))))
    except NotPrimary:
        event("twist left the primary filtrations")
    if rank == 2:
        try:
            made.append(approximant(G, rnd.randint(1, 2), budget=2000))
        except BudgetExceeded:
            event("approximant over budget")
    for F_ in made:
        _assert_canonical(F_)


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
        region = newton_polyhedron(Ftest)
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


def _random_window(seed):
    """C^2, the rank-3 non-simplicial cone or a skinny cone (by seed mod 3),
    a filtration with rational covectors, rescaled down so that blocks of
    small order matter, and a reference-weight window of up to ~170 points.
    A skinny cone's weight-cone rays pair with ell at up to 9, so many of
    its table's runs hold one point."""
    rnd = random.Random(seed)
    k, top = rnd.randint(5, 9), 12
    if seed % 3 == 2 and rnd.random() < 0.5:
        s, top = from_rays([(1, 0), (rnd.randint(-3, 3), k)]), 30
    else:
        s = from_rays(([(1, 0), (0, 1)], R3_RAYS, [(1, 0, 0), (0, 1, 0), (1, 1, k)])[seed % 3])
    F_ = rescale(random_filtration(rnd, s), F(1, rnd.randint(1, 3)))
    ell = s.sigma.interior_point()
    window = lattice_points_below(s.weight_cone, ell, rnd.randint(0, top), strict=False)
    return F_, ell, window


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(1, 5))
def test_approx_orders_match_pairwise_dp(seed, m):
    F_, ell, window = _random_window(seed)
    orders = pairwise_dp_orders(F_, m, window, ell)
    assert {p: approx_ord(F_, m, p) for p in window} == orders


def test_approx_ord_reads_approx_orders():
    # approx_ord runs the DP on the points below alpha only (a cold table
    # covers the window up to alpha's weight); a down-closed window holding
    # alpha must give alpha the same order.
    for seed in range(6):
        F_, ell, window = _random_window(seed)
        for m in (1, 2, 4):
            orders = pairwise_dp_orders(F_, m, window, ell)
            for a in random.Random(seed).sample(window, min(6, len(window))):
                filtration._approx_tables.cache_clear()
                assert approx_ord(F_, m, a) == orders[a]


def test_approximant_budget_names_window(c2):
    # g = (a + b) / 5 is 1/5 on both rays, so the window is W = 5 * 1 and
    # its 21 points at weight <= 5 hit budget 20.
    thin = monomial_filtration(c2, [(F(1, 5), F(1, 5))])
    with pytest.raises(BudgetExceeded, match=r"^approximant window 5: "
                       r"lattice enumeration exceeded budget 20$"):
        approximant(thin, 1, budget=20)
    assert approximant(thin, 1, budget=45) == toric_filtration(c2, (F(1, 5), F(1, 5)))


def _counted_vertex_scans(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)
    scan = filtration.enumerate_vertices
    monkeypatch.setattr(filtration, "enumerate_vertices", counted)
    filtration._approx_tables.cache_clear()
    return calls


def test_approximant_scans_its_computed_window_once(c2, monkeypatch):
    # W = 5 is computed from g and m, so one table and one vertex scan
    # suffice, and the 21 points at weight <= 5 fit budget 21.
    calls = _counted_vertex_scans(monkeypatch)
    thin = monomial_filtration(c2, [(F(1, 5), F(1, 5))])
    assert approximant(thin, 1, budget=21) == toric_filtration(c2, (F(1, 5), F(1, 5)))
    assert len(calls) == 1


def test_approximant_budget_stops_before_any_vertex_scan(monkeypatch):
    # Rank 3: g = <(7/6, 1/3, 2/3), .> is 2/3, 1/3, 7/6, 5/6 on the
    # weight-cone rays, each of weight 2, so W = ceil(6 / (1/3)) * 2 = 36 at
    # m = 6, and its points exceed budget 2000 before any vertex scan.
    calls = _counted_vertex_scans(monkeypatch)
    s = from_rays(R3_RAYS)
    G = monomial_filtration(s, [(F(7, 6), F(1, 3), F(2, 3))])
    with pytest.raises(BudgetExceeded, match=r"^approximant window 36: "
                       r"lattice enumeration exceeded budget 2000$"):
        approximant(G, 6, budget=2000)
    assert calls == []


def test_approximant_missing_blocks_raise_identity_violated(c2, monkeypatch):
    # W = 4 for g = <(2/3, 1/4), .> at m = 1.  A table one weight short of
    # it keeps the blocks (2, 0) and (1, 2) but misses (0, 4), so the vertex
    # (1, 0) of their Theta pairs to 0 < m / W with the ray (0, 1).
    filtration._approx_tables.cache_clear()
    monkeypatch.setattr(filtration, "_approx_table", lambda F_, key, window, budget:
                        filtration._build_approx_table(F_, key[-1], window - 1, budget))
    G = monomial_filtration(c2, [(F(2, 3), F(1, 4))])
    with pytest.raises(IdentityViolated, match=r"^approximant window 4 is not certified "
                       r"at level 1$"):
        approximant(G, 1)


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


def test_approximation_level_must_be_a_positive_int(c2, fex):
    # A float, Fraction or bool level is named before any table is read;
    # an int below 1 keeps its own message.
    calls = (lambda m: approx_ord(fex, m, (1, 1)),
             lambda m: approximant(fex, m),
             lambda m: sweep_approx(c2, (1, 1), fex, m, [1, 2]))
    for call in calls:
        for bad in (2.5, 1.5, F(3), True):
            with pytest.raises(EmptyInput, match=rf"^approximation level must be a positive "
                               rf"integer, got {re.escape(repr(bad))}$"):
                call(bad)
        for low in (0, -3):
            with pytest.raises(EmptyInput, match=r"^approximation level must be >= 1$"):
                call(low)


def test_approx_ord_names_a_rational_exponent(c2, fex):
    # (1/2, 1/2) lies in the weight cone but is no lattice point.
    with pytest.raises(OutsideWeightCone, match=r"^exponent \(1/2, 1/2\) is not a lattice point$"):
        approx_ord(fex, 2, ("1/2", "1/2"))
    with pytest.raises(OutsideWeightCone, match="is not in the weight cone$"):
        approx_ord(fex, 2, ("-1/2", 1))
    assert approx_ord(fex, 2, ("2", "1/1")) == _old_approx_ord(fex, 2, (2, 1)) == 3


# The approximation before the shared tables, kept as the cold reference:
# each call enumerates its own window and runs its own block scan.

def _old_blocks(F_, m, pts):
    def order(gamma):
        return floor(F_.ord(gamma))
    ell = F_.ambient.sigma.interior_point()
    hs = F_.ambient.weight_cone.halfspaces
    cons = sorted(((gamma, v) for gamma in pts if (v := min(order(gamma), m)) >= 1),
                  key=lambda cv: (-cv[1], sum(map(mul, ell, cv[0])), cv[0]))
    kept, keys = [], []
    for gamma, v in cons:
        key = [sum(map(mul, h, gamma)) for h in hs]
        if not any(all(map(le, k, key)) for k in keys):
            kept.append((gamma, v))
            keys.append(key)
    return kept


def _old_approx_orders(F_, m, pts):
    kept = _old_blocks(F_, m, pts)
    ell = F_.ambient.sigma.interior_point()
    best = {}
    for p in sorted(pts, key=lambda p: sum(map(mul, ell, p))):
        value = 0
        for q, v in kept:
            rest = best.get(tuple(map(sub, p, q)))
            if rest is not None and v + rest > value:
                value = v + rest
        best[p] = value
    return best


def _old_approx_ord(F_, m, alpha, budget=None):
    wc = F_.ambient.weight_cone
    ell = F_.ambient.sigma.interior_point()
    pts = lattice_points_below(wc, ell, dot(ell, alpha), budget=budget, strict=False)
    tops = [dot(h, alpha) for h in wc.halfspaces]
    partners = [g for g in pts
                if all(sum(map(mul, h, g)) <= t for h, t in zip(wc.halfspaces, tops))]
    return _old_approx_orders(F_, m, partners)[tuple(alpha)]


def _old_approximant(F_, m, budget=None):
    s = F_.ambient
    rays = s.weight_cone.rays
    ell = s.sigma.interior_point()
    unit = slice_vertices(s.weight_cone.rays, ell)
    window = 2 * m * max(1, max(dot(ell, r) for r in rays))
    for doublings in range(24):
        if doublings:
            window *= 2
        try:
            pts = lattice_points_below(s.weight_cone, ell, window, budget=budget, strict=False)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"approximant window {window} after "
                                 f"{doublings} doublings: {exc}") from exc
        kept = _old_blocks(F_, m, pts)
        hs = [(tuple(-x for x in gamma), -v) for gamma, v in kept]
        hs += [(tuple(-x for x in r), 0) for r in rays]
        thetas = enumerate_vertices(hs, s.rank)
        if kept and all(min(dot(theta, a) for a in unit) * window >= m for theta in thetas):
            return monomial_filtration(s, thetas)
    raise AssertionError("uncertified")


def _old_sweep_approx(s, xi0, F_, m, levels, budget=None):
    ell = s.sigma.interior_point()
    pts = lattice_points_below(s.weight_cone, xi0, max(levels) + 1, budget=budget)
    window = lattice_points_below(s.weight_cone, ell, max(dot(ell, p) for p in pts),
                                  strict=False, budget=budget)
    orders = _old_approx_orders(F_, m, window)
    return _reference_aggregate(s, xi0, levels, orders.__getitem__, pts).to_json()


def _rows_json(sw):
    return estimators.EstimatorSweep(levels=sw.levels, per_level=sw.per_level).to_json()


def _message(call):
    try:
        call()
    except BudgetExceeded as exc:
        return str(exc)
    raise AssertionError("no BudgetExceeded")


_CONES = {1: from_rays([(1,)]), 2: from_rays([(1, 0), (0, 1)]), 3: from_rays(R3_RAYS)}


@st.composite
def _table_sequences(draw):
    """A filtration of rank 1-3 (covector denominators above 1 through
    rescale), a level m and a shuffled sequence of calls on (F, m) whose
    windows grow and shrink."""
    rank = draw(st.sampled_from([1, 2, 3]))
    s = _CONES[rank]
    k = draw(st.integers(1, 3))
    F_ = rescale(random_filtration(random.Random(draw(st.integers(0, 2 ** 32))), s), F(1, k))
    m = draw(st.integers(1, 5))
    top = 8 if rank < 3 else 4
    point = st.tuples(*[st.integers(0, top)] * rank).filter(s.weight_cone.contains)
    op = st.one_of(st.tuples(st.just("approx_ord"), point),
                   st.tuples(st.just("sweep_approx"), st.integers(1, top)),
                   st.just(("approximant", None)))
    ops = draw(st.lists(op, min_size=1, max_size=6))
    return s, F_, m, ops


def _approximant_window(F_, m):
    """W = max over the weight-cone rays r of ceil(m / g(r)) <ell, r>."""
    s = F_.ambient
    ell = s.sigma.interior_point()
    return max(ceil(m / F_.ord(r)) * dot(ell, r) for r in s.weight_cone.rays)


def _window_count(s, w):
    return len(lattice_points_below(s.weight_cone, s.sigma.interior_point(), w, strict=False))


def _entry_and_reference(s, F_, m, name, arg):
    """The call named ``name`` and its cold reference, as functions of the budget."""
    xi0 = s.sigma.interior_point()
    if name == "approx_ord":
        return (lambda b: approx_ord(F_, m, arg, budget=b),
                lambda b: _old_approx_ord(F_, m, arg, budget=b))
    if name == "sweep_approx":
        return (lambda b: _rows_json(sweep_approx(s, xi0, F_, m, [1, arg], budget=b)),
                lambda b: _old_sweep_approx(s, xi0, F_, m, [1, arg], budget=b))
    return (lambda b: approximant(F_, m, budget=b),
            lambda b: _old_approximant(F_, m, budget=b))


@settings(max_examples=40, deadline=None)
@given(case=_table_sequences())
def test_shared_tables_match_cold_reference(case):
    # Each call reads or grows the (F, m) table left by the calls before it
    # and must return what the per-call reference computes cold; one short
    # of its window's point count it must raise the reference's message,
    # and at the count it must pass.
    s, F_, m, ops = case
    xi0 = s.sigma.interior_point()
    filtration._approx_tables.cache_clear()
    for name, arg in ops:
        new, old = _entry_and_reference(s, F_, m, name, arg)
        assert new(None) == old(None)
        if name == "approx_ord":
            count = _window_count(s, dot(xi0, arg))
        elif name == "sweep_approx":  # xi0 = ell: the points of weight < arg + 1
            count = _window_count(s, arg)
        else:  # the approximant's: that of the window W computed from F_ and m
            W = _approximant_window(F_, m)
            count = _window_count(s, W)
            assert _message(lambda: new(count - 1)) == (
                f"approximant window {W}: lattice enumeration exceeded budget {count - 1}")
            assert new(count) == old(None)
            continue
        assert _message(lambda: new(count - 1)) == _message(lambda: old(count - 1))
        assert new(count) == old(count)
    windows = [lattice_points_below(s.weight_cone, xi0, w, strict=False) for w in (0, 3, 6)]
    for window in windows:
        orders = {p: approx_ord(F_, m, p) for p in window}
        assert orders == _old_approx_orders(F_, m, window)
        assert orders == pairwise_dp_orders(F_, m, window, xi0)


def test_one_key_builds_one_table(c2, fex, monkeypatch):
    # sweep_approx, approximant and approx_ord on one (F, m) share one
    # table: the first call's window holds the others', and a budget
    # failure on a hit names the same window as a cold call.
    builds = []

    def counted(*args):
        builds.append(args[2])
        return build(*args)
    build = filtration._build_approx_table
    monkeypatch.setattr(filtration, "_build_approx_table", counted)
    filtration._approx_tables.cache_clear()
    G = monomial_filtration(c2, [(F(1, 5), F(1, 5))])
    sweep_approx(c2, (1, 1), G, 1, range(1, 21))
    assert approximant(G, 1) == toric_filtration(c2, (F(1, 5), F(1, 5)))
    assert approx_ord(G, 1, (3, 4)) == _old_approx_ord(G, 1, (3, 4)) == 1
    assert builds == [20]
    with pytest.raises(BudgetExceeded, match=r"^approximant window 5: "
                       r"lattice enumeration exceeded budget 20$"):
        approximant(G, 1, budget=20)
    with pytest.raises(BudgetExceeded, match=r"^lattice enumeration exceeded budget 35$"):
        approx_ord(G, 1, (3, 4), budget=35)
    assert approx_ord(G, 1, (3, 4), budget=36) == 1
    approx_ord(G, 1, (30, 0))  # a larger window replaces the table
    assert builds == [20, 30]
    assert approximant(fex, 3) == fex and builds == [20, 30, 3]


# ---------------------------------------------------------------------------
# The approximation table read off the chambers' simplicial cones against
# the per-point references.

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), m=st.integers(1, 5), grow=st.booleans())
def test_table_matches_the_per_point_references(seed, m, grow):
    # Ranks 1-3, the rank-3 cone of R3_RAYS not simplicial, covector
    # denominators above 1 through rescale.  The table holds the box scan's
    # window points, each with the pairwise DP's order; its blocks are the
    # block scan's and its counts those of the points per <ell, .>; a table
    # grown from a smaller stored one is the same.  The runs lay out the
    # orders, each point once.
    rnd = random.Random(seed)
    rank = 1 + seed % 3
    s = from_rays(R3_RAYS) if rank == 3 and rnd.random() < 0.5 else random_cone(rnd, rank)
    F_ = rescale(random_filtration(rnd, s), F(1, rnd.randint(1, 3)))
    ell = s.sigma.interior_point()
    window = rnd.randint(0, 10 * max(sum(map(mul, ell, r)) for r in s.weight_cone.rays))
    while _window_count(s, window) > 1500:
        window //= 2
    pts = _box_scan(s.weight_cone, ell, window, False)
    key = filtration._approx_key(F_, m)
    filtration._approx_tables.cache_clear()
    if grow:
        filtration._approx_table(F_, key, window // 2, 10 ** 7)
    table = filtration._approx_table(F_, key, window, 10 ** 7)
    assert table.window == window
    orders = {tuple(a + t * b for a, b in zip(p, r)): table.orders[start + t]
              for p, r, k, start in table.runs for t in range(k)}
    assert orders == pairwise_dp_orders(F_, m, pts, ell)
    assert len(table.orders) == len(pts)
    assert [start for *_, start in table.runs] == list(
        accumulate((k for _, _, k, _ in table.runs), initial=0))[:-1]
    assert table.blocks == tuple((g, v, dot(ell, g)) for g, v in _old_blocks(F_, m, pts))
    weights = Counter(sum(map(mul, ell, p)) for p in pts)
    assert table.counts == list(accumulate(weights[k] for k in range(window + 1)))
    event(f"rank {rank}, {'grown' if grow else 'cold'}, {'some' if table.blocks else 'no'} blocks")


def test_stored_table_keeps_its_orders_in_run_order():
    # The 63,546-point table of C^2 under min((2,1), (1,3), (3,2)) at m = 4
    # on the window 355 keeps one order list in run order: it holds under
    # 2.5 MB, where a dict of orders by code held 6.2 MB, and its build
    # peaks no higher than then (15.5 MB, tracemalloc).
    G = monomial_filtration(from_rays([(1, 0), (0, 1)]), [(2, 1), (1, 3), (3, 2)])
    key = filtration._approx_key(G, 4)
    filtration._approx_tables.cache_clear()
    tracemalloc.start()
    try:
        table = filtration._approx_table(G, key, 355, 10 ** 7)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (table.counts[-1], filtration._approx_tables.cache_info().currsize) == (63546, 1)
    assert held < 2.5e6 and peak < 16e6
