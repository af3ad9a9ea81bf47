import random
from fractions import Fraction

import pytest

from conestab.errors import FutakiNonvanishing, IdentityViolated
from conestab.exactgeom import dot
from conestab.filtration import (
    geodesic,
    intersect,
    monomial_filtration,
    rescale,
    toric_filtration,
    twist,
)
from conestab.invariants import (
    coercivity_constant_sq,
    delta_T,
    delta_red_objective,
    ding,
    futaki_derivative,
    futaki_product,
    inf_twist_s,
    j_norm,
    lambda_max_closed,
    lambda_min_closed,
    lct_monomial,
    nvol,
    okounkov_body,
    quotient_norm_sq,
    reduced_j,
    s_closed,
    semistable_verdict,
    twisted_lambda_max,
    vol,
    vol_derivative,
)
from conestab.singularity import from_rays, log_discrepancy
from conftest import random_filtration, random_instance, random_reeb

F = Fraction


# --- Okounkov body and volumes ---------------------------------------------

def test_okounkov_bodies(c2, a1):
    O = okounkov_body(c2, (1, 1))
    assert (O.vol, O.bary, O.alpha0) == (F(1, 2), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
    O = okounkov_body(c2, (1, 2))
    assert (O.vol, O.bary, O.alpha0) == (F(1, 4), (F(1, 3), F(1, 6)), (F(1, 2), F(1, 4)))
    O = okounkov_body(a1, (1, 1))
    assert (O.vol, O.bary, O.alpha0) == (F(1), (F(2, 3), F(0)), (F(1), F(0)))


def test_vol_nvol(c2, a1):
    assert vol(c2, (1, 1)) == 1 and vol(c2, (1, 2)) == F(1, 2) and vol(a1, (1, 1)) == 2
    assert nvol(c2, (1, 1)) == 4 and nvol(a1, (1, 1)) == 2 and nvol(c2, (1, 2)) == F(9, 2)


def test_nvol_scale_invariant(c2):
    rnd = random.Random(61)
    for _ in range(10):
        xi = random_reeb(rnd, c2)
        c = F(rnd.randint(1, 7), rnd.randint(1, 3))
        assert nvol(c2, tuple(c * x for x in xi)) == nvol(c2, xi)


# --- S, slopes, lct, Ding ---------------------------------------------------

def test_s_closed_values(c2, fex):
    assert s_closed(c2, (1, 1), toric_filtration(c2, (1, 1))) == 1
    assert s_closed(c2, (1, 1), fex) == F(5, 4)
    divisor = monomial_filtration(c2, [(1, 0)], require_primary=False)
    assert s_closed(c2, (1, 1), divisor) == F(1, 2)


def test_s_of_polarization_is_one():
    rnd = random.Random(67)
    for _ in range(25):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        assert s_closed(s, xi0, toric_filtration(s, xi0)) == 1


def test_s_of_divisor_filtration():
    # S(v; divisor x1=0) = 1 / (n * v(divisor)) on the smooth surface
    rnd = random.Random(71)
    s = from_rays([(1, 0), (0, 1)])
    divisor = monomial_filtration(s, [(1, 0)], require_primary=False)
    for _ in range(10):
        xi = random_reeb(rnd, s)
        assert s_closed(s, xi, divisor) == 1 / (2 * xi[0])


def test_lambda_extremes(c2, fex):
    assert lambda_max_closed(c2, (1, 1), toric_filtration(c2, (1, 2))) == 2
    assert lambda_max_closed(c2, (1, 1), fex) == F(3, 2)
    assert lambda_max_closed(c2, (1, 1), toric_filtration(c2, (1, 1))) == 1
    assert lambda_min_closed(c2, (1, 1), fex) == 1
    assert lambda_min_closed(c2, (1, 1), toric_filtration(c2, (1, 1))) == 1
    assert lambda_min_closed(c2, (1, 1), toric_filtration(c2, (1, 2))) == 1


def test_lct_examples(c2, fex, half_boundary):
    assert lct_monomial(c2, toric_filtration(c2, (1, 1))).value == 2
    assert lct_monomial(half_boundary,
                        toric_filtration(half_boundary, (1, 1))).value == F(3, 2)
    res = lct_monomial(c2, fex)
    assert res.value == 3


def test_lct_toric_minimizer_beats_sampling(c2, fex):
    # 10^4 random interior directions never beat the LP optimum
    rnd = random.Random(73)
    verts = [(1, 0), (F(1, 3), F(1, 3)), (0, 1)]
    best = lct_monomial(c2, fex).value
    for _ in range(10 ** 4):
        xi = (F(rnd.randint(1, 40)), F(rnd.randint(1, 40)))
        value = min(dot(xi, v) for v in verts)
        assert dot(c2.u, xi) / value >= best


def test_ding_examples(c2, fex):
    assert ding(c2, (1, 1), fex) == F(1, 2)
    assert ding(c2, (1, 1), toric_filtration(c2, (4, 7))) == 0
    assert ding(c2, (1, 2), toric_filtration(c2, (1, 0))) == F(-1, 2)


# --- twist identities (exact, randomized) -----------------------------------

def test_twist_identities_random():
    rnd = random.Random(79)
    for _ in range(100):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        xi = random_reeb(rnd, s)
        tw = twist(Ft, xi)
        assert lct_monomial(s, tw).value == \
            lct_monomial(s, Ft).value + log_discrepancy(s, xi)
        assert s_closed(s, xi0, tw) == \
            s_closed(s, xi0, Ft) + s_closed(s, xi0, toric_filtration(s, xi))
        a = F(rnd.randint(1, 6), rnd.randint(1, 3))
        ta = twist(Ft, tuple(a * x for x in xi0))
        assert lambda_max_closed(s, xi0, ta) == lambda_max_closed(s, xi0, Ft) + a
        assert lambda_min_closed(s, xi0, ta) == lambda_min_closed(s, xi0, Ft) + a


# --- geodesics ---------------------------------------------------------------

def test_s_linear_lambda_max_convex_along_geodesics():
    rnd = random.Random(83)
    for _ in range(40):
        s, xi0, fa = random_instance(rnd, rnd.choice([2, 3]))
        fb = random_filtration(rnd, s)
        t = F(rnd.randint(1, 4), 5)
        ft = geodesic([fa, fb], [1 - t, t])
        assert s_closed(s, xi0, ft) == \
            (1 - t) * s_closed(s, xi0, fa) + t * s_closed(s, xi0, fb)
        assert lambda_max_closed(s, xi0, ft) <= \
            (1 - t) * lambda_max_closed(s, xi0, fa) + t * lambda_max_closed(s, xi0, fb)


def test_s_concave_under_intersection_vs_geodesic():
    # intersection sits inside the geodesic midpoint, so S can only drop
    rnd = random.Random(89)
    for _ in range(30):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        ha = random_reeb(rnd, s)
        hb = random_reeb(rnd, s)
        fa, fb = toric_filtration(s, ha), toric_filtration(s, hb)
        mid = geodesic([fa, fb], [F(1, 2), F(1, 2)])
        meet = intersect(fa, fb)
        chord = (s_closed(s, xi0, fa) + s_closed(s, xi0, fb)) / 2
        assert s_closed(s, xi0, meet) <= chord
        assert s_closed(s, xi0, mid) == chord  # linear on the toric cone
        if fa != fb:
            assert s_closed(s, xi0, meet) < chord


# --- J-norm -------------------------------------------------------------------

def test_j_norm_values(c2, fex):
    assert j_norm(c2, (1, 1), toric_filtration(c2, (1, 1))) == 0
    assert j_norm(c2, (1, 1), fex) == F(1, 4)
    assert j_norm(c2, (1, 1), toric_filtration(c2, (1, 2))) == F(1, 2)


def test_j_zero_iff_rescaled_twist_of_polarization():
    rnd = random.Random(97)
    for _ in range(30):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        j = j_norm(s, xi0, Ft)
        assert j >= 0
        trivial = rescale(toric_filtration(s, xi0), lambda_max_closed(s, xi0, Ft))
        assert (j == 0) == (Ft == trivial)
        # constructive zero: every rescaling of the polarization has J = 0
        a = F(rnd.randint(1, 5), rnd.randint(1, 3))
        assert j_norm(s, xi0, rescale(toric_filtration(s, xi0), a)) == 0


def test_j_midpoint_convexity_in_twist():
    rnd = random.Random(101)
    for _ in range(100):
        s, xi0, Ft = random_instance(rnd, 2)
        xa, xb = random_reeb(rnd, s), random_reeb(rnd, s)
        mid = tuple((a + b) / 2 for a, b in zip(xa, xb))
        jm = j_norm(s, xi0, twist(Ft, mid))
        ja = j_norm(s, xi0, twist(Ft, xa))
        jb = j_norm(s, xi0, twist(Ft, xb))
        assert 2 * jm <= ja + jb


def test_j_coercivity_bound():
    rnd = random.Random(103)
    for _ in range(60):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        c_sq = coercivity_constant_sq(s, xi0)
        assert c_sq > 0
        xi = random_reeb(rnd, s)
        lhs = j_norm(s, xi0, twist(Ft, xi)) + s_closed(s, xi0, Ft)
        assert lhs >= 0
        # J(F_xi) + S(F) >= C |xi mod xi0|, compared in squares
        assert lhs * lhs >= c_sq * quotient_norm_sq(xi, xi0)


# --- norm equivalence and sandwich -------------------------------------------

def test_norm_equivalence_toric_valuations():
    rnd = random.Random(107)
    for _ in range(60):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        n = s.rank
        w = random_reeb(rnd, s)
        Fw = toric_filtration(s, w)
        lmax = lambda_max_closed(s, xi0, Fw)
        lmin = lambda_min_closed(s, xi0, Fw)
        sv = s_closed(s, xi0, Fw)
        j = lmax - sv
        mid = sv - lmin
        assert F(1, n) * (lmax - lmin) <= mid <= (1 - F(1, n)) * (lmax - lmin)
        assert F(1, n - 1) * j <= mid <= (n - 1) * j


def test_sandwich_reduced_j_vs_twisted_s_infimum():
    # for toric data both collapse to zero: exact two-sided check
    rnd = random.Random(109)
    for _ in range(40):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        n = s.rank
        w = random_reeb(rnd, s)
        rj = reduced_j(s, xi0, toric_filtration(s, w)).value
        its, _ = inf_twist_s(s, xi0, w)
        assert F(1, n - 1) * rj <= its <= (n - 1) * rj
        assert its <= s_closed(s, xi0, toric_filtration(s, w))


# --- Futaki -------------------------------------------------------------------

def test_futaki_examples(c2):
    assert futaki_product(c2, (1, 1), (1, 0)) == 0
    assert futaki_product(c2, (1, 2), (1, 0)) == F(-1, 2)
    assert futaki_product(c2, (1, 2), (1, 2)) == 0
    assert futaki_derivative(c2, (1, 2), (1, 0)) == F(-1, 2)
    assert vol_derivative(c2, (1, 1), (1, 0)) == -1


def test_futaki_product_equals_derivative_random():
    rnd = random.Random(113)
    for _ in range(50):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        eta = random_reeb(rnd, s)
        assert futaki_product(s, xi0, eta) == futaki_derivative(s, xi0, eta)
        assert futaki_product(s, xi0, xi0) == 0


def test_futaki_equals_ding_on_product_data():
    rnd = random.Random(127)
    for _ in range(30):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        eta = random_reeb(rnd, s)
        assert futaki_product(s, xi0, eta) == ding(s, xi0, toric_filtration(s, eta))


def test_ding_decreases_to_lct_minimizer_filtration():
    # F sits inside F_v for the normalized lct minimizer v; the threshold is
    # shared while S can only grow, so the Ding invariant can only drop
    from conestab.filtration import value_under
    rnd = random.Random(131)
    for _ in range(25):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        res = lct_monomial(s, Ft)
        val = value_under(Ft, res.minimizer)
        assert val >= 1
        w = tuple(x / val for x in res.minimizer)
        Fv = toric_filtration(s, w)
        assert lct_monomial(s, Fv).value == log_discrepancy(s, w) == res.value / val
        if val == 1:
            assert ding(s, xi0, Ft) >= ding(s, xi0, Fv)


def test_vol_derivative_matches_central_differences():
    rnd = random.Random(137)
    h = F(1, 10 ** 5)
    for _ in range(20):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        for i in range(s.rank):
            e = [F(0)] * s.rank
            e[i] = F(1)
            up = tuple(x + h * d for x, d in zip(xi0, e))
            dn = tuple(x - h * d for x, d in zip(xi0, e))
            diff = (vol(s, up) - vol(s, dn)) / (2 * h)
            exact = vol_derivative(s, xi0, tuple(e))
            if exact != 0:
                assert abs(diff - exact) <= abs(exact) * F(1, 10 ** 7)
            else:
                assert abs(diff) <= h * h


def test_vol_derivative_tight_on_worked_cones(c2, a1, z3):
    h = F(1, 10 ** 5)
    for s, xi0 in [(c2, (F(1), F(1))), (a1, (F(1), F(1))), (z3, (F(1), F(1)))]:
        for i in range(2):
            e = [F(0)] * 2
            e[i] = F(1)
            up = tuple(x + h * d for x, d in zip(xi0, e))
            dn = tuple(x - h * d for x, d in zip(xi0, e))
            diff = (vol(s, up) - vol(s, dn)) / (2 * h)
            exact = vol_derivative(s, xi0, tuple(e))
            assert abs(diff - exact) <= abs(exact) * F(1, 10 ** 9)


# --- delta and verdicts --------------------------------------------------------

def test_delta_examples(c2, a1):
    v, ray = delta_T(c2, (1, 1))
    assert v == 1
    v, ray = delta_T(c2, (1, 2))
    assert v == F(2, 3) and ray == (1, 0)
    v, _ = delta_T(a1, (1, 1))
    assert v == 1


def test_delta_always_at_most_one_and_ray_scan():
    rnd = random.Random(139)
    for _ in range(40):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        v, ray = delta_T(s, xi0)
        assert v <= 1
        a0 = log_discrepancy(s, xi0)
        alpha0 = okounkov_body(s, xi0).alpha0
        ray_vals = [dot(s.u, r) / (a0 * dot(alpha0, r)) for r in s.sigma.rays]
        assert v == min(ray_vals)


def test_semistable_verdict(c2, a1):
    ok, cert = semistable_verdict(c2, (1, 1))
    assert ok and cert == (0, 0)
    ok, cert = semistable_verdict(c2, (1, 2))
    assert not ok and cert == (F(-1, 2), F(1, 4))
    ok, _ = semistable_verdict(a1, (1, 1))
    assert ok


def test_verdict_iff_delta_one():
    rnd = random.Random(149)
    for _ in range(40):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        v, _ = delta_T(s, xi0)
        ok, _ = semistable_verdict(s, xi0)
        assert ok == (v == 1)


# --- reduced J ------------------------------------------------------------------

def test_reduced_j_values(c2, fex):
    rj = reduced_j(c2, (1, 1), fex)
    assert rj.value == F(1, 4) and rj.gap == 0
    assert reduced_j(c2, (1, 1), toric_filtration(c2, (2, 1))).value == 0
    assert reduced_j(c2, (1, 1), toric_filtration(c2, (7, 3))).value == 0


def test_reduced_j_below_j_norm():
    rnd = random.Random(151)
    for _ in range(40):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        assert 0 <= reduced_j(s, xi0, Ft).value <= j_norm(s, xi0, Ft)


def test_reduced_j_twist_invariant():
    rnd = random.Random(157)
    for _ in range(20):
        s, xi0, Ft = random_instance(rnd, 2)
        xi = random_reeb(rnd, s)
        assert reduced_j(s, xi0, twist(Ft, xi)).value == reduced_j(s, xi0, Ft).value


def test_reduced_j_cross_checked_by_cutting_planes(c2, fex):
    from conestab.optimize import kelley_minimize
    alpha0 = okounkov_body(c2, (1, 1)).alpha0
    s_val = s_closed(c2, (1, 1), fex)

    def oracle(xi):
        lam, arg = twisted_lambda_max(c2, (1, 1), fex, xi)
        value = lam - dot(alpha0, xi) - s_val
        sub = tuple(a - b for a, b in zip(arg, alpha0))
        return value, sub

    box = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0)),
           ((F(1), F(1)), F(6))]  # closed Reeb cone clipped by a big simplex
    res = kelley_minimize(oracle, box, 2, F(1, 10 ** 9))
    exact = reduced_j(c2, (1, 1), fex).value
    assert res.lower <= exact <= res.upper
    assert res.upper - exact <= F(1, 10 ** 9)


def test_inf_twist_s_examples(c2):
    v, arg = inf_twist_s(c2, (1, 1), (1, 1))
    assert v == 0
    v, _ = inf_twist_s(c2, (1, 1), (2, 1))
    assert v == 0  # infimum over all admissible twists reaches the boundary
    rnd = random.Random(163)
    for _ in range(10):
        eta = random_reeb(rnd, c2)
        v, _ = inf_twist_s(c2, (1, 1), eta)
        assert v <= s_closed(c2, (1, 1), toric_filtration(c2, eta))


# --- reduced delta objective -----------------------------------------------------

def test_delta_red_objective(c2, a1):
    assert delta_red_objective(c2, (1, 1), (1, 1)) == 1
    assert delta_red_objective(a1, (1, 1), (1, 1)) == 1
    assert delta_red_objective(c2, (1, 1), (3, 2)) == 1
    with pytest.raises(FutakiNonvanishing):
        delta_red_objective(c2, (1, 2), (1, 1))


@pytest.mark.parametrize("call, value", [
    (lambda s: delta_T(s, (1, 1)), F(2)),
    (lambda s: delta_red_objective(s, (1, 1), (1, 1)), F(1, 2)),
], ids=["delta_T", "delta_red_objective"])
def test_identity_checks_raise_typed_error(c2, monkeypatch, call, value):
    import conestab.exactgeom.lp as lp
    monkeypatch.setattr(lp, "fractional_lp", lambda *args, **kwargs: (value, (1, 0)))
    with pytest.raises(IdentityViolated):
        call(c2)


# --- a non-simplicial rank-3 cone end to end ----------------------------------

def test_alpha0_interior_to_slice():
    rnd = random.Random(179)
    for _ in range(20):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        alpha0 = okounkov_body(s, xi0).alpha0
        assert dot(alpha0, xi0) == 1
        for v in s.sigma.rays:  # strictly inside every facet of the slice
            assert dot(alpha0, v) > 0


def test_cube_cone_full_pipeline():
    # cone over a square: four weight-cone rays, pyramid slices, all values
    # computed by hand from the pyramid geometry
    s = from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    xi0 = (0, 0, 1)
    assert s.u == (0, 0, 1)
    O = okounkov_body(s, xi0)
    assert O.vol == F(4, 3) and O.alpha0 == (0, 0, 1)
    assert vol(s, xi0) == 8 and nvol(s, xi0) == 8
    ok, cert = semistable_verdict(s, xi0)
    assert ok and delta_T(s, xi0)[0] == 1

    Ft = monomial_filtration(s, [(1, 0, 2), (-1, 0, 2)])
    assert s_closed(s, xi0, Ft) == F(3, 2)
    assert lambda_max_closed(s, xi0, Ft) == 2
    assert lambda_min_closed(s, xi0, Ft) == 1
    assert lct_monomial(s, Ft).value == 2
    assert ding(s, xi0, Ft) == F(1, 2)
    assert j_norm(s, xi0, Ft) == F(1, 2)
    rj = reduced_j(s, xi0, Ft)
    assert 0 <= rj.value <= F(1, 2) and rj.gap == 0

    # cutting-plane cross-check of the exact reduced J in rank 3
    from conestab.optimize import kelley_minimize
    alpha0 = O.alpha0
    s_val = s_closed(s, xi0, Ft)

    def oracle(xi):
        lam, arg = twisted_lambda_max(s, xi0, Ft, xi)
        return lam - dot(alpha0, xi) - s_val, tuple(a - b for a, b in zip(arg, alpha0))

    hs = [(tuple(-x for x in h), F(0)) for h in s.sigma.halfspaces]
    hs.append(((F(0), F(0), F(1)), F(8)))  # bounded box around the cone
    res = kelley_minimize(oracle, hs, 3, F(1, 10 ** 9), max_iter=400)
    assert res.lower <= rj.value <= res.upper
    assert res.upper - rj.value <= F(1, 10 ** 9)
