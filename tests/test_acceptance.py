"""Acceptance gate: one test per criterion, each printing a pass line.

Run as  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary.  Every tolerance below is fixed here, not calibrated elsewhere:
exact equality for the identity and worked-case suites, 5 percent on the
S''-estimator and 2 percent on slope/volume counts at level 200, 1e-6 on
the reduced-J limit, 1e-7 on gradient checks and 1e-9 on optimizer gaps.
"""

import random
import time
from fractions import Fraction

from conestab.estimators import bj_bound_check, sweep
from conestab.filtration import (
    approximant,
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
    ding,
    futaki_derivative,
    futaki_product,
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
    vol,
    vol_derivative,
)
from conestab.optimize import minimize_nvol
from conestab.singularity import from_rays, log_discrepancy
from conftest import c2_battery, random_filtration, random_instance, random_reeb

F = Fraction


def _report(number, label, started, budget):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number} PASS {label} in {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_exact_identity_suite():
    started = time.monotonic()
    rnd = random.Random(2024)
    for trial in range(100):
        rank = 2 if trial % 5 < 3 else 3
        s, xi0, Ft = random_instance(rnd, rank)
        n = s.rank

        # the polarization has unit S against itself
        assert s_closed(s, xi0, toric_filtration(s, xi0)) == 1

        # twist identities, all exact
        xi = random_reeb(rnd, s)
        tw = twist(Ft, xi)
        assert lct_monomial(s, tw).value == \
            lct_monomial(s, Ft).value + log_discrepancy(s, xi)
        assert s_closed(s, xi0, tw) == \
            s_closed(s, xi0, Ft) + s_closed(s, xi0, toric_filtration(s, xi))
        a = F(rnd.randint(1, 5), rnd.randint(1, 3))
        ta = twist(Ft, tuple(a * x for x in xi0))
        assert lambda_max_closed(s, xi0, ta) == lambda_max_closed(s, xi0, Ft) + a
        assert lambda_min_closed(s, xi0, ta) == lambda_min_closed(s, xi0, Ft) + a

        # geodesic linearity of S, exact
        Fb = random_filtration(rnd, s, max_covectors=2)
        t = F(rnd.randint(1, 4), 5)
        Fgeo = geodesic([Ft, Fb], [1 - t, t])
        assert s_closed(s, xi0, Fgeo) == \
            (1 - t) * s_closed(s, xi0, Ft) + t * s_closed(s, xi0, Fb)

        # J nonnegative; zero exactly on rescaled polarizations
        j = j_norm(s, xi0, Ft)
        assert j >= 0
        trivial = rescale(toric_filtration(s, xi0), lambda_max_closed(s, xi0, Ft))
        assert (j == 0) == (Ft == trivial)
        assert j_norm(s, xi0, rescale(toric_filtration(s, xi0), a)) == 0

        # norm equivalence for a toric valuation, exact
        w = random_reeb(rnd, s)
        Fw = toric_filtration(s, w)
        lmax = lambda_max_closed(s, xi0, Fw)
        lmin = lambda_min_closed(s, xi0, Fw)
        sv = s_closed(s, xi0, Fw)
        mid = sv - lmin
        assert F(1, n) * (lmax - lmin) <= mid <= (1 - F(1, n)) * (lmax - lmin)
        assert F(1, n - 1) * (lmax - sv) <= mid <= (n - 1) * (lmax - sv)

        # reduced J in closed form: D - A J_red = g(u) - g(A alpha0) at any
        # polarization, and J_red = 0 exactly for a single covector
        a0 = log_discrepancy(s, xi0)
        a_alpha0 = tuple(a0 * x for x in okounkov_body(s, xi0).alpha0)
        rj = reduced_j(s, xi0, Ft).value
        assert ding(s, xi0, Ft) - a0 * rj == Ft.ord(s.u) - Ft.ord(a_alpha0)
        assert (rj == 0) == (len(Ft.covectors) == 1)
        assert reduced_j(s, xi0, Fw).value == 0

        # Ding = A * reduced J at the semistable polarization
        # xi* = (1/n) sum_i v_i / (1 - a_i), exact
        star = tuple(sum(v[i] / (1 - a) for v, a in zip(s.sigma.rays, s.coefficients)) / n
                     for i in range(n))
        assert semistable_verdict(s, star)[0]
        assert ding(s, star, Ft) == log_discrepancy(s, star) * reduced_j(s, star, Ft).value

        # saturation rigidity: strict inclusions strictly raise S
        assert s_closed(s, xi0, tw) > s_closed(s, xi0, Ft)
        if len(Ft.covectors) >= 2:
            dropped = monomial_filtration(s, Ft.covectors[:-1])
            if dropped != Ft:
                assert s_closed(s, xi0, dropped) > s_closed(s, xi0, Ft)
    _report(1, "exact identity suite (100 random cones)", started, 10)


def test_criterion_2_worked_cases():
    started = time.monotonic()
    c2 = from_rays([(1, 0), (0, 1)])
    a1 = from_rays([(1, 0), (1, 2)])
    z3 = from_rays([(1, 0), (1, 3)])
    half = from_rays([(1, 0), (0, 1)], [F(1, 2), 0])
    fex = monomial_filtration(c2, [(2, 1), (1, 2)])

    assert vol(c2, (1, 1)) == 1
    assert nvol(c2, (1, 1)) == 4
    assert delta_T(c2, (1, 1))[0] == 1
    assert semistable_verdict(c2, (1, 1))[0] is True

    assert s_closed(c2, (1, 1), fex) == F(5, 4)
    assert lambda_max_closed(c2, (1, 1), fex) == F(3, 2)
    assert lambda_min_closed(c2, (1, 1), fex) == 1
    assert lct_monomial(c2, fex).value == 3
    assert ding(c2, (1, 1), fex) == F(1, 2)
    assert j_norm(c2, (1, 1), fex) == F(1, 4)
    assert reduced_j(c2, (1, 1), fex).value == F(1, 4)

    value, ray = delta_T(c2, (1, 2))
    assert value == F(2, 3) and ray == (1, 0)
    assert futaki_product(c2, (1, 2), (1, 0)) == F(-1, 2)
    assert ding(c2, (1, 2), toric_filtration(c2, (1, 0))) == F(-1, 2)

    r = minimize_nvol(a1)
    assert r.nvol_value == 2
    assert r.minimizer == (1, 1)  # proportional to (1, 1)
    assert all(x == 0 for x in r.alignment_residual)

    assert minimize_nvol(z3).nvol_value == F(4, 3)
    assert lct_monomial(half, toric_filtration(half, (1, 1))).value == F(3, 2)
    _report(2, "worked-case suite (exact rational equality)", started, 5)


def test_criterion_3_estimator_convergence():
    started = time.monotonic()
    s, battery = c2_battery(seed=20, count=20)
    xi0 = (1, 1)
    eps = F(1, 10)
    worst_m0 = 1
    budget = 10 ** 6
    for Ft in battery:
        sw = sweep(s, xi0, Ft, list(range(1, 201)), budget=budget)
        S = sw.target["S"]
        lam = sw.target["lambda_max"]
        last = sw.row(200)
        assert abs(last.Spp_m - S) <= F(5, 100) * S
        assert abs(last.lammax_m - lam) <= F(2, 100) * lam
        count_est = F(2 * last.N_m, 200 ** 2)
        assert abs(count_est - 1) <= F(2, 100)  # n! vol(O) = 1 here
        bad = [st.m for st in sw.per_level if st.Spp_m > (1 + eps) * S]
        m0 = (max(bad) + 1) if bad else 1
        worst_m0 = max(worst_m0, m0)
    assert worst_m0 <= 200
    for Ft in battery:  # one level works for the whole battery
        assert bj_bound_check(s, xi0, Ft, eps, worst_m0,
                              levels=range(worst_m0, 201, 13))
    print(f"\n  uniform Blum-Jonsson level for the battery: m0 = {worst_m0}")
    _report(3, "estimator convergence at level 200 (20 filtrations)", started, 120)


def test_criterion_4_approximating_sequences():
    started = time.monotonic()
    s, battery = c2_battery(seed=33, count=6)
    xi0 = (1, 1)
    for Ft in battery:
        target_S = s_closed(s, xi0, Ft)
        target_lam = lambda_max_closed(s, xi0, Ft)
        target_rj = reduced_j(s, xi0, Ft).value
        prev_S = prev_lam = None
        reached = None
        for m in range(1, 9):
            Fm = approximant(Ft, m)
            S_m = s_closed(s, xi0, Fm)
            lam_m = lambda_max_closed(s, xi0, Fm)
            assert S_m <= target_S and lam_m <= target_lam
            if prev_S is not None:
                assert S_m >= prev_S and lam_m >= prev_lam
            prev_S, prev_lam = S_m, lam_m
            if Fm == Ft:
                reached = m
                break
        assert reached is not None, "generation level above the scan window"
        assert s_closed(s, xi0, approximant(Ft, reached)) == target_S
        assert lambda_max_closed(s, xi0, approximant(Ft, reached)) == target_lam
        # the reduced J converges (exactly, once the level generates F);
        # the pre-limit values need not approach from below
        rj_m = reduced_j(s, xi0, approximant(Ft, reached)).value
        assert abs(rj_m - target_rj) <= F(1, 10 ** 6)
    _report(4, "approximating-sequence convergence", started, 120)


def test_criterion_5_derivative_and_optimizer_guards():
    started = time.monotonic()
    rnd = random.Random(55)

    # gradient of the slice volume vs central differences at 20 points
    h = F(1, 10 ** 5)
    checked = 0
    while checked < 20:
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        eta = tuple(F(rnd.randint(-2, 3)) for _ in range(s.rank))
        up = tuple(x + h * d for x, d in zip(xi0, eta))
        dn = tuple(x - h * d for x, d in zip(xi0, eta))
        if all(x == 0 for x in eta) or not (
                s.sigma.contains(up, strict=True) and s.sigma.contains(dn, strict=True)):
            continue
        diff = (vol(s, up) - vol(s, dn)) / (2 * h)
        exact = vol_derivative(s, xi0, eta)
        if exact == 0:
            assert abs(diff) <= h
        else:
            assert abs(diff - exact) <= abs(exact) * F(1, 10 ** 7)
        checked += 1

    # the two Futaki routes agree exactly on 50 random pairs
    for _ in range(50):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        eta = random_reeb(rnd, s)
        assert futaki_product(s, xi0, eta) == futaki_derivative(s, xi0, eta)

    # optimizer certificates on the worked cones
    for rays in [[(1, 0), (0, 1)], [(1, 0), (1, 2)], [(1, 0), (1, 3)]]:
        s = from_rays(rays)
        r = minimize_nvol(s)
        assert r.certificate_gap < F(1, 10 ** 9)
        stationary = all(x == 0 for x in r.alignment_residual)
        verdict, _ = semistable_verdict(s, r.minimizer)
        assert stationary == verdict
    _report(5, "derivative and optimizer guards", started, 30)


def test_criterion_6_convexity_probes():
    started = time.monotonic()
    rnd = random.Random(66)

    # midpoint convexity of the twisted J-norm on 100 random triples
    for _ in range(100):
        s, xi0, Ft = random_instance(rnd, 2)
        xa, xb = random_reeb(rnd, s), random_reeb(rnd, s)
        mid = tuple((p + q) / 2 for p, q in zip(xa, xb))
        assert 2 * j_norm(s, xi0, twist(Ft, mid)) <= \
            j_norm(s, xi0, twist(Ft, xa)) + j_norm(s, xi0, twist(Ft, xb))

    # coercivity with the exact boundary-distance constant
    for _ in range(40):
        s, xi0, Ft = random_instance(rnd, rnd.choice([2, 3]))
        c_sq = coercivity_constant_sq(s, xi0)
        xi = random_reeb(rnd, s)
        lhs = j_norm(s, xi0, twist(Ft, xi)) + s_closed(s, xi0, Ft)
        assert lhs >= 0 and lhs * lhs >= c_sq * quotient_norm_sq(xi, xi0)

    # concavity of S: intersection against the geodesic chord
    for _ in range(40):
        s, xi0, _ = random_instance(rnd, rnd.choice([2, 3]))
        ha, hb = random_reeb(rnd, s), random_reeb(rnd, s)
        fa, fb = toric_filtration(s, ha), toric_filtration(s, hb)
        chord = (s_closed(s, xi0, fa) + s_closed(s, xi0, fb)) / 2
        assert s_closed(s, xi0, intersect(fa, fb)) <= chord
        assert s_closed(s, xi0, geodesic([fa, fb], [F(1, 2), F(1, 2)])) == chord
    _report(6, "convexity and concavity probes", started, 30)
