import random
from fractions import Fraction
from math import floor

import pytest

from conestab import estimators
from conestab.errors import BudgetExceeded, EmptyInput, LatticeNotGenerated
from conestab.estimators import (
    CSV_HEADER,
    bj_bound_check,
    gamma_semigroup,
    good_valuation_check,
    sweep,
    sweep_approx,
)
from conestab.exactgeom import dot, lattice_points_below
from conestab.filtration import monomial_filtration, toric_filtration
from conestab.invariants import s_closed
from conestab.singularity import from_rays
from conftest import c2_battery

F = Fraction


def test_sweep_worked_example(c2, fex):
    sw = sweep(c2, (1, 1), fex, [2])
    st = sw.row(2)
    assert st.N_m == 3 and st.TS_m == 2
    assert st.S_m == 1 and st.Spp_m == F(1, 2)


def test_sweep_trivial_filtration_constant(c2):
    triv = toric_filtration(c2, (1, 1))
    sw = sweep(c2, (1, 1), triv, list(range(2, 21)))
    assert all(st.S_m == 1 for st in sw.per_level)
    assert all(st.N_m == st.m * (st.m + 1) // 2 for st in sw.per_level)


def test_sweep_mult_estimate_converges(c2, fex):
    sw = sweep(c2, (1, 1), fex, [200])
    st = sw.row(200)
    est = F(2 * st.N_m, 200 ** 2)
    assert abs(est - 1) <= F(2, 100)


def test_sweep_integer_orders_match_fraction_reference(c2):
    # Rational covectors and a rational xi0: the integer floor(g) and weight
    # binning must agree with Fraction F.ord and <xi0, a> point by point.
    G = monomial_filtration(c2, [(F(3, 2), F(1, 3)), (F(1, 2), F(5, 4))])
    xi0 = (F(2, 3), F(1))
    pts = lattice_points_below(c2.weight_cone, xi0, 10)
    assert len(G.covectors) == 2
    assert any(G.ord(a).denominator > 1 for a in pts)
    sw = sweep(c2, xi0, G, [1, 2, 5, 9])
    for st in sw.per_level:
        below = [a for a in pts if dot(xi0, a) < st.m]
        assert st.N_m == len(below)
        assert st.TS_m == sum(floor(G.ord(a)) for a in below)
        assert st.TS0_m == sum(floor(dot(xi0, a)) for a in below)
        assert st.lammax_m == F(max(floor(G.ord(a)) for a in below), st.m)
        assert st.count_gamma == sum(1 for a in pts if dot(xi0, a) <= st.m)


def test_sweep_csv_shape(c2, fex):
    sw = sweep(c2, (1, 1), fex, [1, 2, 3])
    lines = sw.to_csv().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    assert lines[2].startswith("2,3,2,1,")


def test_sweep_rejects_bad_levels(c2, fex):
    with pytest.raises(EmptyInput):
        sweep(c2, (1, 1), fex, [])
    with pytest.raises(EmptyInput):
        sweep(c2, (1, 1), fex, [0])


def test_sweep_budget(c2, fex):
    with pytest.raises(BudgetExceeded):
        sweep(c2, (1, 1), fex, [50], budget=100)


def test_sweep_approx_matches_once_generated(c2, fex):
    plain = sweep(c2, (1, 1), fex, [2, 4, 6, 9])
    approx = sweep_approx(c2, (1, 1), fex, 3, [2, 4, 6, 9])
    for a, b in zip(approx.per_level, plain.per_level):
        assert (a.N_m, a.TS_m, a.S_m, a.lammax_m) == (b.N_m, b.TS_m, b.S_m, b.lammax_m)


def test_sweep_approx_below_sweep(c2):
    triv = toric_filtration(c2, (1, 1))
    plain = sweep(c2, (1, 1), triv, [3, 6, 9])
    approx = sweep_approx(c2, (1, 1), triv, 1, [3, 6, 9])
    for a, b in zip(approx.per_level, plain.per_level):
        assert a.TS_m <= b.TS_m
        assert a.lammax_m <= b.lammax_m
    with pytest.raises(EmptyInput):
        sweep_approx(c2, (1, 1), triv, 0, [3])


def test_gamma_semigroup_examples(c2, fex):
    triv = toric_filtration(c2, (1, 1))
    gs = gamma_semigroup(c2, (1, 1), triv, 2, 0)
    assert sorted(gs.points) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    gf = gamma_semigroup(c2, (1, 1), fex, 2, 1)
    assert sorted(gf.points) == [(0, 2), (1, 1), (2, 0)]
    assert gamma_semigroup(c2, (1, 1), fex, 4, 2).points == []  # t above the top slope
    assert gs.cloud[1] == (0, F(1, 2))


def test_gamma_semigroup_verifiers(c2, fex):
    gs = gamma_semigroup(c2, (1, 1), fex, 3, F(1, 2))
    assert gs.verify_origin_level(c2, (1, 1))
    assert gs.verify_closure(c2, (1, 1), fex)


def test_bj_bound_examples(c2, fex):
    assert bj_bound_check(c2, (1, 1), fex, 10, 1)
    triv = toric_filtration(c2, (1, 1))
    assert bj_bound_check(c2, (1, 1), triv, F(1, 10), 2)
    with pytest.raises(EmptyInput):
        bj_bound_check(c2, (1, 1), fex, 0, 1)


def test_bj_uniform_level_exists_for_battery():
    s, battery = c2_battery(count=6)
    eps = F(1, 10)
    for Ft in battery:
        target = s_closed(s, (1, 1), Ft)
        sw = sweep(s, (1, 1), Ft, list(range(1, 41)))
        bad = [st.m for st in sw.per_level if st.Spp_m > (1 + eps) * target]
        m0 = (max(bad) + 1) if bad else 1
        assert m0 <= 40
        assert bj_bound_check(s, (1, 1), Ft, eps, m0, levels=range(m0, 41))


def test_shell_ratio_converges_to_s(c2, fex):
    # the shell form S'_m closes on the closed form much faster than S''_m
    for covs in [[(2, 1), (1, 2)], [(1, 3), (3, 2)], [(2, 2), (1, 3), (3, 1)]]:
        Ft = monomial_filtration(c2, covs)
        target = s_closed(c2, (1, 1), Ft)
        sw = sweep(c2, (1, 1), Ft, [200])
        assert abs(sw.row(200).Sp_m - target) <= target * F(1, 100)


def test_top_slope_superadditive_along_doubling(c2, fex):
    # p * lam^(m) <= lam^(pm): the ratio column is monotone along doubling
    sw = sweep(c2, (1, 1), fex, [3, 6, 12, 24, 48])
    rows = {st.m: st.lammax_m for st in sw.per_level}
    assert rows[6] >= rows[3] and rows[12] >= rows[6]
    assert rows[24] >= rows[12] and rows[48] >= rows[24]


def test_top_slope_not_monotone_consecutively(c2, fex):
    # consecutive levels can dip (floor effects); only the doubling chain
    # and the limit are ordered
    sw = sweep(c2, (1, 1), fex, [5, 6])
    assert sw.row(5).lammax_m > sw.row(6).lammax_m


def test_bottom_slope_closed_form_vs_finite_level(c2, fex):
    # empirical min of g(a)/<a, xi0> over a deep window approaches the
    # closed-form bottom slope from above
    from conestab.exactgeom import dot, lattice_points_below
    from conestab.invariants import lambda_min_closed
    closed = lambda_min_closed(c2, (1, 1), fex)
    pts = [a for a in lattice_points_below(c2.weight_cone, (1, 1), 60)
           if any(x != 0 for x in a)]
    empirical = min(fex.ord(a) / dot((1, 1), a) for a in pts)
    assert empirical >= closed
    assert empirical - closed <= closed * F(5, 100)


def test_good_valuation_examples(c2, a1):
    r = good_valuation_check(c2, (1, 1))
    assert r.ok and r.r0 == 1 and r.ell == (1, 1)
    assert sorted(r.generators) == [(0, 1), (1, 0)]
    r = good_valuation_check(c2, (1, 2))
    assert r.ok and r.r0 == F(1, 2)
    r = good_valuation_check(a1, (1, 1))
    assert r.ok and sorted(r.generators) == [(0, 1), (1, 0), (2, -1)]
    assert r.snf_diagonal == [1, 1]


def test_good_valuation_rank3():
    s = from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    r = good_valuation_check(s, (0, 0, 1))
    assert r.ok and r.snf_diagonal == [1, 1, 1]


def test_good_valuation_proper_sublattice_message(c2, monkeypatch):
    # Keep only points with even first coordinate: they generate 2Z x Z.
    enumerate_all = estimators.lattice_points_below
    monkeypatch.setattr(estimators, "lattice_points_below", lambda *a, **k: [
        p for p in enumerate_all(*a, **k) if p[0] % 2 == 0])
    with pytest.raises(LatticeNotGenerated) as exc:
        good_valuation_check(c2, (1, 1))
    assert str(exc.value) == "weight semigroup generates a proper sublattice (SNF [1, 2])"
