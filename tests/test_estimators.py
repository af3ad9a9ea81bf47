import hashlib
import importlib.util
import json
import re
import tracemalloc
from fractions import Fraction
from math import floor, lcm
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conestab import estimators, filtration
from conestab.exactgeom import fan
from conestab.errors import (
    BudgetExceeded,
    DegenerateCone,
    EmptyInput,
    NotQGorenstein,
    ParseError,
    UnboundedSlice,
)
from conestab.estimators import (
    CSV_HEADER,
    bj_bound_check,
    gamma_semigroup,
    good_valuation_check,
    sweep,
    sweep_approx,
)
from conestab.exactgeom import dot, lattice_points_below
from conestab.exactgeom.linalg import det
from conestab.filtration import approx_ord, approximant, monomial_filtration, toric_filtration
from conestab.invariants import delta_T, okounkov_body, s_closed
from conestab.singularity import _xi_row, from_rays
from conftest import (
    ReferenceSweep,
    _reference_aggregate,
    c2_battery,
    pairwise_dp_orders,
    reference_per_level,
    verify_closure,
)

F = Fraction


def test_sweep_worked_example(c2, fex):
    sw = sweep(c2, (1, 1), fex, [2])
    st = sw.row(2)
    assert st.N_m == 3 and st.TS_m == 2
    assert st.S_m == 1 and st.Spp_m == F(1, 2)


def test_sweep_rank_one_pinned():
    # The line: the points below level m are 0..m-1 with orders 2a.
    s = from_rays([[1]])
    sw = sweep(s, (1,), monomial_filtration(s, [(2,)]), [1, 2, 3])
    assert [(st.N_m, st.TS_m, st.TS0_m, st.lammax_m, st.count_gamma) for st in sw.per_level] \
        == [(1, 0, 0, 0, 2), (2, 2, 1, 1, 3), (3, 6, 3, F(4, 3), 4)]
    assert sw.row(1).S_m is None and sw.row(3).S_m == 2 and sw.row(3).Spp_m == F(4, 3)


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


def test_sweep_refuses_non_integer_levels(c2, fex):
    for bad in ([F(2)], [2.7, True], [True], ["3"], [3, 2.0]):
        with pytest.raises(EmptyInput, match="^levels must be positive integers$"):
            sweep(c2, (1, 1), fex, bad)
        with pytest.raises(EmptyInput, match="^levels must be positive integers$"):
            sweep_approx(c2, (1, 1), fex, 2, bad)
    assert sweep(c2, (1, 1), fex, [3, 1, 3]).levels == [1, 3]


def test_level_range_stays_lazy(c2, fex):
    # A range is sorted and distinct already: it is never listed, so the
    # lattice budget stops a sweep to level 10^18 at once.
    huge = range(1, 10 ** 18)
    assert estimators._levels(huge) is huge
    with pytest.raises(BudgetExceeded, match="^lattice enumeration exceeded budget 1000$"):
        sweep(c2, (1, 1), fex, huge, budget=1000)
    for bad in (range(0, 4), range(5, 5)):
        with pytest.raises(EmptyInput, match="^levels must be positive integers$"):
            sweep(c2, (1, 1), fex, bad)
    assert sweep(c2, (1, 1), fex, range(3, 0, -1)).levels == [1, 2, 3]
    assert (sweep(c2, (1, 1), fex, range(1, 4)).to_json()
            == sweep(c2, (1, 1), fex, [3, 1, 2]).to_json())


def test_sweep_budget(c2, fex):
    with pytest.raises(BudgetExceeded):
        sweep(c2, (1, 1), fex, [50], budget=100)
    # Over den = 999000 every point below level 51 is a start point of its
    # chamber's simplex: the second simplex's listing stops where the count
    # passes the budget, and names the budget.
    G = monomial_filtration(c2, [(F(1, 1000), F(1, 999)), (F(1, 999), F(1, 1000))])
    with pytest.raises(BudgetExceeded, match="^lattice enumeration exceeded budget 1000$"):
        sweep(c2, (1, 1), G, [50], budget=1000)
    assert sweep(c2, (1, 1), G, [50], budget=51 * 52 // 2).row(50).N_m == 50 * 51 // 2


def test_negative_budget_keyword_is_a_parse_error(c2, fex):
    # Every enumeration entry point takes budget=; 0 stays a cap.
    calls = (lambda b: sweep(c2, (1, 1), fex, [1, 2], budget=b),
             lambda b: sweep_approx(c2, (1, 1), fex, 2, [1, 2], budget=b),
             lambda b: gamma_semigroup(c2, (1, 1), fex, 2, 1, budget=b),
             lambda b: lattice_points_below(c2.weight_cone, (1, 1), 2, budget=b))
    for call in calls:
        with pytest.raises(ParseError, match="^budget: budget must be nonnegative, got -5$"):
            call(-5)
        with pytest.raises(BudgetExceeded, match="budget 0$"):
            call(0)


def test_sweep_budget_counts_points_below_top_level():
    # The sweeps enumerate the points below the last level + 1: a budget one
    # short of that count must raise, the count itself must pass.
    s = from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    G = monomial_filtration(s, [(3, 2, 2), (2, 3, F(5, 2))])
    for xi0, levels in (((1, 1, 1), [4, 7]), ((F(3, 2), 1, F(5, 4)), [6])):
        n_top = len(lattice_points_below(s.weight_cone, xi0, levels[-1] + 1))
        with pytest.raises(BudgetExceeded, match=f"budget {n_top - 1}$"):
            sweep(s, xi0, G, levels, budget=n_top - 1)
        assert sweep(s, xi0, G, levels, budget=n_top).row(levels[-1]).N_m < n_top
    c2 = from_rays([(1, 0), (0, 1)])
    fex = monomial_filtration(c2, [(2, 1), (1, 2)])
    n_top = 51 * 52 // 2  # a + b < 51; the window a + b <= 50 has as many
    with pytest.raises(BudgetExceeded, match=f"budget {n_top - 1}$"):
        sweep_approx(c2, (1, 1), fex, 3, [50], budget=n_top - 1)
    assert sweep_approx(c2, (1, 1), fex, 3, [50], budget=n_top).row(50).N_m == 50 * 51 // 2


def _rank3_count():
    """``perfbench/workloads.py::_rank3_count``, the hand count of the
    rank-3 workload cone's points below each level."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._rank3_count


def test_sweep_to_level_2000_matches_hand_counts(c2, fex):
    # Two thousand levels in one pass, under an explicit budget: C^2 has
    # N_m = m(m+1)/2, the rank-3 workload cone its hand count.
    sw = sweep(c2, (1, 1), fex, [1, 999, 2000], budget=2001 * 2002 // 2)
    assert [st.N_m for st in sw.per_level] == [m * (m + 1) // 2 for m in (1, 999, 2000)]
    G = monomial_filtration(_RANK3, [(3, 2, 2), (2, 3, F(5, 2))])
    count = _rank3_count()
    sw = sweep(_RANK3, (1, 1, 1), G, [7, 2000], budget=count(2001))
    assert [st.N_m for st in sw.per_level] == [count(7), count(2000)]
    assert sw.row(2000).count_gamma == count(2001)


def test_rank4_sweep_to_level_1000():
    # tests/docs/rank4.json with filtration G: 3.3 * 10^11 points below
    # level 1000, which no point scan reaches; two independent prototypes
    # of the kernel gave these counts.
    doc = json.loads((Path(__file__).parent / "docs" / "rank4.json").read_text())
    s = from_rays(doc["rays"])
    G = monomial_filtration(s, doc["filtrations"]["G"]["covectors"])
    st = sweep(s, doc["reeb"], G, [1000], budget=10 ** 12).row(1000)
    assert (st.N_m, st.count_gamma) == (334000166500, 335337503501)
    with pytest.raises(BudgetExceeded, match="^lattice enumeration exceeded budget 10000000$"):
        sweep(s, doc["reeb"], G, [1000], budget=10 ** 7)


def test_thin_simplex_enumerates_only_points_below_the_top(c2, monkeypatch):
    # F = (1000, 1), (1, 8) cuts C^2 on the ray (7, 999): the chamber
    # simplex on (1, 0) and (7, 999) has |det| = 999, but only 66 points
    # lie below level 11.  Its parallelepiped is listed heaviest ray first,
    # cut at the level, so the start points and the walk's weights together
    # stay within (n + 1) N_top, and the rows are the per-point ones.
    G = monomial_filtration(c2, [(1000, 1), (1, 8)])
    assert sorted(abs(d) for _, f in fan._chamber_rows(c2.weight_cone, G.transform.rows)
                  for d, _ in f.simplices) == [7, 999]
    seen = []
    build, pop = fan._parallelepiped, fan.heappop

    def built(*args):
        out = build(*args)
        seen.extend(out)
        return out

    def popped(heap):
        seen.append(None)
        return pop(heap)
    monkeypatch.setattr(fan, "_parallelepiped", built)
    monkeypatch.setattr(fan, "heappop", popped)
    fan._parallelepipeds.cache_clear()
    sw = sweep(c2, (1, 1), G, range(1, 11), budget=66)
    assert 0 < len(seen) <= 3 * 66
    got = estimators.EstimatorSweep(levels=sw.levels, per_level=sw.per_level)
    assert got.to_json() == _reference_json(_reference_sweep(c2, (1, 1), G, range(1, 11), 66))
    with pytest.raises(BudgetExceeded, match="^lattice enumeration exceeded budget 65$"):
        sweep(c2, (1, 1), G, range(1, 11), budget=65)


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


def test_gamma_semigroup_validates_m(c2, fex):
    for bad in (0, -1, True, False, "3", 2.0, F(2)):
        with pytest.raises(EmptyInput, match="^levels must be positive integers$"):
            gamma_semigroup(c2, (1, 1), fex, bad, 1)
    assert gamma_semigroup(c2, (1, 1), fex, 2, 1).m == 2


def test_gamma_semigroup_verifiers(c2, fex):
    gs = gamma_semigroup(c2, (1, 1), fex, 3, F(1, 2))
    assert verify_closure(gs, c2, (1, 1), fex)


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
    assert r.r0 == 1
    assert sorted(r.generators) == [(0, 1), (1, 0)]
    r = good_valuation_check(c2, (1, 2))
    assert r.r0 == F(1, 2)
    r = good_valuation_check(a1, (1, 1))
    assert sorted(r.generators) == [(0, 1), (1, 0), (2, -1)]


def test_good_valuation_rank3():
    s = from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    r = good_valuation_check(s, (0, 0, 1))
    # The weight cone is the cone over the square [-1, 1]^2, a normal
    # polytope: its Hilbert basis is the square's 9 points at height 1.
    assert r.r0 == 1
    assert r.generators == [(a, b, 1) for a in (-1, 0, 1) for b in (-1, 0, 1)]


def test_good_valuation_rejects_a_xi0_outside_the_reeb_cone_like_every_xi0_entry(c2, fex):
    # Before, good_valuation_check alone raised LatticeNotGenerated("grading
    # functional vanishes on the weight cone") here.
    for xi0 in [(1, 0), (0, 1), (1, -1)]:
        for call in (lambda: good_valuation_check(c2, xi0), lambda: sweep(c2, xi0, fex, [2]),
                     lambda: gamma_semigroup(c2, xi0, fex, 2, 1),
                     lambda: okounkov_body(c2, xi0), lambda: delta_T(c2, xi0)):
            with pytest.raises(UnboundedSlice, match="^slicing covector vanishes on a ray$"):
                call()


# ---------------------------------------------------------------------------
# Run-based aggregation against the per-point reference.

def _reference_points(s, xi0, levels, budget):
    """The points below the top level + 1.  The kernel itself is pinned
    against a box scan that shares none of its code in
    ``test_exactgeom.py::test_lattice_points_match_fraction_box_scan``."""
    return lattice_points_below(s.weight_cone, xi0, max(levels) + 1, budget=budget)


def _reference_json(sw):
    """The sweep's JSON as ``json.dumps(indent=2)`` writes it: the encoder
    ``EstimatorSweep.to_json`` must reproduce byte for byte."""
    def enc(x):
        return None if x is None else str(x)
    rows = [{
        "m": st.m, "N_m": st.N_m, "TS_m": st.TS_m, "TS0_m": st.TS0_m,
        "S_m": enc(st.S_m), "Sp_m": enc(st.Sp_m), "Spp_m": enc(st.Spp_m),
        "lammax_m": enc(st.lammax_m), "count_gamma": st.count_gamma,
    } for st in sw.per_level]
    return json.dumps({"levels": sw.levels, "rows": rows,
                       "target": {k: enc(v) for k, v in sw.target.items()}}, indent=2)


def _reference_sweep(s, xi0, G, levels, budget):
    """Rows of sweep: floor(G.ord) per point."""
    pts = _reference_points(s, xi0, levels, budget)
    return _reference_aggregate(s, xi0, levels, lambda a: floor(G.ord(a)), pts)


def _reference_sweep_approx(s, xi0, G, m_filt, levels, budget):
    """Rows of sweep_approx: the pairwise DP over the reference-weight window
    of the points below the top.  The budget counts the points of the
    window sweep_approx reads, W the largest <ell, .> at the weight-cone rays
    scaled onto <xi0, .> = top - 1/L, which on a skinny cone exceeds that
    of the points below the top."""
    pts = _reference_points(s, xi0, levels, budget)
    ell = s.sigma.interior_point()
    top = max(levels) + 1 - F(1, lcm(*(F(x).denominator for x in xi0)))
    W = max(floor(dot(ell, r) * top / dot(xi0, r)) for r in s.weight_cone.rays)
    lattice_points_below(s.weight_cone, ell, W, strict=False, budget=budget)
    wmax = max(sum(map(mul, ell, p)) for p in pts)
    window = lattice_points_below(s.weight_cone, ell, wmax, strict=False, budget=budget)
    orders = pairwise_dp_orders(G, m_filt, window, ell)
    return _reference_aggregate(s, xi0, levels, orders.__getitem__, pts)


@st.composite
def _filtrations(draw, s):
    """1-3 covectors, nonnegative combinations of the rays of sigma with
    coefficients of denominator up to 3."""
    coef = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)
    covs = []
    for _ in range(draw(st.integers(1, 3))):
        cs = [draw(coef) for _ in s.sigma.rays]
        covs.append(tuple(sum(c * r[i] for c, r in zip(cs, s.sigma.rays))
                          for i in range(s.rank)))
    return monomial_filtration(s, covs)


@st.composite
def _sweep_cases(draw, ranks=(2, 3)):
    """A cone of one of the ``ranks`` around an integer direction v, xi0 = q v,
    and rational covectors.

    The rays are k v + w_i for deviations w_i summing to zero, so v is
    interior; v's last coordinate takes each sign, and q = a / b makes the
    denominator of xi0 exceed 1 whenever b does not divide a.
    """
    rank = draw(st.sampled_from(ranks))
    sign = draw(st.sampled_from([-1, 0, 1]))
    small = st.integers(-2, 2)
    v = [draw(small) for _ in range(rank - 1)] + [sign * draw(st.integers(1, 2))]
    w = [[draw(small) for _ in range(rank)] for _ in range(rank - 1)]
    assume(det([v] + w) != 0)
    if rank == 3 and draw(st.booleans()):
        devs = [w[0], w[1], [-x for x in w[0]], [-x for x in w[1]]]  # 4 rays
    else:
        devs = w + [[-sum(col) for col in zip(*w)]]
    k = draw(st.integers(1, 2))
    rays = [tuple(k * a + b for a, b in zip(v, d)) for d in devs]
    try:
        s = from_rays(rays)
    except (NotQGorenstein, DegenerateCone):
        assume(False)
    assume(len(s.sigma.rays) == len(rays))
    q = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    xi0 = tuple(q * x for x in v)
    G = draw(_filtrations(s))
    levels = draw(st.lists(st.integers(1, {2: 8, 3: 5, 4: 4}[rank]), min_size=1, max_size=4))
    event(f"{len(rays)} rays in rank {rank}, xi0 last sign {sign}")
    event(f"den(xi0) > 1: {any(x.denominator > 1 for x in xi0)}")
    return s, xi0, G, levels, draw(st.integers(1, 3)), 400


# One fixed case per stride branch of the aggregation, with top levels of
# 20-40 so that classes end at the last shells of the difference arrays.
_WEDGE = from_rays([(1, 1), (1, -1)])
_Z3_LOW = from_rays([(1, 0), (1, -3)])
_C2 = from_rays([(1, 0), (0, 1)])
_RANK3 = from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


@settings(max_examples=200, deadline=None)
@given(case=_sweep_cases())
@example(case=(_WEDGE, (1, 0), monomial_filtration(_WEDGE, [(3, 1), (F(5, 2), F(-1, 2))]),
               [7, 30], 2, None))  # X = 0
@example(case=(_Z3_LOW, (3, -2), monomial_filtration(_Z3_LOW, [(2, -1), (3, -5)]),
               [11, 40], 3, None))  # X = -2
@example(case=(_C2, (2, 3), monomial_filtration(_C2, [(2, 1), (F(3, 2), 3)]),
               [4, 40], 2, None))  # X = 3
@example(case=(_RANK3, (F(3, 2), 1, F(5, 4)),
               monomial_filtration(_RANK3, [(3, 2, 2), (2, 3, F(5, 2))]),
               [9, 24], 3, None))  # den(xi0) = 4, X = 5
@example(case=(_RANK3, (1, 1, 1), monomial_filtration(
    _RANK3, [(2, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 3), (F(3, 2), F(3, 2), 2)]),
    [6, 12], 2, None))  # a duplicate, three covectors tied on a = b, a redundant one
@example(case=(_RANK3, (2, 1, 1), monomial_filtration(
    _RANK3, [(1, 0, 0), (0, 1, 0)], require_primary=False), [5, 11], 2, None))  # not primary
def test_sweeps_match_per_point_reference(case):
    s, xi0, G, levels, m_filt, budget = case
    for reference, library in (
            (lambda: _reference_sweep(s, xi0, G, levels, budget),
             lambda: sweep(s, xi0, G, levels, budget=budget)),
            (lambda: _reference_sweep_approx(s, xi0, G, m_filt, levels, budget),
             lambda: sweep_approx(s, xi0, G, m_filt, levels, budget=budget))):
        try:
            ref = reference()
        except BudgetExceeded:
            event("budget exceeded")
            with pytest.raises(BudgetExceeded):
                library()
            continue
        full = library()
        assert full.to_json() == _reference_json(full)
        got = estimators.EstimatorSweep(levels=full.levels, per_level=full.per_level)
        assert got.to_json() == _reference_json(ref)
        assert got.to_csv() == ref.to_csv()


def test_to_json_matches_json_dumps_byte_for_byte(c2, fex):
    # None in S_m and Sp_m (the line at level 1, and the cone at level 1
    # below its first nonzero weight), the default empty target, the
    # m_filtration target of sweep_approx, and an empty sweep.
    line = from_rays([[1]])
    sweeps = [sweep(line, (1,), monomial_filtration(line, [(2,)]), [1, 2, 3]),
              sweep(c2, (3, 5), fex, [1, 2, 9]),
              sweep_approx(c2, (1, 1), fex, 3, [1, 4, 7])]
    sweeps += [estimators.EstimatorSweep(levels=sw.levels, per_level=sw.per_level)
               for sw in sweeps]
    sweeps.append(estimators.EstimatorSweep(levels=[], per_level=[]))
    assert any(st.S_m is None for st in sweeps[0].per_level)
    assert any(st.Sp_m is None for sw in sweeps for st in sw.per_level)
    assert "m_filtration" in sweeps[2].target and sweeps[3].target == {}
    for sw in sweeps:
        assert sw.to_json() == _reference_json(sw)
        assert json.loads(sw.to_json())["levels"] == sw.levels


@st.composite
def _rank_one_cases(draw):
    """The line a >= 0 or a <= 0, xi0 of the matching sign (X > 0 or X < 0)
    with a denominator up to 3, and levels up to 30."""
    sign = draw(st.sampled_from([-1, 1]))
    s = from_rays([(sign,)])
    xi0 = (sign * F(draw(st.integers(1, 4)), draw(st.integers(1, 3))),)
    levels = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    event(f"rank 1, X sign {sign}")
    return s, xi0, draw(_filtrations(s)), levels, draw(st.integers(1, 3)), 400


_RANKS_1_TO_3 = st.integers(1, 3).flatmap(
    lambda rank: _rank_one_cases() if rank == 1 else _sweep_cases(ranks=(rank,)))
_LINE = from_rays([(1,)])
_LINE_G = monomial_filtration(_LINE, [(2,)])


def _rows_and_reference(call):
    """The sweep that ``call()`` returns, and the reference rows of the
    per-shell lists that its ``_per_level`` read."""
    seen = []

    def per_level(*args):
        seen.append(args)
        return library(*args)
    library = estimators._per_level
    with mock.patch.object(estimators, "_per_level", per_level):
        sw = call()
    (args,) = seen
    return sw, reference_per_level(*args)


@settings(max_examples=150, deadline=None)
@given(case=_RANKS_1_TO_3, approx=st.booleans())
# Weights 0, 3, 6, ... on the line: TS0_m = 0 for m <= 3, and shells 1, 2, 4 are empty.
@example(case=(_LINE, (3,), _LINE_G, [1, 2, 4, 6], 2, 400), approx=False)
@example(case=(_LINE, (3,), _LINE_G, [1, 2, 4, 6], 2, 400), approx=True)
@example(case=(_RANK3, (F(3, 2), 1, F(5, 4)),
               monomial_filtration(_RANK3, [(3, 2, 2), (2, 3, F(5, 2))]), [1, 3, 5], 2, 400),
         approx=True)
def test_rows_build_the_reference_ratios_on_read(case, approx):
    # Rows hold integers; each ratio property is the Fraction (or None) that
    # the rows once stored, and both writers print the retired formatting
    # of those Fractions byte for byte.
    s, xi0, G, levels, m_filt, budget = case
    try:
        sw, ref = _rows_and_reference(
            (lambda: sweep_approx(s, xi0, G, m_filt, levels, budget=budget)) if approx
            else (lambda: sweep(s, xi0, G, levels, budget=budget)))
    except BudgetExceeded:
        event("budget exceeded")
        return
    for row, want in zip(sw.per_level, ref, strict=True):
        assert (row.m, row.N_m, row.TS_m, row.TS0_m, row.count_gamma) \
            == (want.m, want.N_m, want.TS_m, want.TS0_m, want.count_gamma)
        for name in ("S_m", "Sp_m", "Spp_m", "lammax_m"):
            got, expected = getattr(row, name), getattr(want, name)
            assert got == expected and type(got) is type(expected), name
    for name in ("S_m", "Sp_m"):
        event(f"{name} None: {any(getattr(row, name) is None for row in ref)}")
    reference = ReferenceSweep(levels=sw.levels, per_level=ref, target=sw.target)
    assert sw.to_json() == reference.to_json()
    assert sw.to_csv() == reference.to_csv()


def test_row_ratios_cover_both_missing_cases():
    # The line's example above reaches both None branches of the writers:
    # orders 2a at weights 3a, so S_m = 2/3 once a = 1 is below m.
    sw = sweep(_LINE, (3,), _LINE_G, [1, 2, 4, 6])
    assert [(st.S_m, st.Sp_m) for st in sw.per_level] \
        == [(None, None), (None, None), (F(2, 3), None), (F(2, 3), F(2, 3))]
    assert sw.to_csv().split("\r\n")[1:4] == ["1,1,0,,,0,0", "2,1,0,,,0,0", "4,2,2,2/3,,1/2,1/2"]
    assert '"S_m": null,\n      "Sp_m": null,' in sw.to_json()


@settings(max_examples=100, deadline=None)
@given(case=_RANKS_1_TO_3, eps=st.fractions(min_value=F(1, 40), max_value=2, max_denominator=40),
       scale=st.fractions(min_value=F(1, 2), max_value=F(3, 2), max_denominator=12),
       pick=st.integers(0, 50), tie=st.booleans())
def test_bj_bound_check_matches_fraction_comparison(case, eps, scale, pick, tie):
    # The integer test (n+1) TS_m q <= p n m N_m, with p/q = (1+eps) S,
    # decides as S''_m <= (1+eps) S does in Fractions.  S''_m stays below
    # the closed-form S at these levels, so the target S is replaced to put
    # the bound among the S''_m: on one of them if ``tie``, else at
    # ``scale`` times the largest.
    s, xi0, G, levels, _, budget = case
    try:
        spp = sorted({st.Spp_m for st in sweep(s, xi0, G, levels, budget=budget).per_level})
    except BudgetExceeded:
        assume(False)
    bound = spp[pick % len(spp)] if tie else spp[-1] * scale
    target = estimators._target
    with mock.patch.object(estimators, "_target",
                           lambda *args: {**target(*args), "S": bound / (1 + eps)}):
        got = bj_bound_check(s, xi0, G, eps, min(levels), levels=levels)
    expected = all(x <= bound for x in spp)
    event(f"a level on the bound: {bound in spp}, bound holds: {expected}")
    assert got is expected


_RANK4 = from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)])
_G4 = monomial_filtration(_RANK4, [(3, 2, 2, 2), (2, F(5, 2), 3, 2), (F(5, 2), 2, 2, 3)])
_BOUNDARY = monomial_filtration(_Z3_LOW, [(3, -1), (1, 0)], require_primary=False)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 4).flatmap(
    lambda rank: _rank_one_cases() if rank == 1 else _sweep_cases(ranks=(rank,))))
@example(case=(_RANK4, (1, 1, 1, 1), _G4, [5, 12], 2, None))
@example(case=(_RANK4, (F(3, 2), 2, F(5, 3), 1), _G4, [3, 12], 2, None))
@example(case=(_Z3_LOW, (F(5, 2), F(-1, 3)), _BOUNDARY, [7, 40], 2, None))
@example(case=(_WEDGE, (1, 0), monomial_filtration(_WEDGE, [(3, 1), (F(5, 2), F(-1, 2))]),
               [7, 30], 2, None))
@example(case=(from_rays([(-1,)]), (F(-4, 3),), monomial_filtration(
    from_rays([(-1,)]), [(F(-5, 2),)]), [29], 2, None))
def test_sweep_in_either_coordinates_matches_per_point_reference(case):
    # The simplicial-cone kernel of ``sweep`` prints the per-point
    # reference in ranks 1-4, or raises where it exceeds the budget.  (The
    # name is from the retired level-coordinate scan, which this test also
    # ran, in either coordinates.)
    s, xi0, G, levels, _, budget = case
    try:
        ref = _reference_json(_reference_sweep(s, xi0, G, levels, budget))
    except BudgetExceeded:
        event("budget exceeded")
        with pytest.raises(BudgetExceeded):
            sweep(s, xi0, G, levels, budget=budget)
        return
    full = sweep(s, xi0, G, levels, budget=budget)
    assert estimators.EstimatorSweep(levels=full.levels, per_level=full.per_level).to_json() == ref
    event(f"rank {s.rank}")


# sha256 of to_json() for sweep and sweep_approx(m_filtration=2), recorded
# before the sweeps moved to level coordinates, where the first case then
# went and the others did not; the simplicial-cone kernel prints them too.
_PINNED_SWEEPS = [
    (_RANK4, (1, 1, 1, 1), _G4, range(1, 13),
     "0c38a7ea72f807759d4533cac007bc4e339386b816ac102c35412792e13c2d3c",
     "f3c5670a81f75182b7bc743ca965b7f35382e95817b88bdba5b53fe26ee70890"),
    (_RANK4, (F(3, 2), 2, F(5, 3), 1), _G4, range(1, 13),
     "2c859f4e4d57f48de33324d34ff09b83f745126d1497cab5fe151a8c774dec55",
     "7b72fe223801143d60c5583eab2ba2988cdcb9d9af42f0093a52290f7f341612"),
    (_Z3_LOW, (F(5, 2), F(-1, 3)), _BOUNDARY, range(1, 41),
     "1194a1f50fab64fe1354651ab5cc6e0b80b0ed349570d585c3d55844112e0fcd",
     "1e94d091f8237b33150e317c99df5428778076b38ae926dd8a5755880ec10feb"),
    (_Z3_LOW, (2, -1), _BOUNDARY, range(1, 41),
     "c0d8c187682249be52b43dd389acead2a728e2b7a08d0101cb644c36b40b0807",
     "b8d09e0f1ecc7ac0ebcd43fe9a94ecb6c0748ce5cd146f61d726506a354e8ba7"),
    (from_rays([[1]]), (F(3, 2),), monomial_filtration(from_rays([[1]]), [(F(7, 3),)]),
     range(1, 31),
     "a87d678195608388ffae9d2ce6eeb3d9217b7e2a9237fa3c002b364fc0b24e42",
     "c0c2a1fd8cc0242e649ac61de46ab712600cba1ac4310b46ffdddaf8a8fbdcc7"),
]


@pytest.mark.parametrize("s, xi0, G, levels, plain, approx", _PINNED_SWEEPS,
                         ids=["rank4-level", "rank4-original", "boundary-a", "boundary-b",
                              "line"])
def test_sweep_digests_pinned(s, xi0, G, levels, plain, approx):
    assert hashlib.sha256(sweep(s, xi0, G, levels).to_json().encode()).hexdigest() == plain
    assert hashlib.sha256(
        sweep_approx(s, xi0, G, 2, levels).to_json().encode()).hexdigest() == approx


def test_sweep_work_is_bounded_by_the_points(c2, fex):
    # At xi0 = (1, 10000019/1000000) the integer weight of e_2 is 10000019
    # in units of 1/L, L = 10^6; the kernel walks only the occupied weights
    # and keeps only the shells up to the top, so ten points take
    # kilobytes, not an array over the 11 * 10^6 weights below the top.
    xi0 = (1, F(10000019, 10 ** 6))
    fan._parallelepipeds.cache_clear()
    tracemalloc.start()
    try:
        sw = sweep(c2, xi0, fex, [5, 10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert sw.row(10).N_m == 10
    got = estimators.EstimatorSweep(levels=sw.levels, per_level=sw.per_level)
    assert got.to_json() == _reference_json(_reference_sweep(c2, xi0, fex, [5, 10], None))


def test_long_level_sweeps_read_one_window(c2, fex, monkeypatch):
    # xi0 = (1, 1234567/10^6) below level 150: sweep lists no lattice runs
    # at all, and sweep_approx lists its approximation table's once, over
    # the window <ell, .> <= 149 of ell = (1, 1).
    xi0 = (1, F(1234567, 10 ** 6))
    built = []

    def counted(c, taus, x, limit, budget):
        built.append((c, x, limit - 1))
        return runs(c, taus, x, limit, budget)
    runs = filtration._runs
    monkeypatch.setattr(filtration, "_runs", counted)
    filtration._approx_tables.cache_clear()
    sw = sweep(c2, xi0, fex, range(1, 150))
    assert built == []
    got = estimators.EstimatorSweep(levels=sw.levels, per_level=sw.per_level)
    assert got.to_json() == _reference_json(_reference_sweep(c2, xi0, fex, range(1, 150), None))
    approx = sweep_approx(c2, xi0, fex, 3, range(1, 150))
    assert built == [(c2.weight_cone, (1, 1), 149)]
    assert [st.N_m for st in approx.per_level] == [st.N_m for st in sw.per_level]


def _json_or_error(call):
    try:
        return call().to_json()
    except BudgetExceeded as exc:
        return str(exc)


@st.composite
def _table_pairs(draw):
    """A sweep case of rank 1-3 and a second filtration on its singularity."""
    case = draw(st.one_of(_rank_one_cases(), _sweep_cases()))
    return (*case, draw(_filtrations(case[0])))


@settings(max_examples=120, deadline=None)
@given(pair=_table_pairs())
@example(pair=(_WEDGE, (1, 0), monomial_filtration(_WEDGE, [(3, 1), (F(5, 2), F(-1, 2))]),
               [7, 30], 2, None, monomial_filtration(_WEDGE, [(1, 0)])))  # X = 0
@example(pair=(_Z3_LOW, (3, -2), monomial_filtration(_Z3_LOW, [(2, -1), (3, -5)]),
               [11, 40], 3, None, monomial_filtration(_Z3_LOW, [(1, -1)])))  # X = -2
@example(pair=(_RANK3, (F(3, 2), 1, F(5, 4)),
               monomial_filtration(_RANK3, [(3, 2, 2), (2, 3, F(5, 2))]),
               [9, 24], 3, None, monomial_filtration(_RANK3, [(1, 1, 1)])))  # den(xi0) = 4
def test_second_filtration_on_a_table_matches_a_cold_sweep(pair):
    # F0 and G warm the caches of (weight cone, xi0, top) under the default
    # budget: sweep's parallelepipeds, and the approximation tables of F0
    # and G.  The sweeps of G then read them (and check their own budget)
    # and must print what they print from cold caches: sweep_approx's is
    # one hit on G's table, and sweep never reads an approximation table.
    s, xi0, G, levels, m_filt, budget, F0 = pair
    tables = filtration._approx_tables
    for call, hits in ((lambda H, b: sweep(s, xi0, H, levels, budget=b), 0),
                       (lambda H, b: sweep_approx(s, xi0, H, m_filt, levels, budget=b), 1)):
        tables.cache_clear()
        fan._parallelepipeds.cache_clear()
        cold = _json_or_error(lambda: call(G, budget))
        tables.cache_clear()
        call(F0, None)
        call(G, None)
        before = tables.cache_info()
        warm = _json_or_error(lambda: call(G, budget))
        after = tables.cache_info()
        assert warm == cold
        assert (after.hits - before.hits, after.misses - before.misses) == (hits, 0)
        event("budget exceeded" if cold.startswith("lattice") else "swept")


def test_sweeps_of_one_key_share_one_table(c2, fex, monkeypatch):
    # sweep_approx lists the lattice runs once per (filtration, M): a lower
    # top level reads the stored table, a higher one grows it, and a second
    # filtration builds its own.  sweep and bj_bound_check list no runs, and
    # bj_bound_check reads the start points the sweep of a higher level
    # stored for the same simplices.
    calls = []

    def counted(c, taus, x, limit, budget):
        calls.append((c.rays, limit - 1))
        return runs(c, taus, x, limit, budget)
    runs = filtration._runs
    monkeypatch.setattr(filtration, "_runs", counted)
    filtration._approx_tables.cache_clear()
    fan._parallelepipeds.cache_clear()
    G = monomial_filtration(c2, [(1, 3), (2, 1)])
    sweep(c2, (1, 1), G, range(1, 31))
    stored = fan._parallelepipeds.cache_info()
    assert bj_bound_check(c2, (1, 1), G, 10, 1, levels=range(1, 21))
    info = fan._parallelepipeds.cache_info()
    assert (info.hits - stored.hits, info.misses - stored.misses) == (stored.currsize, 0)
    assert calls == []
    sweep_approx(c2, (1, 1), G, 2, range(1, 21))
    sweep_approx(c2, (1, 1), G, 2, [3, 19])
    info = filtration._approx_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert calls == [(c2.weight_cone.rays, 20)]
    sweep_approx(c2, (1, 1), fex, 3, [20])
    sweep_approx(c2, (1, 1), G, 2, [24])
    assert calls[1:] == [(c2.weight_cone.rays, 20), (c2.weight_cone.rays, 24)]
    info = filtration._approx_tables.cache_info()
    assert (info.misses, info.currsize) == (3, 2)


def test_table_hit_checks_the_budget(c2, fex, monkeypatch):
    # A hit on the approximation table resolves the budget as a miss does
    # and compares it with the stored point count of the window, so both
    # raise the same errors.  At xi0 = ell = (1, 1) the window below level
    # 10 holds exactly the points of weight < 10.
    levels = [4, 9]
    kept = len(lattice_points_below(c2.weight_cone, (1, 1), 10))
    G = monomial_filtration(c2, [(1, 3)])
    filtration._approx_tables.cache_clear()
    cold = sweep_approx(c2, (1, 1), G, 2, levels).to_json()
    sweep_approx(c2, (1, 1), fex, 2, levels)
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded, match=f"^lattice enumeration exceeded budget {kept - 1}$"):
        sweep_approx(c2, (1, 1), G, 2, levels, budget=kept - 1)
    assert sweep_approx(c2, (1, 1), G, 2, levels, budget=kept).to_json() == cold
    monkeypatch.setenv("CONESTAB_BUDGET", str(kept - 1))
    with pytest.raises(BudgetExceeded, match=f"^lattice enumeration exceeded budget {kept - 1}$"):
        sweep_approx(c2, (1, 1), G, 2, levels)
    monkeypatch.setenv("CONESTAB_BUDGET", str(kept))
    assert sweep_approx(c2, (1, 1), G, 2, levels).to_json() == cold
    with pytest.raises(ParseError, match="^budget: budget must be nonnegative, got -1$"):
        sweep_approx(c2, (1, 1), G, 2, levels, budget=-1)
    monkeypatch.setenv("CONESTAB_BUDGET", "-3")
    with pytest.raises(ParseError, match="^CONESTAB_BUDGET: budget must be nonnegative, got -3$"):
        sweep_approx(c2, (1, 1), G, 2, levels)
    info = filtration._approx_tables.cache_info()
    assert (info.hits, info.misses) == (4, 2)


# Points c in convex position around 0, summing to 0: a cone's rays are
# k v + sum_i c_i w_i, so v is interior.  Only rank 3 has room for more
# rays than its rank.
_SHAPES = {1: [[()]], 2: [[(1,), (-1,)]],
           3: [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (1, 1), (-1, 0), (-1, -1)],
               [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]]}


@st.composite
def _approx_cases(draw):
    """A cone of rank n = 1-3 with n to n + 2 rays around an integer
    direction v, xi0 = q v with q rational, a filtration of 1-3 covectors
    given with duplicate and redundant rows, M = 1-3 and levels up to 8.

    v's last coordinate takes each sign and 0, where X = 0 and every
    lattice run sits in one shell; q = a / b gives xi0 a denominator L > 1
    whenever b does not divide a v.
    """
    rank = draw(st.sampled_from([1, 2, 3]))
    small = st.sampled_from([0, 1, -1, 2, -2])
    v = [draw(small) for _ in range(rank)]
    w = [[draw(small) for _ in range(rank)] for _ in range(rank - 1)]
    assume(det([v] + w) != 0)
    k = draw(st.integers(1, 2))
    rays = [tuple(k * a + sum(c * b[i] for c, b in zip(cs, w)) for i, a in enumerate(v))
            for cs in draw(st.sampled_from(_SHAPES[rank]))]
    assume(all(map(any, rays)))
    try:
        s = from_rays(rays)
    except (NotQGorenstein, DegenerateCone):
        assume(False)
    assume(len(s.sigma.rays) == len(rays))
    q = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    xi0 = tuple(q * a for a in v)
    covs = list(draw(_filtrations(s)).covectors)
    for _ in range(draw(st.integers(0, 2))):
        z = draw(st.sampled_from(covs))
        r = draw(st.sampled_from([(0,) * rank, *s.sigma.rays]))  # a duplicate, or a row above z
        covs.append(tuple(a + b for a, b in zip(z, r)))
    G = monomial_filtration(s, covs)
    levels = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    event(f"{len(rays)} rays in rank {rank}, xi0 last coordinate 0: {v[-1] == 0}")
    event(f"L > 1: {_xi_row(xi0, rank)[1] > 1}")
    return s, xi0, G, draw(st.integers(1, 3)), levels


def _windows(call):
    """call()'s result, and the windows that its sweep_approx asked of the
    approximation table."""
    windows = []

    def recorded(F_, key, window, budget):
        windows.append(window)
        return approx_table(F_, key, window, budget)
    approx_table = estimators._approx_table
    with mock.patch.object(estimators, "_approx_table", recorded):
        return call(), windows


def _exact_window(s, xi0, top):
    """The largest <ell, .> over the lattice points below ``top``, ell =
    sigma's interior point: the least window that holds them all."""
    ell = s.sigma.interior_point()
    return max(dot(ell, p) for p in lattice_points_below(s.weight_cone, xi0, top))


@settings(max_examples=150, deadline=None)
@given(case=_approx_cases())
@example(case=(_C2, (1, 1), monomial_filtration(_C2, [(2, 1), (1, 2)]), 2, [3, 8]))
@example(case=(_WEDGE, (1, 0), monomial_filtration(_WEDGE, [(3, 1), (F(5, 2), F(-1, 2))]),
               3, [7, 8]))  # X = 0
@example(case=(_Z3_LOW, (F(5, 2), F(-1, 3)), _BOUNDARY, 2, [5, 8]))  # L = 6, X < 0
def test_sweep_approx_matches_the_shell_table_reference(case):
    # The approximation table binned by shell gives the rows and the CSV of
    # the per-point reference, also when the table was grown past the
    # window, and its window W is at least the exact window.  (The name is
    # from the retired shell table, the reference this test had before.)
    s, xi0, G, m_filt, levels = case
    try:  # keeps the grown table to a few thousand points on skinny cones
        lattice_points_below(s.weight_cone, xi0, max(levels) + 4, budget=3000)
    except BudgetExceeded:
        assume(False)
    filtration._approx_tables.cache_clear()
    got, (window,) = _windows(lambda: sweep_approx(s, xi0, G, m_filt, levels))
    ref = _reference_sweep_approx(s, xi0, G, m_filt, levels, None)
    rows = estimators.EstimatorSweep(levels=got.levels, per_level=got.per_level)
    assert rows.to_json() == _reference_json(ref) and rows.to_csv() == ref.to_csv()
    sweep_approx(s, xi0, G, m_filt, [max(levels) + 3])
    assert sweep_approx(s, xi0, G, m_filt, levels) == got
    exact = _exact_window(s, xi0, max(levels) + 1)
    assert window >= exact
    event(f"W > exact window: {window > exact}")


def test_window_is_the_vertex_bound_of_the_top_level(c2, fex, z3):
    # On C^2 at xi0 = (1, 1), the approx workload's cone, W is the exact
    # window.  On z3 at xi0 = (4, 3) below level 8 it is 7 where the exact
    # one is 6, and a budget of 10 or 11, between the windows' point
    # counts, raises where the retired shell-table path returned rows.
    for top in (2, 9, 23, 31):
        _, windows = _windows(lambda: sweep_approx(c2, (1, 1), fex, 2, [top - 1]))
        assert windows == [top - 1] == [_exact_window(c2, (1, 1), top)]
    G = monomial_filtration(z3, [(2, 1), (1, 1)])
    _, windows = _windows(lambda: sweep_approx(z3, (4, 3), G, 2, [7]))
    assert windows == [7]
    assert _exact_window(z3, (4, 3), 8) == 6
    ell = z3.sigma.interior_point()
    assert [len(lattice_points_below(z3.weight_cone, ell, w, strict=False))
            for w in (6, 7)] == [10, 12]
    for budget in (10, 11):
        filtration._approx_tables.cache_clear()
        with pytest.raises(BudgetExceeded, match=f"^lattice enumeration exceeded budget {budget}$"):
            sweep_approx(z3, (4, 3), G, 2, [7], budget=budget)
    got = sweep_approx(z3, (4, 3), G, 2, [7], budget=12)
    assert estimators.EstimatorSweep(levels=got.levels, per_level=got.per_level).to_json() \
        == _reference_json(_reference_sweep_approx(z3, (4, 3), G, 2, [7], 12))


@pytest.mark.parametrize("bad", [True, 2.5, "100"])
def test_budget_must_be_an_int(c2, fex, bad):
    # A bool would run as budget 1 and a float or string would pass or fail
    # by accident; each entry point names the budget instead.
    message = f"^budget: budget must be a nonnegative integer, got {re.escape(repr(bad))}$"
    calls = [lambda: lattice_points_below(c2.weight_cone, (1, 1), 3, budget=bad),
             lambda: sweep(c2, (1, 1), fex, [1, 2], budget=bad),
             lambda: approx_ord(fex, 2, (1, 1), budget=bad),
             lambda: approximant(fex, 2, budget=bad)]
    for call in calls:
        with pytest.raises(ParseError, match=message):
            call()


@settings(max_examples=80, deadline=None)
@given(case=_sweep_cases(), m=st.integers(1, 6),
       t=st.fractions(min_value=-2, max_value=4, max_denominator=5))
def test_gamma_semigroup_matches_fraction_orders(case, m, t):
    # The integer membership test keeps exactly the points g(p) >= m t.
    s, xi0, G, *_ = case
    try:
        pts = lattice_points_below(s.weight_cone, xi0, m, strict=False, budget=3000)
    except BudgetExceeded:
        assume(False)
    sample = gamma_semigroup(s, xi0, G, m, t)
    assert sample.points == [p for p in pts if G.ord(p) >= m * t]
    assert sample.cloud == [tuple(F(x, m) for x in p) for p in sample.points]
    event(f"t <= 0: {t <= 0}, covector denominator > 1: "
          f"{any(x.denominator > 1 for z in G.covectors for x in z)}")


def test_bj_bound_check_validates_m0(c2, fex):
    # A bad m0 is named, with or without levels, not reported as bad levels.
    for bad in (0, -2, 1.5, True, "3"):
        for levels in (None, [1, 2, 3]):
            with pytest.raises(EmptyInput, match=f"^m0 must be a positive integer, got {bad!r}$"):
                bj_bound_check(c2, (1, 1), fex, "1/10", bad, levels=levels)


def test_table_caches_keep_no_table_above_their_bound(c2, fex):
    # An approximation table holding more points than the bound is built
    # for its call and dropped after it, so the memory held between calls
    # stays bounded; a sweep keeps only its parallelepipeds.
    line = from_rays([[1]])
    G = monomial_filtration(line, [(2,)])
    filtration._approx_tables.cache_clear()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert sweep(line, (1,), G, [10, 20000]).row(20000).N_m == 20000
        assert sweep_approx(line, (1,), G, 1, [10, 70000]).row(70000).N_m == 70000
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held < 10 ** 6
    assert filtration._approx_tables.cache_info().currsize == 0
    assert approx_ord(G, 1, (70000,)) == 70000
    assert filtration._approx_tables.cache_info().currsize == 0
    # The approximation sweep of C^2 to level 60 and its table stay cached.
    sweep_approx(c2, (1, 1), fex, 3, range(1, 61))
    assert filtration._approx_tables.cache_info().currsize == 1


def test_oversized_table_keeps_the_stored_one():
    # A grown approximation table too large to keep is built for its call;
    # the table already stored under its key stays, so the approximant
    # reads it again with no enumeration and no vertex enumeration.
    line = from_rays([[1]])
    G = monomial_filtration(line, [(2,)])
    filtration._approx_tables.cache_clear()
    first = approximant(G, 1)
    assert approx_ord(G, 1, (70000,)) == 70000
    info = filtration._approx_tables.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    with mock.patch.object(filtration, "enumerate_vertices", side_effect=AssertionError):
        assert approximant(G, 1) == first
    info = filtration._approx_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


def test_table_rebuilt_for_a_larger_window_counts_a_miss(c2):
    # A stored table whose window is too small is rebuilt, so the lookup
    # that found it is a miss; only a table read as it is counts a hit.
    G = monomial_filtration(c2, [(2, 1), (1, 3)])
    filtration._approx_tables.cache_clear()
    for alpha in ((3, 3), (30, 30), (3, 3)):
        approx_ord(G, 2, alpha)
    info = filtration._approx_tables.cache_info()
    assert (info.hits, info.misses) == (1, 2)
