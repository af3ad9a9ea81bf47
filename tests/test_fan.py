import random
from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor, prod
from operator import mul

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conestab.errors import BudgetExceeded, ConestabError, DegenerateCone, UnboundedSlice
from conestab.exactgeom import (
    PLConcave,
    cone_from_halfspaces,
    cone_from_rays,
    dot,
    dual_cone,
    slice_polytope,
)
from conestab.exactgeom import cone, fan, linalg
from conestab.exactgeom.cone import _distinct
from conestab.exactgeom.fan import _chamber_key, _chamber_rows, chambers, cone_fan
from conestab.exactgeom.linalg import _integer_covectors, _integer_row, mat_rank, primitivize
from conestab.exactgeom.polytope import (
    barycenter,
    integrate_pl,
    second_moment,
    triangulate,
    volume,
)
from conestab.filtration import monomial_filtration
from conestab.invariants import lambda_max_closed, s_closed
from conestab.singularity import from_rays
from conftest import (
    _box_scan,
    fan_moments,
    random_cone,
    random_filtration,
    random_reeb,
    scan_chambers,
    scan_cone,
    scan_facet_normals,
    scan_fan,
)

F = Fraction


def chamber_s(c, xi, covectors):
    """S = sum over chamber simplices of |det| / prod p_i * <z_j, sum w_i / p_i>,
    over n * vol, as ``invariants.s_closed`` computes it on the covectors'
    integer rows zs_j / den."""
    n = c.rank
    zs, den = _integer_covectors(covectors)
    total = F(0)
    for z, fan in _chamber_rows(c, zs):
        _, grad, _ = fan_moments(fan, xi, order=1)
        total -= dot(z, grad)
    return total / (den * n * fan_moments(cone_fan(c), xi, order=0)[0])


def test_orthant_moments():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    vol, grad, hess = fan_moments(cone_fan(orthant), (1, 1))
    assert vol == 1  # 2! times the area 1/2 of the unit triangle
    assert grad == (-1, -1)
    assert hess == ((2, 1), (1, 2))  # 4! times the second moments 1/12, 1/24
    assert fan_moments(cone_fan(orthant), (1, 2), order=0) == (F(1, 2), None, None)


def test_moments_reject_vanishing_pairing():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    with pytest.raises(UnboundedSlice):
        fan_moments(cone_fan(orthant), (1, 0))


def test_chambers_skip_duplicates_and_ties():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    covs = [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(0))]
    # The midpoint covector is minimal only on the diagonal ray.
    rows, _ = _integer_covectors(covs)  # (2, 0), (0, 2), (1, 1), (2, 0)
    assert [z for z, _ in _chamber_rows(orthant, rows)] == list(rows[:2])
    body = slice_polytope(orthant, (1, 1), 1)
    assert integrate_pl(body, PLConcave(rows, 2)) == F(1, 12)
    assert chamber_s(orthant, (1, 1), covs) == F(3, 2) * F(1, 12) / volume(body)


def test_rank_one_chambers():
    ray = cone_from_rays([(1,)])
    assert [z for z, _ in _chamber_rows(ray, [(3,), (2,)])] == [(2,)]
    assert chamber_s(ray, (1,), [(3,), (2,)]) == 2
    with pytest.raises(DegenerateCone):
        cone_from_halfspaces([(1,), (-1,)])


@st.composite
def cones_with_data(draw):
    """A cone over lattice points at height one, a point xi interior to its
    dual, and covectors with duplicates and ties among them."""
    n = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (n - 1)),
                           min_size=n, max_size=n + 3))
    rays = [(1,) + p for p in points]  # repeats and interior points drop out
    assume(mat_rank(rays) == n)
    c = cone_from_rays(rays)
    xi = [F(0)] * n
    for h in c.halfspaces:  # positive on every ray of c
        w = F(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        xi = [x + w * a for x, a in zip(xi, h)]
    covs = draw(st.lists(st.tuples(*[st.integers(-3, 3).map(F)] * n),
                         min_size=1, max_size=3))
    if len(covs) >= 2 and draw(st.booleans()):
        # Minimal only where the two ends tie: a lower-dimensional chamber.
        covs.append(tuple((a + b) / 2 for a, b in zip(covs[0], covs[1])))
    if draw(st.booleans()):
        covs.append(covs[draw(st.integers(0, len(covs) - 1))])
    return c, tuple(xi), draw(st.permutations(covs))


@settings(max_examples=60, deadline=None)
@given(data=cones_with_data())
def test_kernel_equals_polytope_path(data):
    c, xi, covs = data
    n = c.rank
    body = slice_polytope(c, xi, 1)
    V, b, M = volume(body), barycenter(body), second_moment(body)
    vol, grad, hess = fan_moments(cone_fan(c), xi)
    assert vol == factorial(n) * V
    assert grad == tuple(-factorial(n + 1) * V * x for x in b)
    assert hess == tuple(tuple(factorial(n + 2) * x for x in row) for row in M)
    assert tuple(-g / ((n + 1) * vol) for g in grad) == b
    integral = integrate_pl(body, PLConcave(*_integer_covectors(covs)))
    assert chamber_s(c, xi, covs) == F(n + 1, n) * integral / V
    event(f"rank {n}")
    if len(c.rays) > n:
        event("non-simplicial cone")
    if len(_chamber_rows(c, _integer_covectors(covs)[0])) < len(set(covs)):
        event("lower-dimensional chamber")


def _pts(*texts):
    return tuple(tuple(F(x) for x in t.split()) for t in texts)


# Per cone: simplices of the fans of sigma and of its weight cone, and the
# triangulation of the weight-cone slice at the sum of sigma's rays.
PINNED_TRIANGULATIONS = [
    ([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)],  # dP1
     {(2, (0, 1, 3)), (2, (0, 2, 3))},
     {(2, (0, 1, 3)), (6, (0, 2, 3))},
     {_pts("0 0 0", "0 0 1/3", "0 1/3 0", "2/5 1/5 -2/5"),
      _pts("0 0 0", "0 0 1/3", "2/5 -2/5 1/5", "2/5 1/5 -2/5")}),
    ([(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
     {(1, (0, 1, 2, 4)), (1, (0, 1, 3, 4)), (1, (0, 2, 3, 4))},
     {(1, (0, 1, 2, 5)), (2, (0, 1, 4, 5)), (4, (0, 3, 4, 5))},
     {_pts("0 0 0 0", "0 0 0 1/2", "0 0 1/2 0", "0 1/2 0 0", "1/3 1/3 -1/3 -1/3"),
      _pts("0 0 0 0", "0 0 0 1/2", "0 0 1/2 0", "1/3 -1/3 1/3 -1/3",
           "1/3 1/3 -1/3 -1/3"),
      _pts("0 0 0 0", "0 0 0 1/2", "1/3 -1/3 -1/3 1/3", "1/3 -1/3 1/3 -1/3",
           "1/3 1/3 -1/3 -1/3")}),
    ([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)],  # cube cone
     {(2, (0, 1, 3)), (2, (0, 2, 3))},
     {(4, (0, 1, 3)), (4, (0, 2, 3))},
     {_pts("-1/4 -1/4 1/4", "-1/4 1/4 1/4", "0 0 0", "1/4 1/4 1/4"),
      _pts("-1/4 -1/4 1/4", "0 0 0", "1/4 -1/4 1/4", "1/4 1/4 1/4")}),
]


@pytest.mark.parametrize("rays, sigma_fan, weight_fan, slice_simplices",
                         PINNED_TRIANGULATIONS)
def test_triangulations_pinned_as_sets(rays, sigma_fan, weight_fan, slice_simplices):
    c = cone_from_rays(rays)
    w = dual_cone(c)
    assert set(cone_fan(c).simplices) == sigma_fan
    assert set(cone_fan(w).simplices) == weight_fan
    assert set(triangulate(slice_polytope(w, c.interior_point(), 1))) == slice_simplices


def test_chamber_fans_pinned_as_sets():
    c = cone_from_rays([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)])
    got = {z: (fan.rays, set(fan.simplices))
           for z, fan in _chamber_rows(dual_cone(c), [(1, 1, 1), (2, 0, 1), (1, 2, 0)])}
    assert got == {
        (1, 1, 1): (((1, 1, -1), (1, 1, 1), (2, 1, -2), (4, -1, -1)),
                    {(3, (0, 2, 3)), (10, (0, 1, 3))}),
        (2, 0, 1): (((0, 1, 0), (0, 1, 2), (1, 1, -1), (1, 1, 1)),
                    {(2, (0, 1, 3)), (2, (0, 2, 3))}),
        (1, 2, 0): (((0, 0, 1), (0, 1, 2), (1, 1, 1), (2, -2, 1), (4, -1, -1)),
                    {(1, (0, 1, 2)), (5, (0, 2, 4)), (6, (0, 3, 4))}),
    }


def test_chambers_store_reports_hits_and_misses():
    c = from_rays([(1, 0), (1, 3)]).weight_cone
    chambers.cache_clear()
    assert chambers.cache_info() == (0, 0, 256, 0)
    first = chambers(c, ((1, 2), (2, 1)))
    assert chambers(c, ((1, 2), (2, 1))) is first
    assert chambers.cache_info() == (1, 1, 256, 1)
    chambers.cache_clear()
    assert chambers.cache_info() == (0, 0, 256, 0)


def test_large_decomposition_is_built_once():
    # The canonical cone over (P^1)^7: its weight cone, over the 7-cube, has
    # 7! = 5,040 simplices, and so do the two chambers of this filtration
    # together, above 4,096.  The store keeps them, so the reduction builds
    # the decomposition and S and lambda_max read it.
    s = from_rays([(1, *(a * (j == i) for j in range(7))) for i in range(7) for a in (1, -1)])
    xi0 = (8,) + (0,) * 7
    chambers.cache_clear()
    F_ = monomial_filtration(s, [(2, 1) + (0,) * 6, (2, 0, 1) + (0,) * 5])
    assert s_closed(s, xi0, F_) == F(5, 24) and lambda_max_closed(s, xi0, F_) == F(3, 8)
    assert chambers.cache_info() == (2, 1, 256, 1) and chambers.weight == 5040


def test_reduction_stores_the_decomposition_of_the_reduced_rows():
    # A redundant covector changes no full-dimensional chamber, so the
    # decomposition built while reducing is stored under the reduced rows'
    # key too: S, lambda_max and the twists then read it with no miss, and
    # it equals a cold build of that key (the store's cold builder).
    rnd = random.Random(61)
    for _ in range(30):
        s = random_cone(rnd, rnd.choice([2, 3]))
        G = random_filtration(rnd, s)
        z = G.covectors
        redundant = [tuple(a + b for a, b in zip(z[0], s.sigma.rays[0])),
                     tuple((a + b) / 2 for a, b in zip(z[0], z[-1]))]
        chambers.cache_clear()
        assert monomial_filtration(s, [*z, *redundant]) == G
        misses = chambers.cache_info().misses
        assert [r for r, _ in _chamber_rows(s.weight_cone, G.transform.rows)] == \
            list(G.transform.rows)
        assert chambers.cache_info().misses == misses
        key = tuple(_chamber_key(G.transform.rows))
        assert chambers(s.weight_cone, key) == chambers.__wrapped__(s.weight_cone, key)


@st.composite
def chamber_cases(draw):
    """A pointed full-dimensional cone of rank 1 to 4 and one to five
    covectors, all int or all Fraction, with ties and duplicates among them."""
    n = draw(st.integers(1, 4))
    if n == 1:
        c = cone_from_rays([(draw(st.sampled_from([1, -1])),)])
    else:
        points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (n - 1)),
                               min_size=n, max_size=n + 3))
        rays = [(1,) + p for p in points]
        assume(mat_rank(rays) == n)
        c = draw(st.sampled_from([cone_from_rays(rays), dual_cone(cone_from_rays(rays))]))
    entry = draw(st.sampled_from([st.integers(-3, 3),
                                  st.fractions(-3, 3, max_denominator=3)]))
    covs = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=3))
    if len(covs) >= 2 and draw(st.booleans()):
        covs.append(tuple(F(a + b) / 2 for a, b in zip(covs[0], covs[1])))  # a tie
    if draw(st.booleans()):
        covs.append(covs[draw(st.integers(0, len(covs) - 1))])
    return c, tuple(draw(st.permutations(covs)))


def _cube_cone(n):
    """The cone over the (n-1)-cube: rays (1, +-1, ..., +-1)."""
    return cone_from_rays([(1, *v) for v in product((1, -1), repeat=n - 1)])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fans_of_cube_and_cross_polytope_cones_match_reference(n):
    # The cube cone's pulling triangulation has (n-1)! simplices, and the
    # cross-polytope cone's (its dual) 2^(n-2): the same sets, sorted, as
    # the recursion that converts each face afresh.
    for c, count in [(_cube_cone(n), factorial(n - 1)), (dual_cone(_cube_cone(n)), 2 ** (n - 2))]:
        got = cone_fan(c)
        assert got == scan_fan(c.rays, n) and len(got.simplices) == count


@settings(max_examples=300, deadline=None)
@given(case=chamber_cases())
def test_chambers_match_facet_scan_reference(case):
    # The double-description cut keeps the same chambers, in the same
    # order, with the same sorted rays and simplices as the facet scan with
    # Fraction determinants (a lone chamber's fan is the cone's).
    c, covs = case
    got = chambers.__wrapped__(c, covs)
    assert got == scan_chambers(c, covs)
    event(f"rank {c.rank}")
    event(f"{len(got)} of {len(set(covs))} chambers kept")
    if any(len(f.rays) > c.rank for _, f in got):
        event("non-simplicial chamber")


@st.composite
def ray_sets(draw):
    """Primitive integer rays of rank 1 to 5, n of them half of the time,
    spanning or not, pointed or not."""
    n = draw(st.integers(1, 5))
    count = draw(st.one_of(st.just(n), st.integers(1, n + 2)))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=count, max_size=count))
    return [primitivize(r) for r in rays]


def _outcome(build, rays):
    try:
        return build(rays)
    except ConestabError as exc:
        return type(exc), str(exc)


def scan_halfspace_cone(halfspaces):
    """Cold reference of ``cone_from_halfspaces``: covectors that do not span
    leave a line in the cone; otherwise the rays by a scan of the
    covectors, then ``scan_cone``."""
    hs, n = _distinct((primitivize(h) for h in halfspaces), "halfspaces")
    if mat_rank(hs) < n:
        raise DegenerateCone("halfspace cone is not pointed")
    rays = scan_facet_normals(hs, n)
    if mat_rank(rays) < n:
        raise DegenerateCone("halfspace cone is not full-dimensional")
    return scan_cone(rays)


@pytest.mark.parametrize("halfspaces, error", [
    ([(0, 1)], "not pointed"),  # the half-plane: full-dimensional, with a line
    ([(1, 0), (0, 1), (-1, -1)], "not full-dimensional"),  # only the origin
    ([(1, 0), (-1, 0), (0, 1)], "not full-dimensional"),  # a ray
])
def test_degenerate_halfspace_cones(halfspaces, error):
    for build in (cone_from_halfspaces, scan_halfspace_cone):
        with pytest.raises(DegenerateCone, match=f"^halfspace cone is {error}$"):
            build(halfspaces)


@settings(max_examples=400, deadline=None)
@given(rays=ray_sets())
def test_cone_matches_two_scan_reference(rays):
    # The double description gives the cone, or the error class and message
    # of a degenerate input, that the two scans give, from rays and from
    # halfspaces.
    got = _outcome(cone_from_rays, rays)
    assert got == _outcome(scan_cone, rays)
    assert _outcome(cone_from_halfspaces, rays) == _outcome(scan_halfspace_cone, rays)
    event(f"rank {len(rays[0])}, {'error' if isinstance(got[0], type) else 'cone'}")


def test_chamber_cut_makes_no_elimination(monkeypatch):
    # g = min(x, y, z) on the orthant has three simplicial chambers.  The
    # cuts make no row reduction; each chamber's fan makes one, for the
    # |det| of its one simplex.
    c = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    covs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    calls, kernel = [], linalg._row_reduce

    def counted(rows, ncols):
        calls.append(len(rows))
        return kernel(rows, ncols)

    for module in (cone, fan, linalg):
        monkeypatch.setattr(module, "_row_reduce", counted)
    built = []
    with monkeypatch.context() as stub:
        stub.setattr(fan, "simplicial_fan",
                     lambda incidence, n: built.append(sorted(r for r, _ in incidence)))
        chambers.__wrapped__(c, covs)
    assert calls == []
    assert built == [[(0, 0, 1), (0, 1, 0), (1, 1, 1)], [(0, 0, 1), (1, 0, 0), (1, 1, 1)],
                     [(0, 1, 0), (1, 0, 0), (1, 1, 1)]]
    found = chambers.__wrapped__(c, covs)
    assert calls == [3, 3, 3]
    assert [(z, f.simplices) for z, f in found] == [(z, ((1, (0, 1, 2)),)) for z in covs]


# ---------------------------------------------------------------------------
# The one lattice kernel, ``fan._runs``, against the per-point box scan.

_NON_SIMPLICIAL_SIGMAS = (((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
                          ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1)),
                          ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                           (1, 1, 1, 1)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_runs_list_each_point_below_the_limit_once(seed):
    # Ranks 1-4, simplicial weight cones and not, xi0 = x / L with L up to
    # 2 and limits that are not multiples of L.  Over the cone's own fan and
    # over the chambers of a filtration, the runs lay out every lattice
    # point with <x, .> < limit exactly once: the box scan's points.  A
    # budget of the point count passes, and one less raises, from a cold
    # store and from a warm one.
    rnd = random.Random(seed)
    rank = 1 + seed % 4
    if rank > 2 and rnd.random() < 0.4:
        s = from_rays(rnd.choice([r for r in _NON_SIMPLICIAL_SIGMAS if len(r[0]) == rank]))
    else:
        s = random_cone(rnd, rank)
    c, xi = s.weight_cone, random_reeb(rnd, s)
    x, L = _integer_row(xi)
    x = tuple(x)
    limit = rnd.randint(0, 12 * max(sum(map(mul, x, r)) for r in c.rays))

    def box(limit):  # the lattice box of the hull of 0 and the rays on <x, .> = limit
        hull = [(0,) * rank] + [tuple(F(limit * a, dot(x, r)) for a in r) for r in c.rays]
        return prod(floor(max(col)) - ceil(min(col)) + 1 for col in zip(*hull))
    while box(limit) > 4000:
        limit //= 2
    expected = _box_scan(c, xi, F(limit, L), True)
    n, short = len(expected), f"^lattice enumeration exceeded budget {len(expected) - 1}$"
    chamber_fans = [f for _, f in _chamber_rows(c, random_filtration(rnd, s).transform.rows)]
    taus = {name: [tuple(f.rays[i] for i in tau) for f in fans for _, tau in f.simplices]
            for name, fans in (("fan", [cone_fan(c)]), ("chambers", chamber_fans))}
    event(f"rank {rank}, {'simplicial' if len(taus['fan']) == 1 else 'not simplicial'}, "
          f"{'no' if not n else 'under 100' if n < 100 else '100 or more'} points")
    for name, cones in taus.items():
        fan._parallelepipeds.cache_clear()
        if n:  # one point short raises from a cold store
            with pytest.raises(BudgetExceeded, match=short):
                fan._runs(c, cones, x, limit, n - 1)
        runs = fan._runs(c, cones, x, limit, n)
        if n:  # and from a warm one
            with pytest.raises(BudgetExceeded, match=short):
                fan._runs(c, cones, x, limit, n - 1)
        assert len(runs) == len(cones)
        assert all(k >= 1 and r in tau and sum(map(mul, x, r)) == min(
            sum(map(mul, x, w)) for w in tau) for group, tau in zip(runs, cones)
            for _, r, k in group)
        points = [tuple(a + t * b for a, b in zip(p, r)) for group in runs
                  for p, r, k in group for t in range(k)]
        assert sorted(points) == expected, name
