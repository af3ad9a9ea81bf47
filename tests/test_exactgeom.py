import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab.errors import (
    AmbientMismatch,
    BudgetExceeded,
    DegenerateCone,
    ParseError,
    Unbounded,
    UnboundedSlice,
)
from conestab.exactgeom import (
    PLConcave,
    Polytope,
    cone_from_rays,
    dot,
    dual_cone,
    frac,
    lattice_points_below,
    slice_polytope,
    slice_vertices,
)
from conestab.exactgeom.linalg import (
    _integer_rows,
    _row_reduce,
    det,
    mat_rank,
    nullspace,
    solve,
)
from conestab.exactgeom.polytope import barycenter, integrate_pl, volume
from conftest import _box_scan, random_cone, scan_facet_normals

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


def test_slice_vertices():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    assert set(slice_vertices(orthant.rays, (1, 2))) == {(1, 0), (0, F(1, 2))}
    skew = cone_from_rays([(0, 1), (2, -1)])
    verts = slice_vertices(skew.rays, (1, 1), F(3, 2))
    assert verts == tuple(tuple(F(3, 2) * x for x in r) for r in skew.rays)
    p = slice_polytope(orthant, (1, 2), 1)
    assert p.vertices == ((0, 0),) + slice_vertices(orthant.rays, (1, 2))
    assert p.contains((F(1, 2), F(1, 4)))
    assert not p.contains((F(1, 2), F(1, 2)))
    with pytest.raises(UnboundedSlice, match="slicing covector vanishes on a ray"):
        slice_vertices(orthant.rays, (1, 0))


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
    assert integrate_pl(tri, PLConcave(rows=((1, 1),), den=1)) == F(1, 3)
    g = PLConcave(rows=((2, 1), (1, 2)), den=1)
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
        zeta = tuple(rnd.randint(-2, 4) for _ in range(s.rank))
        got = integrate_pl(p, PLConcave(rows=(zeta,), den=1))
        assert got == volume(p) * dot(zeta, barycenter(p))


def test_integrate_duplicate_covectors_no_double_count():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    tri = slice_polytope(orthant, (1, 1), 1)
    g = PLConcave(rows=((1, 1), (1, 1)), den=1)
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


def test_lattice_rejects_unbounded_region():
    # (1, -1) pairs negatively with the ray (0, 1), so {<a, xi> < m} is
    # unbounded in the orthant.
    orthant = cone_from_rays([(1, 0), (0, 1)])
    with pytest.raises(UnboundedSlice, match="slicing covector vanishes on a ray"):
        lattice_points_below(orthant, (1, -1), 3)


def test_lattice_budget_counts_kept_points():
    orthant = cone_from_rays([(1, 0), (0, 1)])
    pts = lattice_points_below(orthant, (1, 1), 9)
    assert len(pts) == 45
    assert lattice_points_below(orthant, (1, 1), 9, budget=45) == pts
    with pytest.raises(BudgetExceeded):
        lattice_points_below(orthant, (1, 1), 9, budget=44)


def test_lattice_budget_raises_before_listing_a_huge_region():
    # 10**9 levels hold about 5 * 10**17 points of C2 and far more of C3.
    # Each step along a ray is counted before its list is made, so budget 10
    # raises having allocated next to nothing.  At (1, 10**8, 1) the first
    # step (along the second ray) lists 10 points and the second would list
    # about 10**10.
    cases = [((1, 0), (0, 1)), (1, 1)], [((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)], \
        [((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 10 ** 8, 1)]
    for rays, xi in cases:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="^lattice enumeration exceeded budget 10$"):
                lattice_points_below(cone_from_rays(rays), xi, 10 ** 9, budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (xi, peak)


def test_lattice_budget_env_malformed(monkeypatch):
    orthant = cone_from_rays([(1, 0), (0, 1)])
    monkeypatch.setenv("CONESTAB_BUDGET", "abc")
    with pytest.raises(ParseError, match="CONESTAB_BUDGET"):
        lattice_points_below(orthant, (1, 1), 3)
    monkeypatch.setenv("CONESTAB_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        lattice_points_below(orthant, (1, 1), 3)


_NON_SIMPLICIAL = (((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
                   ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1)),
                   ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), strict=st.booleans())
def test_lattice_points_match_fraction_box_scan(seed, strict):
    # Ranks 1-4, simplicial and not; xi a positive rational combination of
    # the facet normals (so bounded), or one time in five an integer vector
    # that may vanish or turn negative on a ray.
    rnd = random.Random(seed)
    rank = 1 + seed % 4
    if rank == 1:
        c = cone_from_rays([(rnd.choice([-1, 1]),)])
    elif rank > 2 and rnd.random() < 0.3:
        c = cone_from_rays(rnd.choice([r for r in _NON_SIMPLICIAL if len(r[0]) == rank]))
    else:
        c = random_cone(rnd, rank).weight_cone
    if rnd.random() < 0.2:
        xi = tuple(rnd.randint(-2, 2) for _ in range(rank))
    else:
        xi = [F(0)] * rank
        for h in c.halfspaces:
            w = F(rnd.randint(1, 3), rnd.randint(1, 3))
            xi = [x + w * hx for x, hx in zip(xi, h)]
        xi = tuple(xi)
    # Divide the level until the reference box holds at most 6000 points.
    num, m_den, k = rnd.randint(-3, 30), rnd.randint(1, 3), 1
    if all(dot(xi, r) > 0 for r in c.rays):
        unit = [(0,) * rank] + [tuple(x / dot(xi, r) for x in r) for r in c.rays]
        widths = [max(v[i] for v in unit) - min(v[i] for v in unit) for i in range(rank)]
        while prod(ceil(F(abs(num), m_den * k) * w) + 3 for w in widths) > 6000:
            k += 1
    m = F(num, m_den * k)
    expected = _box_scan(c, xi, m, strict)
    if expected is None:
        with pytest.raises(UnboundedSlice, match="^slicing covector vanishes on a ray$"):
            lattice_points_below(c, xi, m, strict=strict)
        return
    n = len(expected)
    pts = lattice_points_below(c, xi, m, strict=strict)
    assert pts == expected == lattice_points_below(c, xi, m, strict=strict, budget=n)
    assert all(type(p) is tuple and all(type(x) is int for x in p) for p in pts)
    if n:  # one point short of the count must raise
        with pytest.raises(BudgetExceeded, match=f"^lattice enumeration exceeded budget {n - 1}$"):
            lattice_points_below(c, xi, m, strict=strict, budget=n - 1)


def test_lattice_count_matches_volume():
    # count / (m^n / n!) approaches n! * vol(unit slice) = 1 for the plane
    orthant = cone_from_rays([(1, 0), (0, 1)])
    m = 200
    count = len(lattice_points_below(orthant, (1, 1), m))
    est = F(count * 2, m ** 2)
    assert abs(est - 1) <= F(2, 100)


def test_dual_rejects_lower_dimensional():
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


def _cofactor_det(m):
    """Laplace expansion along the first row; exact for ints and Fractions."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _minor_rank(a):
    """Largest k with a nonzero k x k minor (0 for no rows or no columns)."""
    for k in range(min(len(a), len(a[0])) if a else 0, 0, -1):
        if any(_cofactor_det([[a[i][j] for j in cols] for i in rows])
               for rows in combinations(range(len(a)), k)
               for cols in combinations(range(len(a[0])), k)):
            return k
    return 0


_RATS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _rat_matrices(draw, square=False):
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    a = [[draw(_RATS) for _ in range(n)] for _ in range(m)]
    keep = draw(st.integers(0, m))  # rows past `keep` combine earlier ones
    for i in range(keep, m):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(keep)]
        a[i] = [sum((c * a[k][j] for k, c in enumerate(coeffs)), F(0)) for j in range(n)]
    return a


def test_linalg_literal_cases():
    assert mat_rank([]) == 0
    assert solve([], []) is None
    assert nullspace([], 2) == [(1, 0), (0, 1)]
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1  # one row swap flips the sign
    assert det([[0, 2, 0], [3, 0, 0], [0, 0, 5]]) == -30
    assert det([[1, 2], [2, 4]]) == 0
    assert solve([[1, 1]], [2]) is None  # underdetermined
    assert solve([[1], [1]], [1, 2]) is None  # inconsistent
    assert solve([[1], [2]], [1, 2]) == (1,)  # overdetermined, consistent


@settings(max_examples=150, deadline=None)
@given(a=_rat_matrices(square=True))
def test_det_matches_cofactor_expansion(a):
    got = det(a)
    assert type(got) is Fraction and got == _cofactor_det(a)


@settings(max_examples=150, deadline=None)
@given(a=_rat_matrices())
def test_mat_rank_is_largest_nonzero_minor(a):
    assert mat_rank(a) == _minor_rank(a)
    assert mat_rank([list(col) for col in zip(*a)]) == _minor_rank(a)


@settings(max_examples=150, deadline=None)
@given(a=_rat_matrices(), data=st.data())
def test_solve_solves_or_reports_none(a, data):
    n = len(a[0])
    if data.draw(st.booleans(), label="consistent"):
        x0 = data.draw(st.lists(_RATS, min_size=n, max_size=n), label="x0")
        rhs = [sum((p * q for p, q in zip(row, x0)), F(0)) for row in a]
    else:
        rhs = data.draw(st.lists(_RATS, min_size=len(a), max_size=len(a)), label="rhs")
    rank = _minor_rank(a)
    consistent = _minor_rank([row + [b] for row, b in zip(a, rhs)]) == rank
    x = solve(a, rhs)
    assert (x is None) == (rank < n or not consistent)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert [sum((p * q for p, q in zip(row, x)), F(0)) for row in a] == rhs


@settings(max_examples=150, deadline=None)
@given(a=_rat_matrices())
def test_nullspace_is_the_reduced_kernel_basis(a):
    n = len(a[0])
    basis = nullspace(a, n)
    assert len(basis) == n - _minor_rank(a)
    # Column c is free when it adds nothing to the rank of the columns before it.
    free = [c for c in range(n)
            if _minor_rank([r[:c + 1] for r in a]) == _minor_rank([r[:c] for r in a])]
    for v, c in zip(basis, free, strict=True):
        assert all(type(x) is Fraction for x in v)
        assert all(sum((p * q for p, q in zip(row, v)), F(0)) == 0 for row in a)
        assert v[c] == 1 and all(v[d] == 0 for d in free if d != c)


# -- Fraction references for the integer scans --------------------------------
# The Fraction Gauss-Jordan elimination, and the vertex and facet scans built on
# it as the library ran them before the kernel moved to integers.  The library
# must agree with them exactly, sign of every normal included.


def _frac_rref(rows, ncols):
    """Reduced row echelon form over Fraction: (rows, pivot columns)."""
    m = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [a / m[row][col] for a in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return m, pivots


def _ref_enumerate_vertices(halfspaces, dim):
    out = set()
    for sub in combinations(halfspaces, dim):
        m, pivots = _frac_rref([[*a, b] for a, b in sub], dim)
        if len(pivots) < dim:
            continue
        x = tuple(r[dim] for r in m)
        if all(sum((p * q for p, q in zip(a, x)), F(0)) <= b for a, b in halfspaces):
            out.add(x)
    return sorted(out)


def _ref_facet_normals(rays, n):
    if n == 1:
        signs = {1 if r[0] > 0 else -1 for r in rays}
        return [(signs.pop(),)] if len(signs) == 1 else []
    normals = set()
    for sub in combinations(rays, n - 1):
        m, pivots = _frac_rref(sub, n)
        if len(pivots) != n - 1:
            continue
        fc = next(c for c in range(n) if c not in pivots)
        v = [F(0)] * n
        v[fc] = F(1)
        for r, pc in zip(m, pivots):
            v[pc] = -r[fc]
        den = 1
        for a in v:
            den = den * a.denominator // gcd(den, a.denominator)
        ints = [int(a * den) for a in v]
        g = gcd(*ints)
        h = tuple(a // g for a in ints)
        vals = [sum(a * b for a, b in zip(h, r)) for r in rays]
        if all(x >= 0 for x in vals):
            normals.add(h)
        elif all(x <= 0 for x in vals):
            normals.add(tuple(-a for a in h))
    return sorted(normals)


_SCALES = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4).filter(bool)


@st.composite
def _bounded_systems(draw):
    """A box around the origin plus random and concurrent halfspaces.

    Every row is rescaled by a random positive Fraction and the rows are
    shuffled, so subsets meet with either sign of their determinant.  Rows
    through a common point make vertices where more than dim halfspaces meet.
    """
    dim = draw(st.integers(1, 3))
    hs = []
    for i in range(dim):
        e = tuple(F(int(j == i)) for j in range(dim))
        hs.append((e, draw(st.integers(1, 3))))
        hs.append((tuple(-x for x in e), draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(_RATS) for _ in range(dim))
        hs.append((a, draw(_RATS)))
    point = tuple(draw(st.fractions(-1, 1, max_denominator=3)) for _ in range(dim))
    for _ in range(draw(st.integers(0, dim + 1))):
        a = tuple(draw(_RATS) for _ in range(dim))
        hs.append((a, sum((p * q for p, q in zip(a, point)), F(0))))
    hs = [(tuple(c * x for x in a), c * b)
          for (a, b), c in zip(hs, draw(st.lists(_SCALES, min_size=len(hs),
                                                 max_size=len(hs))))]
    return draw(st.permutations(hs)), dim


@st.composite
def _pointed_systems(draw):
    """Unbounded pointed regions shaped like a Newton polyhedron.

    Weight-cone rows <w, a> >= 0 with the w independent (plus redundant
    nonnegative combinations of them, which make the apex degenerate), and
    rows <z, a> >= 1 for nonnegative combinations z of the w, rescaled and
    shuffled like the bounded systems.
    """
    dim = draw(st.integers(1, 3))
    ints = st.integers(-3, 3)
    ws = draw(st.lists(st.lists(ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
              .filter(lambda w: len(_frac_rref(w, dim)[1]) == dim))

    def combo():
        cs = [draw(st.fractions(0, 2, max_denominator=3)) for _ in ws]
        return tuple(sum((c * w[j] for c, w in zip(cs, ws)), F(0)) for j in range(dim))

    hs = [(tuple(F(-x) for x in w), F(0)) for w in ws]
    hs += [(tuple(-x for x in combo()), F(0)) for _ in range(draw(st.integers(0, 2)))]
    hs += [(tuple(-x for x in combo()), F(-1)) for _ in range(draw(st.integers(1, 4)))]
    hs = [(tuple(c * x for x in a), c * b)
          for (a, b), c in zip(hs, draw(st.lists(_SCALES, min_size=len(hs),
                                                 max_size=len(hs))))]
    return draw(st.permutations(hs)), dim


@st.composite
def _degenerate_systems(draw):
    """Systems in dim 1-4 whose homogenized rows alone need not span, so
    that the row t >= 0 decides: rows all tight at one point (an affine
    cone, pointed or not), covectors orthogonal to a direction (the region
    contains a line, so it has no vertex), and a box cut by dim - 1 or dim
    equalities through an inner point (a segment or a point), rescaled and
    shuffled like the bounded systems."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["apex", "line", "flat"]))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim)
    point = tuple(draw(st.fractions(-1, 1, max_denominator=3)) for _ in range(dim))

    def at(a):
        return sum((p * q for p, q in zip(a, point)), F(0))

    if kind == "apex":
        hs = [(a, at(a)) for a in draw(st.lists(vectors, min_size=1, max_size=dim + 3))]
    elif kind == "line":
        v = draw(vectors.filter(any))
        vv = sum(x * x for x in v)
        hs = [(tuple(vv * x - sum(map(mul, a, v)) * y for x, y in zip(a, v)), draw(_RATS))
              for a in draw(st.lists(vectors, min_size=1, max_size=dim + 3))]
    else:
        hs = [(tuple(F(s * int(j == i)) for j in range(dim)), s * point[i] + 1)
              for i in range(dim) for s in (1, -1)]
        for a in draw(st.lists(vectors, min_size=dim - 1, max_size=dim)):
            hs += [(a, at(a)), (tuple(-x for x in a), -at(a))]
    hs = [(tuple(c * x for x in a), c * b)
          for (a, b), c in zip(hs, draw(st.lists(_SCALES, min_size=len(hs),
                                                 max_size=len(hs))))]
    return draw(st.permutations(hs)), dim


@settings(max_examples=150, deadline=None)
@given(system=st.one_of(_bounded_systems(), _pointed_systems(), _degenerate_systems()))
def test_enumerate_vertices_matches_fraction_reference(system):
    from conestab.exactgeom.polytope import enumerate_vertices
    hs, dim = system
    got = enumerate_vertices(hs, dim)
    assert got == _ref_enumerate_vertices(hs, dim)
    assert all(type(x) is Fraction for v in got for x in v)


@pytest.mark.parametrize("halfspaces, dim", [
    ([((1, 0), 1), ((-1, 0), 0), ((0, 1, 5), 1), ((0, -1), 0)], 2),  # a long covector
    ([((1, 0), 1), ((-1,), 0)], 2),  # a short one
    ([((1, 0), 1), ((0, 1), 1)], 3),  # dim above the row length
])
def test_enumerate_vertices_refuses_covectors_of_another_length(halfspaces, dim):
    from conestab.exactgeom.polytope import enumerate_vertices
    with pytest.raises(AmbientMismatch, match=f"on a rank-{dim} cone"):
        enumerate_vertices(halfspaces, dim)


@st.composite
def _ray_sets(draw):
    """Integer rays in R^n, n = 2..4, spanning a space of rank 2..n.

    Some rays are integer combinations of earlier ones, so many (n-1)-subsets
    are dependent; a rank below n makes every independent subset normal to
    the whole set, which pins the sign of the returned normal.
    """
    n = draw(st.integers(2, 4))
    rank = draw(st.integers(2, n))
    basis = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(rank)]
    rays = []
    for _ in range(draw(st.integers(n, n + 3))):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(rank)]
        rays.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
    rays = [r for r in rays if any(r)]
    for _ in range(draw(st.integers(0, 2))):
        if len(rays) >= 2:
            i, j = draw(st.integers(0, len(rays) - 1)), draw(st.integers(0, len(rays) - 1))
            rays.append(tuple(a + b for a, b in zip(rays[i], rays[j])))
    return rays, n


@settings(max_examples=150, deadline=None)
@given(data=_ray_sets())
def test_facet_normals_match_fraction_reference(data):
    # The integer scan of the tests against the Fraction one; on rays of
    # rank below n both keep the normals of the span, oriented alike.
    rays, n = data
    got = scan_facet_normals(rays, n)
    assert got == _ref_facet_normals(rays, n)
    assert all(type(x) is int for h in got for x in h)


@st.composite
def _row_sets(draw):
    """Integer rows in R^n, n = 1..6, spanning R^n or a subspace: 1..n
    drawn vectors and integer combinations of them, nonnegative ones half
    of the time (a pointed cone when the vectors are independent), plus
    duplicates, sums (redundant rows) and negations (the rows' cone then
    contains a line)."""
    n = draw(st.integers(1, 6))
    rank = draw(st.one_of(st.just(n), st.integers(1, n)))
    basis = [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(rank)]
    low = draw(st.sampled_from([0, -1]))
    rows = list(basis)
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(st.integers(low, 2)) for _ in range(rank)]
        rows.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append(draw(st.sampled_from([rows[i], tuple(a + b for a, b in zip(rows[i], rows[j])),
                                          tuple(-a for a in rows[i])])))
    return draw(st.permutations(rows)), n


@settings(max_examples=300, deadline=None)
@given(data=_row_sets())
def test_conversion_matches_facet_scan_on_spanning_rows(data):
    # The double description is the scan on rows spanning R^n, and [] on
    # the rest, where the scan keeps the normals of the span.
    from conestab.exactgeom.cone import _facet_normals
    rows, n = data
    got = _facet_normals(rows, n)
    spanning = mat_rank(rows) == n
    assert got == (scan_facet_normals(rows, n) if spanning else [])
    event(f"rank {n}, {'spanning' if spanning else 'not spanning'}")
    event("some ray" if got else "no ray")


@st.composite
def _pointed_ray_sets(draw):
    """Rays with first entry >= 1, so the cone they span is pointed, plus
    multiples and sums of drawn rays: duplicates after primitivization and
    members that are not extreme."""
    n = draw(st.integers(1, 4))
    rays = [(draw(st.integers(1, 3)), *(draw(st.integers(-3, 3)) for _ in range(n - 1)))
            for _ in range(draw(st.integers(n, n + 3)))]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(rays) - 1)), draw(st.integers(0, len(rays) - 1))
        k = draw(st.integers(1, 3))
        rays.append(tuple(k * a + b for a, b in zip(rays[i], rays[j])))
    return rays, n


@settings(max_examples=150, deadline=None)
@given(data=_pointed_ray_sets())
def test_cone_from_rays_keeps_the_tight_rank_extreme_rays(data):
    """A ray is extreme when the facet normals it lies on have rank n - 1."""
    rays, n = data
    prim = sorted({tuple(x // gcd(*r) for x in r) for r in rays})
    if len(_frac_rref(prim, n)[1]) < n:
        with pytest.raises(DegenerateCone):
            cone_from_rays(rays)
        return
    c = cone_from_rays(rays)
    assert c.halfspaces == tuple(_ref_facet_normals(prim, n))
    extreme = [r for r in prim
               if len(_frac_rref([h for h in c.halfspaces if dot(h, r) == 0], n)[1]) == n - 1]
    assert c.rays == tuple(extreme)


@settings(max_examples=150, deadline=None)
@given(a=_rat_matrices())
def test_row_reduce_pivots_all_equal_the_pivot_minor(a):
    # Every row must be rescaled at every step for the divisions to stay exact;
    # a skipped row leaves a pivot entry, the RREF or d wrong.
    n = len(a[0])
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    rows = [[int(x * L) for x in row] for row, L in zip(a, scales)]
    assert _integer_rows(a) == (rows, prod(scales))
    m, pivots, d, sign = _row_reduce(rows, n)
    r = len(pivots)
    assert all(type(x) is int for row in m for x in row)
    assert [m[k][c] for k, c in enumerate(pivots)] == [d] * r
    assert sign in (1, -1)
    ref, ref_pivots = _frac_rref(a, n)
    assert pivots == ref_pivots
    assert [[F(x, d) for x in row] for row in m[:r]] == ref[:r]
    assert not any(any(row) for row in m[r:])
    if r == len(a):  # the swaps' sign turns d into the minor itself
        assert sign * d == _cofactor_det([[row[c] for c in pivots] for row in rows])
    else:  # the kernel picked some r rows; d is their minor on the pivot columns
        assert abs(d) in {abs(_cofactor_det([[rows[i][c] for c in pivots] for i in sub]))
                          for sub in combinations(range(len(a)), r)}


# --- pairings and parsing ------------------------------------------------------

_ENTRIES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-10 ** 3, max_value=10 ** 3, max_denominator=10 ** 6))


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(0, 4))
    return ([draw(_ENTRIES) for _ in range(n)],
            tuple(draw(_ENTRIES) for _ in range(n)))


@settings(max_examples=300, deadline=None)
@given(pair=_vector_pairs())
def test_dot_matches_fraction_sum(pair):
    # int, Fraction and mixed entries; the integer accumulation must give the
    # reference sum, always as a Fraction (Fraction(0) for empty vectors).
    u, v = pair
    got = dot(u, v)
    assert got == sum((a * b for a, b in zip(u, v)), F(0))
    assert type(got) is F


def test_dot_literal_cases():
    assert dot((), ()) == 0 and type(dot((), ())) is F
    assert dot((2, 3), (F(1, 2), F(1, 3))) == 2
    assert dot([F(1, 6), F(1, 10)], [F(3, 4), 5]) == F(5, 8)
    with pytest.raises(ValueError):
        dot((1, 2), (1,))
    for bad in ((1.5,), ("1/2",)):
        with pytest.raises(TypeError, match="refusing"):
            dot(bad, (1,))
        with pytest.raises(TypeError, match="refusing"):
            dot((1,), bad)
    with pytest.raises(TypeError, match="refusing float"):
        dot((1, F(1, 2)), (F(1, 3), 0.25))


def test_frac_parses_strings_once_and_refuses_floats():
    assert frac("3/12") == F(1, 4) and type(frac("3/12")) is F
    assert frac("3/12") == frac("3/12") == frac("1/4")
    assert frac(" -7 ") == -7
    for _ in range(2):  # failures are not cached: every call raises
        with pytest.raises(ValueError):
            frac("1/0x")
    with pytest.raises(TypeError, match="refusing float"):
        frac(0.5)
    assert frac(3) == 3 and frac(F(2, 3)) == F(2, 3)
