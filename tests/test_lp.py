import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.errors import DenominatorVanishes, Infeasible, LPUnbounded
from conestab.exactgeom import LPResult, dot, frac, lp_solve, vec
from conestab.exactgeom.lp import fractional_lp
from conestab.exactgeom.polytope import enumerate_vertices

F = Fraction


def test_min_with_lower_bounds():
    res = lp_solve((1, 1), [((1, 0), ">=", 1), ((0, 1), ">=", 1)])
    assert res.value == 2 and res.point == (1, 1)


def test_min_extra_constraint():
    res = lp_solve((1, 1), [((1, 0), ">=", 1), ((0, 1), ">=", 1), ((1, 1), ">=", 3)])
    assert res.value == 3
    assert res.point[0] + res.point[1] == 3 and min(res.point) >= 1


def test_max_over_triangle():
    cons = [((-1, 0), "<=", 0), ((0, -1), "<=", 0), ((1, 1), "<=", 1)]
    res = lp_solve((1, 2), cons, sense="max")
    assert res.value == 2 and res.point == (0, 1)


def test_equality_constraints():
    res = lp_solve((0, 1), [((1, 1), "==", 2), ((1, -1), "<=", 0)], sense="min")
    assert res.value == 1 and res.point == (1, 1)


def test_infeasible_farkas_certificate():
    cons = [((1, 0), ">=", 2), ((1, 0), "<=", 1), ((0, 1), ">=", 0)]
    with pytest.raises(Infeasible) as exc:
        lp_solve((1, 1), cons)
    y = exc.value.farkas
    # y certifies infeasibility of the <=-normalized rows:
    # all multipliers nonnegative, combination has zero covector, negative rhs
    rows = [((-1, 0), -2), ((1, 0), 1), ((0, -1), 0)]
    assert all(yi >= 0 for yi in y)
    combo = [sum(yi * a[i] for yi, (a, _) in zip(y, rows)) for i in range(2)]
    rhs = sum(yi * b for yi, (_, b) in zip(y, rows))
    assert combo == [0, 0] and rhs < 0


def test_unbounded_ray_certificate():
    cons = [((1, 1), ">=", 1)]
    with pytest.raises(LPUnbounded) as exc:
        lp_solve((1, -2), cons)
    ray = exc.value.ray
    assert dot((1, -2), ray) < 0        # objective improves along the ray
    assert dot((1, 1), ray) >= 0        # ray respects the constraint recession


def test_degenerate_ties_terminate():
    # many redundant constraints through one vertex; Bland must not cycle
    cons = [((1, 0), ">=", 1), ((0, 1), ">=", 1), ((1, 1), ">=", 2),
            ((2, 1), ">=", 3), ((1, 2), ">=", 3), ((3, 3), ">=", 6)]
    res = lp_solve((2, 3), cons)
    assert res.value == 5 and res.point == (1, 1)


def _random_bounded_polytope(rnd, dim):
    hs = []
    for _ in range(dim):  # box part guarantees boundedness
        pass
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        hs.append((tuple(e), F(rnd.randint(1, 4))))
        hs.append((tuple(-x for x in e), F(rnd.randint(0, 2))))
    for _ in range(rnd.randint(1, 3)):
        a = tuple(F(rnd.randint(-2, 3)) for _ in range(dim))
        if all(x == 0 for x in a):
            continue
        hs.append((a, F(rnd.randint(1, 6))))
    return hs


def test_optimum_matches_vertex_scan():
    rnd = random.Random(17)
    for _ in range(25):
        dim = rnd.choice([2, 3])
        hs = _random_bounded_polytope(rnd, dim)
        verts = enumerate_vertices(hs, dim)
        if not verts:
            continue
        c = tuple(F(rnd.randint(-3, 3)) for _ in range(dim))
        cons = [(a, "<=", b) for a, b in hs]
        res_min = lp_solve(c, cons, sense="min")
        res_max = lp_solve(c, cons, sense="max")
        vals = [dot(c, v) for v in verts]
        assert res_min.value == min(vals)
        assert res_max.value == max(vals)


def test_fractional_lp_examples():
    v, arg = fractional_lp((1, 1), (F(3, 2), F(3, 4)), [(1, 0), (0, 1)])
    assert v == F(2, 3)
    v, _ = fractional_lp((2, 5), (2, 5), [(1, 0), (0, 1)])
    assert v == 1
    # min x1/x2 over cone((1,1),(2,1)): halfspaces <(1,-1),.> >= 0, <(-1,2),.> >= 0
    v, arg = fractional_lp((1, 0), (0, 1), [(1, -1), (-1, 2)])
    assert v == 1


def _interior_combo(rnd, rays, dim):
    out = [F(0)] * dim
    for r in rays:
        c = F(rnd.randint(1, 3))
        out = [x + c * ri for x, ri in zip(out, r)]
    return tuple(out)


def test_fractional_lp_matches_ray_scan():
    rnd = random.Random(23)
    from conftest import random_cone
    for _ in range(20):
        s = random_cone(rnd, rnd.choice([2, 3]))
        c = s.sigma
        num = _interior_combo(rnd, s.weight_cone.rays, s.rank)
        den = _interior_combo(rnd, s.weight_cone.rays, s.rank)
        v, _ = fractional_lp(num, den, c.halfspaces)
        ray_vals = [dot(num, r) / dot(den, r) for r in c.rays]
        assert v == min(ray_vals)


def test_fractional_lp_denominator_guard():
    with pytest.raises(DenominatorVanishes):
        fractional_lp((1, 0), (1, -1), [(1, 0), (0, 1)])


# --- the Fraction tableau as reference ----------------------------------------
#
# The dense two-phase Fraction tableau that the integer tableau replaced, with
# its arithmetic and pivot rules unchanged: same formulation, same column
# order, Bland's entering rule and the smallest-basic-index tie-break in the
# ratio test, each row divided by its pivot.  Only the certificate helpers are
# inlined, and the loop returns the unbounded column instead of raising.

def _ref_lp_solve(objective, constraints, sense="min"):
    c = list(vec(objective))
    n = len(c)
    if sense == "max":
        c = [-x for x in c]
    rows_le = []
    for idx, (a, rel, b) in enumerate(constraints):
        a = list(vec(a))
        b = frac(b)
        if rel == "<=":
            rows_le.append((a, b, idx, 1))
        elif rel == ">=":
            rows_le.append(([-x for x in a], -b, idx, -1))
        else:
            rows_le.append((a, b, idx, 1))
            rows_le.append(([-x for x in a], -b, idx, -1))
    m = len(rows_le)
    nv = 2 * n
    ns = m
    A = []
    b_col = []
    for a, b, _, _ in rows_le:
        A.append([x for x in a] + [-x for x in a] + [F(0)] * ns)
        b_col.append(b)
    for i in range(m):
        A[i][nv + i] = F(1)
    cost = [x for x in c] + [-x for x in c] + [F(0)] * ns
    value, x_full = _ref_two_phase(A, b_col, cost, nv + ns, rows_le, n)
    x = tuple(x_full[j] - x_full[n + j] for j in range(n))
    if sense == "max":
        value = -value
    return LPResult(value=value, point=x)


def _ref_two_phase(A, b, cost, ncols, rows_le, n_orig):
    m = len(A)
    A = [row[:] for row in A]
    b = b[:]
    flipped = [False] * m
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
            flipped[i] = True
    total = ncols + m
    T = []
    for i in range(m):
        row = A[i] + [F(0)] * m + [b[i]]
        row[ncols + i] = F(1)
        T.append(row)
    basis = [ncols + i for i in range(m)]
    phase_cost = [F(0)] * ncols + [F(1)] * m + [F(0)]
    z = _ref_reduced_cost_row(T, basis, phase_cost, total)
    _ref_simplex_loop(T, basis, z, total)
    if -z[total] != 0:
        farkas = tuple(-(F(1) - z[ncols + i]) * (F(-1) if flipped[i] else F(1))
                       for i in range(m))
        raise Infeasible("feasible region is empty", farkas=farkas)
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if T[i][j] != 0), None)
            if piv is None:
                continue
            _ref_pivot(T, basis, i, piv)
    full_cost = list(cost) + [F(0)] * m + [F(0)]
    z = _ref_reduced_cost_row(T, basis, full_cost, total)
    col = _ref_simplex_loop(T, basis, z, total, forbid=set(range(ncols, ncols + m)))
    if col is not None:
        d = [F(0)] * ncols
        if col < ncols:
            d[col] = F(1)
        for i, bv in enumerate(basis):
            if bv < ncols:
                d[bv] = -T[i][col]
        ray = tuple(d[j] - d[n_orig + j] for j in range(n_orig))
        raise LPUnbounded("objective unbounded on feasible region", ray=ray)
    x = [F(0)] * total
    for i, bv in enumerate(basis):
        x[bv] = T[i][total]
    return -z[total], x[:ncols]


def _ref_reduced_cost_row(T, basis, cost, total):
    z = list(cost)
    for i, bv in enumerate(basis):
        coef = z[bv]
        if coef != 0:
            for j in range(total + 1):
                z[j] -= coef * T[i][j]
    return z


def _ref_simplex_loop(T, basis, z, total, forbid=frozenset()):
    """Pivot to an optimum (returns None) or return the unbounded column."""
    m = len(T)
    while True:
        enter = next((j for j in range(total) if j not in forbid and z[j] < 0), None)
        if enter is None:
            return None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][total] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return enter
        _ref_pivot(T, basis, best[1], enter)
        coef = z[enter]
        if coef != 0:
            for j in range(total + 1):
                z[j] -= coef * T[best[1]][j]


def _ref_pivot(T, basis, row, col):
    pv = T[row][col]
    T[row] = [x / pv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]
    basis[row] = col


def _random_lp(seed):
    """Rank 2-5, rational rows of every relation, min or max.

    Half of the rows pass through one rational point, so many vertices are
    degenerate and the ratio test sees ties; the rest have random right-hand
    sides, which makes infeasible and unbounded programs common too.
    """
    rnd = random.Random(seed)
    n = rnd.randint(2, 5)

    def q():
        return F(rnd.randint(-3, 3), rnd.randint(1, 3))

    x0 = [q() for _ in range(n)]
    rows = []
    for _ in range(rnd.randint(1, 2 * n + 1)):
        a = tuple(q() for _ in range(n))
        rel = rnd.choice(("<=", ">=", "<=", ">=", "=="))
        b = dot(a, x0) if rnd.random() < 0.5 else F(rnd.randint(-6, 6), rnd.randint(1, 4))
        rows.append((a, rel, b))
    return tuple(q() for _ in range(n)), rows, rnd.choice(("min", "max"))


def _outcome(solve, c, rows, sense):
    """(kind, values) with every value tagged by its type."""
    try:
        res = solve(c, rows, sense)
        kind, values = "optimal", (res.value,) + tuple(res.point)
    except Infeasible as exc:
        kind, values = "infeasible", exc.farkas
    except LPUnbounded as exc:
        kind, values = "unbounded", exc.ray
    return kind, tuple((type(v), v) for v in values)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_integer_tableau_matches_fraction_tableau(seed):
    lp = _random_lp(seed)
    assert _outcome(lp_solve, *lp) == _outcome(_ref_lp_solve, *lp)


def test_random_lps_cover_every_outcome_and_degenerate_vertices():
    # The generator behind the property test reaches all three outcomes and
    # optimal vertices with more than n tight rows, and on these fixed seeds
    # the integer tableau agrees with the reference as well.
    kinds = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    degenerate = 0
    for seed in range(200):
        c, rows, sense = _random_lp(seed)
        kind, values = _outcome(lp_solve, c, rows, sense)
        assert (kind, values) == _outcome(_ref_lp_solve, c, rows, sense)
        kinds[kind] += 1
        if kind == "optimal":
            x = [v for _, v in values[1:]]
            tight = sum((1 if rel == "==" else 0) + (dot(a, x) == b) for a, rel, b in rows)
            degenerate += tight > len(c)
    assert min(kinds.values()) >= 30, kinds
    assert degenerate >= 10, degenerate
