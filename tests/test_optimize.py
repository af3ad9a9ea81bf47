import hashlib
import random
from fractions import Fraction

import pytest

from conestab.errors import ParseError, ToleranceNotReached
from conestab.invariants import okounkov_body, semistable_verdict, vol, vol_derivative
from conestab import optimize
from conestab.exactgeom.linalg import _integer_row
from conestab.optimize import minimize_nvol
from conestab.singularity import from_rays
from conftest import random_cone, random_reeb

F = Fraction


def test_minimize_nvol_worked_cones(c2, a1, z3):
    for s, want_xi, want_val in [
        (c2, (F(1, 2), F(1, 2)), F(4)),
        (a1, (F(1), F(1)), F(2)),
        (z3, (F(1), F(3, 2)), F(4, 3)),
    ]:
        r = minimize_nvol(s)
        assert r.minimizer == want_xi
        assert r.nvol_value == want_val
        assert r.certificate_gap == 0
        assert all(x == 0 for x in r.alignment_residual)


def test_minimize_nvol_with_boundary(half_boundary):
    r = minimize_nvol(half_boundary)
    assert r.minimizer == (1, F(1, 2)) and r.nvol_value == 2
    assert r.certificate_gap == 0


def test_minimize_nvol_simplicial_oracle():
    # On a simplicial cone the minimizer is xi* = (1/n) sum_i v_i / (1 - a_i).
    rnd = random.Random(181)
    with_boundary = 0
    for _ in range(40):
        s = random_cone(rnd, rnd.choice([2, 3]))
        n = s.rank
        xi_star = tuple(sum(v[k] / (1 - a) for v, a in zip(s.sigma.rays, s.coefficients)) / n
                        for k in range(n))
        r = minimize_nvol(s)
        assert r.minimizer == xi_star
        assert r.certificate_gap == 0
        with_boundary += any(s.coefficients)
    assert with_boundary >= 10


@pytest.mark.parametrize("rays, coeffs", [
    ([(1, 0), (1, 5)], None),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 3)], [F(1, 2), 0, F(1, 3)]),
])
def test_minimize_nvol_stops_at_exact_stationarity(monkeypatch, rays, coeffs):
    # Once the reduced gradient is exactly zero no rounded candidate can
    # descend: neither the line search nor the final rounding ladder may
    # round anything after the last gradient evaluation, which is the one at
    # the returned point, and no Hessian is asked for there.
    events = []
    round_to_slice, fan_sums = optimize._round_to_slice, optimize._fan_sums

    def rounding(*args):
        events.append(("round", None, None))
        return round_to_slice(*args)

    def sums(fan, x, order):
        events.append(("sums", order, tuple(x)))
        return fan_sums(fan, x, order)

    monkeypatch.setattr(optimize, "_round_to_slice", rounding)
    monkeypatch.setattr(optimize, "_fan_sums", sums)
    r = minimize_nvol(from_rays(rays, coeffs))
    assert r.certificate_gap == 0
    x = tuple(_integer_row(r.minimizer)[0])
    last = max(i for i, (kind, _, _) in enumerate(events) if kind == "sums")
    assert events[last] == ("sums", 1, x)
    assert events[last + 1:] == []
    assert ("sums", 2, x) not in events


def test_minimize_nvol_evaluates_no_candidate_twice_in_an_iteration(monkeypatch):
    # On dP1 the line search used to round 172 times and evaluate the volume
    # 132 times on only 10 distinct points.  The value to beat is fixed
    # until a candidate descends, so a rejected one is not evaluated again
    # in that iteration; the pinned results stay as they were.
    events = []
    round_to_slice, fan_sums, fan_moments = (optimize._round_to_slice, optimize._fan_sums,
                                             optimize.fan_moments)

    def rounding(s, point, max_den):
        events.append(("round", tuple(_integer_row(point)[0])))
        return round_to_slice(s, point, max_den)

    def sums(fan, x, order):
        if order == 1:
            events.append(("iterate", tuple(x)))
        return fan_sums(fan, x, order)

    def moments(fan, xi, order=2):
        events.append(("f", tuple(xi)))
        return fan_moments(fan, xi, order)

    monkeypatch.setattr(optimize, "_round_to_slice", rounding)
    monkeypatch.setattr(optimize, "_fan_sums", sums)
    monkeypatch.setattr(optimize, "fan_moments", moments)
    r = minimize_nvol(from_rays([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)]))
    iterations, iterate = [], None
    for kind, point in events:
        if kind == "iterate":
            iterate = point
            iterations.append([])
        elif kind == "round" and point == iterate:
            break  # the final rounding ladder rounds the iterate itself
        elif kind == "f":
            iterations[-1].append(point)
    # Some iteration rejects candidates before one descends: 7 evaluations in 5.
    assert len(iterations) == r.iterations and sum(map(len, iterations)) > len(iterations)
    for evaluated in iterations:
        assert len(evaluated) == len(set(evaluated))


def test_minimize_nvol_rejects_negative_tol(c2):
    with pytest.raises(ParseError) as exc:
        minimize_nvol(c2, tol=-1)
    assert exc.value.where == "tol"
    assert str(exc.value) == "tol: tolerance must be nonnegative, got -1"
    assert minimize_nvol(c2, tol=0).certificate_gap == 0


def test_stationarity_matches_verdict():
    rnd = random.Random(167)
    for _ in range(10):
        s = random_cone(rnd, rnd.choice([2, 3]))
        r = minimize_nvol(s)
        assert r.certificate_gap <= F(1, 10 ** 9)
        if all(x == 0 for x in r.alignment_residual):
            ok, _ = semistable_verdict(s, r.minimizer)
            assert ok
            assert r.certificate_gap == 0


def test_gradient_matches_central_differences():
    rnd = random.Random(173)
    h = F(1, 10 ** 5)
    checked = 0
    while checked < 20:
        s = random_cone(rnd, rnd.choice([2, 3]))
        xi = random_reeb(rnd, s)
        eta = tuple(F(rnd.randint(-2, 3)) for _ in range(s.rank))
        if all(x == 0 for x in eta):
            continue
        up = tuple(x + h * d for x, d in zip(xi, eta))
        dn = tuple(x - h * d for x, d in zip(xi, eta))
        if not (s.sigma.contains(up, strict=True) and s.sigma.contains(dn, strict=True)):
            continue
        diff = (vol(s, up) - vol(s, dn)) / (2 * h)
        exact = vol_derivative(s, xi, eta)
        if exact == 0:
            assert abs(diff) <= h
        else:
            assert abs(diff - exact) <= abs(exact) * F(1, 10 ** 7)
        checked += 1


def test_nvol_unimodular_equivariance():
    U = [(1, 1), (0, 1)]  # determinant one

    def apply(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(2)) for i in range(2))

    for rays in [[(1, 0), (0, 1)], [(1, 0), (1, 2)], [(1, 0), (1, 3)]]:
        s = from_rays(rays)
        st = from_rays([apply(U, r) for r in rays])
        r, rt = minimize_nvol(s), minimize_nvol(st)
        assert r.nvol_value == rt.nvol_value
        assert r.certificate_gap == rt.certificate_gap == 0


def test_minimize_nvol_tolerance_error():
    s = from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)])
    # irrational minimizer: gap is tiny but nonzero, so a zero tolerance trips
    with pytest.raises(ToleranceNotReached) as exc:
        minimize_nvol(s, tol=0, raise_on_gap=True)
    assert exc.value.result.certificate_gap > 0
    r = minimize_nvol(s)  # default tolerance passes
    assert r.certificate_gap <= F(1, 10 ** 9)


# Twenty seeded random cones: fifteen simplicial ones of rank 2-4, then five
# over lattice polygons at height one, four of which have an irrational
# minimizer.  Then two non-simplicial cones with irrational minimizers: dP1
# and the rank-4 cone over a triangular bipyramid, whose certificate gap
# (about 1.5e-9) sits above the default tolerance.  Each row: rays, boundary
# coefficients, the minimizer, the Newton iterations and a digest of
# repr(NvolResult).  They pin the rounding path, not only the optimum: where
# a run stops short of an irrational minimizer, and after how many
# iterations, depends on every Newton direction and every rounding on the way.
PINNED_NVOL = [
    ([(2, -2), (3, 1)], None,
     ('2', '0'), 1, '4fd3ee02fba02a68'),
    ([(2, -2, 0), (1, 2, -1), (-2, 1, 1)], ['0', '1/2', '2/5'],
     ('-1/9', '14/9', '-1/9'), 5, '053c94dfe1b22677'),
    ([(-2, 1, -2, 2), (-2, 2, 2, -2), (-1, -1, -2, 3), (-1, 3, 1, 1)], ['0', '0', '1/2', '1/2'],
     ('-7/4', '3/2', '-3/4', '9/4'), 5, 'e7263a5d067330c5'),
    ([(-2, -1), (2, -2)], ['1/2', '1/3'],
     ('-5/4', '-7/4'), 4, '432f90cd58194ee4'),
    ([(-2, 2, 1), (0, 1, 2), (-1, 3, 0)], None,
     ('-1', '2', '1'), 1, '013c9662921a8158'),
    ([(2, 1, 1, 3), (-2, 3, 2, 1), (3, 2, -2, 0), (2, -1, 0, -1)], None,
     ('5/4', '5/4', '1/4', '3/4'), 1, 'e6623d27bca47ce9'),
    ([(2, 3), (-1, -2)], ['1/2', '2/5'],
     ('7/6', '4/3'), 4, '1aecd0c582c6e7a6'),
    ([(0, 2, -1), (0, 2, -2), (2, 2, 1)], None,
     ('2/3', '5/3', '-1/3'), 1, 'eb1a376a1988198f'),
    ([(-1, -1, -1, -1), (-1, 3, 1, 2), (-1, 0, 2, -2), (-2, 2, 1, -1)], None,
     ('-5/4', '1', '3/4', '-1/2'), 1, 'da037ef56b297eb3'),
    ([(3, 0), (-1, 1)], None,
     ('0', '1/2'), 1, '97be67823f45a144'),
    ([(-1, 2, 1), (-1, -2, 2), (-1, -1, 3)], None,
     ('-1', '-1/3', '2'), 1, 'd635ce4fcd16322c'),
    ([(3, 3, 3, 2), (2, -1, -2, 0), (3, 3, 2, 0), (0, 2, 1, 0)], ['0', '1/2', '1/3', '2/5'],
     ('23/8', '53/24', '11/12', '1/2'), 5, '9b2e99ab3202a2df'),
    ([(2, 1), (2, 2)], None,
     ('3/2', '1'), 1, '18be72402c9617d8'),
    ([(0, -2, 3), (-1, 2, -1), (0, -2, 0)], ['1/2', '2/5', '1/2'],
     ('-5/9', '-8/9', '13/9'), 4, '5d38595be6bdf894'),
    ([(3, 2, 3, -2), (-2, -1, 0, 0), (2, -2, -2, 2), (-2, 3, 2, 2)], None,
     ('0', '3/4', '1', '1/4'), 1, 'cb524d7c2b229516'),
    ([(-1, 0, 1), (2, 0, 1), (-1, -2, 1), (1, 2, 1), (2, 1, 1)], None,
     ('131923/311079', '19093/415829', '1'), 5, '59b3405cf2e46de8'),
    ([(2, -1, 1), (-2, 1, 1), (1, 0, 1), (1, -2, 1), (-2, 0, 1)], None,
     ('-4383/211439', '-356457/748823', '1'), 5, '93c0e3bce6964941'),
    ([(-2, 2, 1), (1, 1, 1), (2, 0, 1), (-2, 0, 1)], None,
     ('-62602/116493', '634847/878170', '1'), 5, '147fae722d544355'),
    ([(0, 0, 1), (2, -2, 1), (-1, 2, 1), (1, 0, 1)], None,
     ('1/2', '0', '1'), 1, '473041838e2ea19a'),
    ([(0, 0, 1), (0, -2, 1), (1, -2, 1), (2, 0, 1)], None,
     ('564719/716035', '-413403/489061', '1'), 5, '1e7863abb58ce3fe'),
    ([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)], None,
     ('1', '608761/700920', '608761/700920'), 5, '639deff6a0021c3b'),
    ([(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)], None,
     ('1', '66161/153136', '66161/153136', '66161/153136'), 5, '1dda13b75f3e0423'),
]


@pytest.mark.parametrize("rays, coeffs, minimizer, iterations, digest", PINNED_NVOL,
                         ids=[f"cone{i}" for i in range(len(PINNED_NVOL))])
def test_minimize_nvol_pinned_results(rays, coeffs, minimizer, iterations, digest):
    s = from_rays(rays, None if coeffs is None else [F(c) for c in coeffs])
    r = minimize_nvol(s)
    assert r.minimizer == tuple(F(x) for x in minimizer)
    assert r.iterations == iterations
    assert hashlib.sha256(repr(r).encode()).hexdigest()[:16] == digest
    # The minimizer reads alpha0 off the volume and gradient it holds; the
    # Okounkov body computes it anew from the weight cone's fan.
    alpha0 = okounkov_body(s, r.minimizer).alpha0
    assert r.alignment_residual == tuple(a - u for a, u in zip(alpha0, s.u))
