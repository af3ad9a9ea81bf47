import hashlib
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab.errors import (DegenerateCone, IdentityViolated, NotKlt, NotQGorenstein, ParseError,
                             ToleranceNotReached)
from conestab.invariants import okounkov_body, semistable_verdict, vol, vol_derivative
from conestab import optimize
from conestab.exactgeom import dot
from conestab.exactgeom.fan import cone_fan
from conestab.exactgeom.linalg import _integer_row, solve
from conestab.optimize import _limit, _slice_min, minimize_nvol
from conestab.singularity import from_rays
from conftest import fan_moments, random_cone, random_reeb

F = Fraction


# --- the Fraction line search, kept as the reference ---------------------------

def _ref_round_to_slice(s, x, max_den):
    """Continued-fraction rounding, then exact renormalization to A = 1."""
    c, _ = _integer_row([Fraction(float(v)).limit_denominator(max_den) for v in x])
    a = sum(map(mul, s.u_row, c))  # <u, cand> = a / (u_den L) for cand = c / L
    if a <= 0:
        return None
    return tuple(Fraction(s.u_den * ci, a) for ci in c)


def _ref_minimize_nvol(s):
    """``minimize_nvol`` as it was on Fractions: the same Newton steps,
    float trial points rounded by ``Fraction.limit_denominator`` and the
    same certificate, with no polishing.  It keeps the steepest-descent
    step for a singular reduced Hessian and the final rounding ladder that
    the library dropped, so every draw checks that they never changed a
    result."""
    n = s.rank
    fan = cone_fan(s.weight_cone)

    def f(xi):
        return fan_moments(fan, xi, order=0)[0]

    def sums(xi, order):
        x, L = _integer_row(xi)
        return (L, *optimize._fan_sums(fan, x, order))

    u = s.u_row
    p = next(k for k, a in enumerate(u) if a)
    tangent = [tuple(u[p] if k == j else -u[j] if k == p else 0 for k in range(n))
               for j in range(n) if j != p]
    xi = s.sigma.interior_point()
    a = sum(map(mul, u, xi))
    xi = tuple(Fraction(s.u_den * x, a) for x in xi)
    L, Q, V, G, _ = sums(xi, 1)
    fx = Fraction(L ** n * V, Q)
    iterations = 0
    stationary = False
    for it in range(optimize.MAX_NEWTON_STEPS):
        iterations = it + 1
        b = [sum(map(mul, t, G)) for t in tangent]
        stationary = not any(b)
        if stationary:
            break
        H = sums(xi, 2)[-1]
        y = solve([[sum(a * H[max(i, j)][min(i, j)] * c for i, a in enumerate(ti)
                        for j, c in enumerate(tj)) for tj in tangent] for ti in tangent], b)
        step_dir = ([Q * dot(y, col) / L for col in zip(*tangent)] if y else
                    [L ** (n + 1) * dot(b, col) / (u[p] * Q) ** 2 for col in zip(*tangent)])
        moved = False
        rejected = []
        for e in range(40):
            scale = Fraction(1, 2 ** e)
            trial = [a + scale * v for a, v in zip(xi, step_dir)]
            for max_den in (10 ** 6, 10 ** 4, 100, 10):
                cand = _ref_round_to_slice(s, trial, max_den)
                if cand is None or cand == xi or cand in rejected \
                        or not s.sigma.contains(cand, strict=True):
                    continue
                fc = f(cand)
                if fc < fx:
                    xi, fx = cand, fc
                    L, Q, V, G, _ = sums(xi, 1)
                    moved = True
                    break
                rejected.append(cand)
            if moved:
                break
        if not moved:
            break
    for max_den in () if stationary else (1, 2, 3, 4, 6, 10, 100, 10 ** 4):
        cand = _ref_round_to_slice(s, xi, max_den)
        if cand is None or not s.sigma.contains(cand, strict=True):
            continue
        fc = f(cand)
        if fc <= fx:
            xi, fx = cand, fc
            L, Q, V, G, _ = sums(xi, 1)
            break
    grad = tuple(Fraction(-L ** (n + 1) * g, Q ** 2) for g in G)
    gap = dot(grad, xi) - _slice_min(s, grad)
    alpha0 = tuple(-g / (n * fx) for g in grad)
    residual = tuple(a - u for a, u in zip(alpha0, s.u))
    return optimize.NvolResult(minimizer=xi, nvol_value=fx, certificate_gap=gap,
                               alignment_residual=residual, iterations=iterations)


@st.composite
def _nvol_cones(draw):
    """A cone of rank 2-4.  Simplicial: n random rays, with or without
    boundary coefficients.  Not: rank 3 or 4 and n + 1 or n + 2 rays (h, v)
    at height h = 1, or h in {1, 2} with coefficient 1 - h / 2 on each
    extreme ray (u = (1/2, 0, ...)).  None where the rays span no cone."""
    if draw(st.booleans()):
        return random_cone(random.Random(draw(st.integers(0, 2 ** 32))), draw(st.integers(2, 4)))
    n, boundary = draw(st.integers(3, 4)), draw(st.booleans())
    tail = st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1)
    rays = draw(st.lists(st.tuples(st.sampled_from([1, 2] if boundary else [1]), tail),
                         min_size=n + 1, max_size=n + 2))
    try:
        sigma = from_rays([(h, *v) for h, v in rays if gcd(h, *v) == 1]).sigma
    except (DegenerateCone, NotKlt, NotQGorenstein):
        return None
    return from_rays(sigma.rays, [F(2 - r[0], 2) for r in sigma.rays])


@settings(max_examples=80, deadline=None)
@given(s=_nvol_cones())
def test_integer_line_search_matches_fraction_reference(s):
    # Every field bit for bit.  With tol = 0 nothing is polished; at the
    # default tolerance a result whose gap meets it is the same as well.
    if s is None:
        event("no cone")
        return
    event(f"rank {s.rank}, {len(s.sigma.rays)} rays, boundary {any(s.coefficients)}")
    ref = _ref_minimize_nvol(s)
    assert minimize_nvol(s, tol=0) == ref
    if ref.certificate_gap <= F(1, 10 ** 9):
        assert minimize_nvol(s) == ref
    else:
        event("polished")
        assert minimize_nvol(s).certificate_gap <= F(1, 10 ** 9)


def _ref_limit(x, max_den):
    f = x.limit_denominator(max_den)
    return f.numerator, f.denominator


MAX_DENS = st.sampled_from([1, 10, 100, 10 ** 4, 10 ** 6])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-10 ** 15, 10 ** 15), d=st.integers(1, 10 ** 15), k=st.integers(1, 5),
       max_den=MAX_DENS)
def test_limit_matches_limit_denominator(n, d, k, max_den):
    # Any input form, reduced or not, and floats' exact ratios.
    assert _limit(k * n, k * d, max_den) == _ref_limit(F(n, d), max_den)
    ratio = (n / d).as_integer_ratio()
    assert _limit(*ratio, max_den) == _ref_limit(F(*ratio), max_den)


def _candidates(x, max_den):
    """The two fractions limit_denominator chooses between for x (its
    denominator above max_den): the semiconvergent and the last convergent,
    neighbours in the Farey sequence of order max_den on either side of x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    while q0 + n // d * q1 <= max_den:
        p0, q0, p1, q1 = p1, q1, p0 + n // d * p1, q0 + n // d * q1
        n, d = d, n - n // d * d
    k = (max_den - q0) // q1
    return F(p0 + k * p1, q0 + k * q1), F(p1, q1)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-10 ** 9, 10 ** 9), d=st.integers(1, 10 ** 9), max_den=MAX_DENS)
def test_limit_breaks_ties_as_limit_denominator(n, d, max_den):
    # At the midpoint of the two candidates both are equally close: 3.10 and
    # 3.11 compare the distances, 3.12 on compares 2 b (q0 + k q1) with the
    # denominator, and both keep the convergent.  CI runs this under both.
    x = F(n, d)
    if x.denominator <= max_den:
        x += F(1, 2 * max_den ** 2 + 1)
    mid = sum(_candidates(x, max_den)) / 2
    semi, last = _candidates(mid, max_den)
    assert semi + last == 2 * mid  # the same two, equally close to mid
    assert _limit(mid.numerator, mid.denominator, max_den) == _ref_limit(mid, max_den) \
        == (last.numerator, last.denominator)


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
    # descend: the line search may round nothing after the last gradient
    # evaluation, which is the one at the returned point, and no Hessian is
    # asked for there.
    events = []
    round_to_slice, fan_sums = optimize._round_to_slice, optimize._fan_sums

    def rounding(*args, **kwargs):
        events.append(("round", None, None))
        return round_to_slice(*args, **kwargs)

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
    # in that iteration; the pinned results stay as they were.  An
    # evaluation is the volume alone, the order-0 fan sums.
    events = []
    fan_sums = optimize._fan_sums

    def sums(fan, x, order):
        if order == 1:
            events.append(("iterate", tuple(x)))
        elif order == 0:
            events.append(("f", tuple(x)))
        return fan_sums(fan, x, order)

    monkeypatch.setattr(optimize, "_fan_sums", sums)
    r = minimize_nvol(from_rays([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)]))
    iterations = []
    for kind, point in events:
        if kind == "iterate":
            iterations.append([])
        elif kind == "f":
            iterations[-1].append(point)
    # Some iteration rejects candidates before one descends: 7 evaluations in 5.
    assert len(iterations) == r.iterations and sum(map(len, iterations)) > len(iterations)
    for evaluated in iterations:
        assert len(evaluated) == len(set(evaluated))


def test_singular_reduced_hessian_raises_identity_violated(monkeypatch):
    # vol is strictly convex on the slice, so the Newton system always has a
    # solution; dP1's start is not stationary, so a step is asked for.
    monkeypatch.setattr(optimize, "_solve_rows", lambda rows, n: None)
    with pytest.raises(IdentityViolated, match="singular"):
        minimize_nvol(from_rays([(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)]))


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
# after the line search (about 1.5e-9) sits above the default tolerance, so
# one polishing Newton step takes it to about 1.1e-20.  Each row: rays, boundary
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
     ('1', '427698311023/989948890691', '427698311023/989948890691',
      '427698311023/989948890691'), 6, '2e0dda5d4c9d9ebb'),
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
