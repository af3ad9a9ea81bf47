"""The vertex tests that replace LPs returning only a value, pinned against
the LPs they replaced.

Each reference below is the LP-only code as it stood before the shortcut:
the covector-reduction loop with one epigraph LP per test, the lambda_max
epigraph LP and the nvol certificate LP.  The draws mix simplicial cones
(with boundary coefficients) and non-simplicial ones, and covector lists
with duplicates, single-covector dominance, ties at weight-cone rays and
redundancy only through a combination of covectors, so that both the
vertex tests and the LP fallback decide some of them.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab import filtration, invariants
from conestab.exactgeom import dot, lp_solve, vec
from conestab.exactgeom.fan import cone_fan, fan_moments
from conestab.filtration import _reduce_covectors, monomial_filtration
from conestab.invariants import _lambda_max_cached, lambda_max_closed, twisted_lambda_max
from conestab.optimize import _slice_min, minimize_nvol
from conestab.singularity import from_rays
from conftest import random_cone, random_reeb

F = Fraction

NON_SIMPLICIAL = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],            # conifold
    [(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)],            # dP1
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)],
]


# --- LP-only references --------------------------------------------------------

def _ref_reduce_covectors(s, covectors):
    covs = []
    for z in covectors:
        z = vec(z)
        if z not in covs:
            covs.append(z)
    ell = s.sigma.interior_point()
    n = s.rank
    keep = list(covs)
    j = 0
    while j < len(keep):
        if len(keep) == 1:
            break
        others = [z for i, z in enumerate(keep) if i != j]
        cons = []
        zj = keep[j]
        for zi in others:
            row = tuple(a - b for a, b in zip(zi, zj)) + (F(-1),)
            cons.append((row, ">=", F(0)))
        for v in s.sigma.rays:
            cons.append((tuple(v) + (F(0),), ">=", F(0)))
        cons.append((tuple(ell) + (F(0),), "==", F(1)))
        objective = (F(0),) * n + (F(1),)
        res = lp_solve(objective, cons, sense="max")
        if res.value <= 0:
            keep.pop(j)
        else:
            j += 1
    return tuple(sorted(keep))


def _ref_lambda_max(s, xi0, covectors):
    n = s.rank
    cons = []
    for z in covectors:
        cons.append((tuple(z) + (F(-1),), ">=", F(0)))
    for v in s.sigma.rays:
        cons.append((tuple(v) + (F(0),), ">=", F(0)))
    cons.append((tuple(xi0) + (F(0),), "==", F(1)))
    return lp_solve((F(0),) * n + (F(1),), cons, sense="max").value


def _ref_slice_min(s, c):
    cons = [(h, ">=", F(0)) for h in s.sigma.halfspaces]
    cons.append((s.u, "==", F(1)))
    return lp_solve(c, cons, sense="min").value


# --- draws ---------------------------------------------------------------------

def _cone(rnd):
    if rnd.random() < 0.3:
        return from_rays(rnd.choice(NON_SIMPLICIAL))
    return random_cone(rnd, rnd.choice([2, 3]))


def _covectors(rnd, s):
    """2-5 covectors in sigma: nonnegative integer combinations of its rays
    (zero coefficients give ties at weight-cone rays), convex combinations
    of earlier ones, earlier ones plus a ray, and duplicates."""
    rays = s.sigma.rays
    covs = []
    for _ in range(rnd.randint(2, 5)):
        kind = rnd.random() if len(covs) >= 2 else 0
        if kind < 0.5:
            coeffs = [rnd.randint(0, 3) for _ in rays]
            coeffs[rnd.randrange(len(rays))] += 1
            z = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(s.rank))
        elif kind < 0.8:
            a, b = rnd.sample(covs, 2)
            t = F(rnd.randint(1, 3), 4)
            z = tuple((1 - t) * x + t * y for x, y in zip(a, b))
        elif kind < 0.9:
            z = tuple(x + y for x, y in zip(rnd.choice(covs), rnd.choice(rays)))
        else:
            z = rnd.choice(covs)
        covs.append(z)
    return covs


def _reduction_path(seed):
    """(reduced covectors, LP fallbacks taken) for one draw, checked against
    the reference."""
    rnd = random.Random(seed)
    s = _cone(rnd)
    covs = _covectors(rnd, s)
    with mock.patch.object(filtration, "_epigraph_lp",
                           wraps=filtration._epigraph_lp) as lp:
        reduced = _reduce_covectors(s, covs)
    assert reduced == _ref_reduce_covectors(s, covs)
    return reduced, lp.call_count


def _lambda_max_draw(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    xi0 = random_reeb(rnd, s)
    return s, xi0, monomial_filtration(s, _covectors(rnd, s), require_primary=False)


def _lambda_max_path(seed):
    s, xi0, G = _lambda_max_draw(seed)
    with mock.patch.object(invariants, "_epigraph_lp",
                           wraps=invariants._epigraph_lp) as lp:
        value = _lambda_max_cached.__wrapped__(s, xi0, G)
    assert value == _ref_lambda_max(s, xi0, G.covectors)
    return value, lp.call_count


# --- covector reduction --------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_reduce_covectors_matches_lp_only_reference(seed):
    _, fallbacks = _reduction_path(seed)
    event("LP fallback" if fallbacks else "vertex tests only")


def test_reduction_draws_reach_both_paths():
    paths = [_reduction_path(seed)[1] for seed in range(120)]
    assert sum(f > 0 for f in paths) >= 10
    assert sum(f == 0 for f in paths) >= 40


def test_reduction_ties_are_decided_without_lp():
    # (1, 2) >= (1, 1) at both rays of C^2 with a tie at (1, 0), so the
    # dominance test drops it; (2, 1) is the strict minimum at (0, 1) in
    # (1, 3), (2, 1), so it stays.  (1, 2, 2) = ((1, 1, 3) + (1, 3, 1)) / 2
    # ties with both at e1 of C^3 and needs the LP.
    c2 = from_rays([(1, 0), (0, 1)])
    c3 = from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with mock.patch.object(filtration, "_epigraph_lp",
                           wraps=filtration._epigraph_lp) as lp:
        assert _reduce_covectors(c2, [(1, 1), (1, 2)]) == ((1, 1),)
        assert _reduce_covectors(c2, [(1, 3), (2, 1)]) == ((1, 3), (2, 1))
        assert lp.call_count == 0
        assert _reduce_covectors(c3, [(1, 1, 3), (1, 3, 1), (1, 2, 2)]) == \
            ((1, 1, 3), (1, 3, 1))
        assert lp.call_count == 1


# --- lambda_max ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_lambda_max_matches_epigraph_lp(seed):
    _, calls = _lambda_max_path(seed)
    event("LP fallback" if calls else "vertex bounds meet")


def test_lambda_max_draws_reach_both_paths():
    paths = [_lambda_max_path(seed)[1] for seed in range(120)]
    assert sum(c > 0 for c in paths) >= 20
    assert sum(c == 0 for c in paths) >= 20


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_untwisted_lambda_max_is_lambda_max(seed):
    s, xi0, G = _lambda_max_draw(seed)
    assert twisted_lambda_max(s, xi0, G, (0,) * s.rank)[0] == lambda_max_closed(s, xi0, G)


# --- nvol certificate ----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_slice_min_matches_certificate_lp(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    c = tuple(F(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(s.rank))
    assert _slice_min(s, c) == _ref_slice_min(s, c)


def test_nvol_certificate_gap_matches_lp_on_irrational_minimizer():
    # dP1's minimizer is irrational, so the gap is positive, not zero.
    s = from_rays(NON_SIMPLICIAL[1])
    res = minimize_nvol(s)
    grad = fan_moments(cone_fan(s.weight_cone), res.minimizer, order=1)[1]
    assert res.certificate_gap > 0
    assert res.certificate_gap == dot(grad, res.minimizer) - _ref_slice_min(s, grad)
