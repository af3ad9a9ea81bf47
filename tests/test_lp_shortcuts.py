"""The LP-free kernels, pinned against the LPs they replaced.

Covector reduction, lambda_max and the twisted lambda_max read the chambers
of ``exactgeom.fan.chambers``, and the nvol certificate reads the vertices
of the slice of sigma.  Each reference below is the LP-only code as it
stood before: the covector-reduction loop with one epigraph LP per test,
the lambda_max epigraph LP and the nvol certificate LP.  The draws mix
simplicial cones (with boundary coefficients) and non-simplicial ones, and
covector lists with duplicates, single-covector dominance, ties at
weight-cone rays and redundancy only through a combination of covectors.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conestab.exactgeom import dot, lp, lp_solve, vec
from conestab.exactgeom.fan import cone_fan
from conestab.filtration import monomial_filtration
from conestab.invariants import _lambda_max_cached, lambda_max_closed, twisted_lambda_max
from conestab.optimize import _slice_min, minimize_nvol
from conestab.singularity import _xi_row, from_rays
from conftest import fan_moments, random_cone, random_reeb

F = Fraction

NON_SIMPLICIAL = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],            # conifold
    [(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)],            # dP1
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)],
]
PENTAGON = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1)]
RANK_FOUR = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)]


def _reduced(s, covectors):
    """The covectors the library keeps: those of the reduced transform."""
    return monomial_filtration(s, covectors, require_primary=False).covectors


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


def _lambda_max_draw(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    xi0 = random_reeb(rnd, s)
    return s, xi0, monomial_filtration(s, _covectors(rnd, s), require_primary=False)


# --- covector reduction --------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_reduce_covectors_matches_lp_only_reference(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    covs = _covectors(rnd, s)
    assert _reduced(s, covs) == _ref_reduce_covectors(s, covs)


def test_reduction_ties_are_decided_without_lp():
    # (1, 2) >= (1, 1) at both rays of C^2 with a tie at (1, 0), so it is
    # dropped; (2, 1) is the strict minimum at (0, 1) in (1, 3), (2, 1), so
    # it stays.  (1, 2, 2) = ((1, 1, 3) + (1, 3, 1)) / 2 ties with both at
    # e1 of C^3 and is minimal only where they meet, a lower-dimensional
    # chamber.
    c2 = from_rays([(1, 0), (0, 1)])
    c3 = from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert _reduced(c2, [(1, 1), (1, 2)]) == ((1, 1),)
    assert _reduced(c2, [(1, 3), (2, 1)]) == ((1, 3), (2, 1))
    assert _reduced(c3, [(1, 1, 3), (1, 3, 1), (1, 2, 2)]) == \
        ((1, 1, 3), (1, 3, 1))


# --- lambda_max ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_lambda_max_matches_epigraph_lp(seed):
    s, xi0, G = _lambda_max_draw(seed)
    key = (s.weight_cone, *_xi_row(xi0, s.rank), G.transform.rows, G.transform.den)
    assert _lambda_max_cached.__wrapped__(*key) == \
        _ref_lambda_max(s, xi0, G.covectors)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_untwisted_lambda_max_is_lambda_max(seed):
    s, xi0, G = _lambda_max_draw(seed)
    assert twisted_lambda_max(s, xi0, G, (0,) * s.rank)[0] == lambda_max_closed(s, xi0, G)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), scale=st.integers(1, 4))
def test_twisted_lambda_max_matches_epigraph_lp(seed, scale):
    # xi = -scale * (a covector) makes the shifted transform vanish or go
    # negative on part of the slice; the chambers do not depend on xi.
    s, xi0, G = _lambda_max_draw(seed)
    rnd = random.Random(seed + 1)
    xi = tuple(-scale * x for x in rnd.choice(G.covectors))
    if rnd.random() < 0.5:
        xi = tuple(rnd.randint(-3, 3) for _ in range(s.rank))
    shifted = [tuple(a + b for a, b in zip(z, xi)) for z in G.covectors]
    value, point = twisted_lambda_max(s, xi0, G, xi)
    assert value == _ref_lambda_max(s, xi0, shifted)
    assert dot(xi0, point) == 1 and s.weight_cone.contains(point)
    assert min(dot(z, point) for z in shifted) == value


def test_twisted_lambda_max_below_zero():
    # g = min(<(2,1), .>, <(1,2), .>) on C^2 at xi0 = (1, 1), twisted by
    # xi = (-3, -3): the shifted transform is negative on the whole slice,
    # and its maximum -3/2 is at the diagonal point, where the two tie.
    s = from_rays([(1, 0), (0, 1)])
    G = monomial_filtration(s, [(2, 1), (1, 2)])
    assert twisted_lambda_max(s, (1, 1), G, (-3, -3)) == (F(-3, 2), (F(1, 2), F(1, 2)))


# --- non-simplicial cones --------------------------------------------------------

@pytest.mark.parametrize("rays", [NON_SIMPLICIAL[1], PENTAGON, RANK_FOUR],
                         ids=["dP1", "pentagon", "rank4"])
def test_reduction_and_lambda_max_on_non_simplicial_cones(rays):
    s = from_rays(rays)
    assert len(s.sigma.rays) > s.rank
    dropped = kept_several = 0
    for seed in range(25):
        rnd = random.Random(seed)
        covs = _covectors(rnd, s)
        reduced = _reduced(s, covs)
        assert reduced == _ref_reduce_covectors(s, covs)
        dropped += len(reduced) < len(set(map(vec, covs)))
        kept_several += len(reduced) > 1
        G = monomial_filtration(s, covs, require_primary=False)
        xi0 = random_reeb(rnd, s)
        assert lambda_max_closed(s, xi0, G) == _ref_lambda_max(s, xi0, G.covectors)
    assert dropped and kept_several


def test_reduction_and_lambda_max_solve_no_lp():
    # Each of these needed an LP before the chamber kernel: the C^3 list
    # ties at a ray, and on C^2 the vertex values of FEX at xi0 = (1, 1)
    # bound lambda_max only to [1, 2].
    c2 = from_rays([(1, 0), (0, 1)])
    c3 = from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    G = monomial_filtration(c2, [(2, 1), (1, 2)])
    with mock.patch.object(lp, "_two_phase", wraps=lp._two_phase) as solves:
        assert _reduced(c3, [(1, 1, 4), (1, 4, 1), (1, F(5, 2), F(5, 2))]) == \
            ((1, 1, 4), (1, 4, 1))
        assert _lambda_max_cached.__wrapped__(c2.weight_cone, (1, 1), 1, G.transform.rows,
                                              G.transform.den) == F(3, 2)
        assert twisted_lambda_max(c2, (1, 1), G, (1, -1))[0] == F(2)
    assert solves.call_count == 0


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
