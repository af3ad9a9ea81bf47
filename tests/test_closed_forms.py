"""The closed forms of reduced_j, lct_monomial and delta_T, pinned against
the LPs they replaced, and the paper's identity that they make exact.

Each reference below is the LP formulation as it stood before the closed
form: the minimax LP of reduced J, the Newton-polyhedron LP of the lct and
the Charnes-Cooper LP of delta_T.  The values must agree on every draw.
The optimal point (twist, lct minimizer, delta_T ray) is an output, and an
LP picks one vertex of its optimal face, so the points must agree whenever
the closed path is taken; the library runs the LP only where the closed
form does not fix that vertex.  delta_T's tie LP has the Charnes-Cooper
rows in their order, so its ray agrees on both paths.  The draws mix ranks 2-4, boundary
coefficients, non-simplicial cones, filtrations that vanish on part of the
boundary and semistable and unstable polarizations, and they build ties
on purpose so that both paths of each function are reached.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab import invariants
from conestab.exactgeom import dot, lp_solve, primitivize
from conestab.exactgeom import lp as lp_module
from conestab.filtration import monomial_filtration, newton_polyhedron
from conestab.invariants import (
    ding,
    okounkov_body,
    reduced_j,
    s_closed,
    semistable_verdict,
    twisted_lambda_max,
)
from conestab.singularity import from_rays, log_discrepancy
from conftest import random_cone, random_reeb

F = Fraction

NON_SIMPLICIAL = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],                         # conifold
    [(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)],                         # dP1
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)],
    [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
]


# --- LP references --------------------------------------------------------------

def _ref_reduced_j(s, xi0, G):
    """(value, twist) of the minimax LP over (lam, xi, t), minus S."""
    n = s.rank
    covs = G.covectors
    k = len(covs)
    alpha0 = okounkov_body(s, xi0).alpha0
    verts = [tuple(F(x) / dot(xi0, r) for x in r) for r in s.weight_cone.rays]
    zeros = lambda j: (F(0),) * j
    cons = [((F(1),) * k + zeros(n + 1), "==", F(1))]
    for i in range(k):
        e = [F(0)] * (k + n + 1)
        e[i] = F(1)
        cons.append((tuple(e), ">=", F(0)))
    for h in s.sigma.halfspaces:
        cons.append((zeros(k) + tuple(h) + zeros(1), ">=", F(0)))
    for av in verts:
        row = [dot(z, av) for z in covs] + list(av) + [F(-1)]
        cons.append((tuple(row), "<=", F(0)))
    objective = zeros(k) + tuple(-a for a in alpha0) + (F(1),)
    res = lp_solve(objective, cons, sense="min")
    return res.value - s_closed(s, xi0, G), res.point[k:k + n]


def _ref_lct(s, G):
    cons = [(v, ">=", F(1)) for v in newton_polyhedron(G).vertices]
    cons += [(h, ">=", F(0)) for h in s.sigma.halfspaces]
    res = lp_solve(s.u, cons, sense="min")
    return res.value, res.point


def _ref_delta_T(s, xi0):
    alpha0 = okounkov_body(s, xi0).alpha0
    a0 = log_discrepancy(s, xi0)
    value, y = lp_module.fractional_lp(s.u, tuple(a0 * x for x in alpha0),
                                       s.sigma.halfspaces, sense="min")
    return value, primitivize(y)


# --- draws ----------------------------------------------------------------------

def _cone(rnd):
    if rnd.random() < 0.3:
        return from_rays(rnd.choice(NON_SIMPLICIAL))
    return random_cone(rnd, rnd.choice([2, 2, 3, 3, 4]))


def _reeb(rnd, s):
    """A random interior point, or (simplicial cones only) the semistable
    polarization (1/n) sum_i v_i / (1 - a_i), where every ray ties in
    delta_T."""
    if len(s.sigma.rays) == s.rank and rnd.random() < 0.25:
        n = s.rank
        return tuple(sum(v[i] / (1 - a) for v, a in zip(s.sigma.rays, s.coefficients)) / n
                     for i in range(n))
    return random_reeb(rnd, s)


def _combo(rnd, s, low=0):
    """A combination of sigma's rays with coefficients in low..3 (a zero
    makes the covector vanish on a weight-cone ray: a non-primary F)."""
    coeffs = [rnd.randint(low, 3) for _ in s.sigma.rays]
    coeffs[rnd.randrange(len(coeffs))] += 1
    return tuple(F(sum(c * r[i] for c, r in zip(coeffs, s.sigma.rays)))
                 for i in range(s.rank))


def _scaled(z, point, level):
    """z rescaled so that it pairs to ``level`` with ``point``."""
    return tuple(level / dot(z, point) * x for x in z)


def _covectors(rnd, s, xi0):
    """1-4 covectors in sigma, with deliberate ties: several covectors
    rescaled to one pairing with alpha0 or with u, or a pair z, z' with
    z + z' a multiple of xi0, so g is flat at alpha0 in that direction."""
    covs = [_combo(rnd, s) for _ in range(rnd.randint(1, 3))]
    kind = rnd.random()
    if kind < 0.25:
        alpha0 = okounkov_body(s, xi0).alpha0
        covs = [_scaled(z, alpha0, 1) if rnd.random() < 0.7 else z for z in covs]
    elif kind < 0.4:
        covs = [_scaled(z, s.u, 1) if rnd.random() < 0.7 else z for z in covs]
    elif kind < 0.6:
        alpha0 = okounkov_body(s, xi0).alpha0
        w = _combo(rnd, s)
        w = tuple(a - dot(w, alpha0) * b for a, b in zip(w, xi0))
        m = 1
        while not all(s.sigma.contains(tuple(m * b + e * a for a, b in zip(w, xi0)))
                      for e in (1, -1)):
            m *= 2
        covs += [tuple(m * b + e * a for a, b in zip(w, xi0)) for e in (1, -1)]
    return covs


def _draw(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    xi0 = _reeb(rnd, s)
    G = monomial_filtration(s, _covectors(rnd, s, xi0), require_primary=False)
    return s, xi0, G


# --- one function against its reference, reporting the path ---------------------

def _reduced_j_path(s, xi0, G):
    with mock.patch.object(invariants, "_reduced_j_twist_lp",
                           wraps=invariants._reduced_j_twist_lp) as lp:
        res = reduced_j(s, xi0, G)
    value, twist = _ref_reduced_j(s, xi0, G)
    assert res.value == value
    # the twist is optimal: J of the twisted filtration attains the value
    xi = res.minimizer_twist
    alpha0 = okounkov_body(s, xi0).alpha0
    assert s.sigma.contains(xi)
    assert twisted_lambda_max(s, xi0, G, xi)[0] - dot(alpha0, xi) - s_closed(s, xi0, G) == value
    if not lp.called:
        assert res.minimizer_twist == twist
    return lp.called


def _lct_path(s, G):
    with mock.patch.object(invariants, "lp_solve", wraps=lp_solve) as lp:
        res = invariants._lct_cached.__wrapped__(s.u_row, s.u_den, s.sigma,
                                                 G.transform.rows, G.transform.den)
    value, minimizer = _ref_lct(s, G)
    assert res.value == value == G.ord(s.u)
    if not lp.called:
        assert res.minimizer == minimizer
    return lp.called


def _delta_T_path(s, xi0):
    # The tie LP has fractional_lp's rows in its order, so it picks the same
    # ray; the closed path's unique minimizing ray is the LP's only optimum.
    with mock.patch.object(invariants, "lp_solve", wraps=lp_solve) as lp:
        res = invariants.delta_T(s, xi0)
    assert res == _ref_delta_T(s, xi0)
    return lp.called


def _label(lp_called):
    return "LP fallback" if lp_called else "closed form"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_reduced_j_matches_minimax_lp(seed):
    s, xi0, G = _draw(seed)
    event(f"rank {s.rank}")
    event(_label(_reduced_j_path(s, xi0, G)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_lct_matches_newton_polyhedron_lp(seed):
    s, _, G = _draw(seed)
    event(_label(_lct_path(s, G)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_delta_T_matches_charnes_cooper_lp(seed):
    rnd = random.Random(seed)
    s = _cone(rnd)
    event(_label(_delta_T_path(s, _reeb(rnd, s))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_inf_twist_s_matches_its_lp(seed):
    # alpha0 is interior to the weight cone, so the LP min <alpha0, .> over
    # sigma has the origin as its only optimum, which is what is returned.
    rnd = random.Random(seed)
    s = _cone(rnd)
    xi0 = _reeb(rnd, s)
    cons = [(h, ">=", 0) for h in s.sigma.halfspaces]
    res = lp_solve(okounkov_body(s, xi0).alpha0, cons, sense="min")
    assert invariants.inf_twist_s(s, xi0, random_reeb(rnd, s)) == (res.value, res.point)


def test_draws_reach_closed_form_and_lp_fallback():
    paths = {"reduced_j": [], "lct": [], "delta_T": []}
    for seed in range(150):
        s, xi0, G = _draw(seed)
        paths["reduced_j"].append(_reduced_j_path(s, xi0, G))
        paths["lct"].append(_lct_path(s, G))
        paths["delta_T"].append(_delta_T_path(s, xi0))
    for name, called in paths.items():
        assert sum(called) >= 10, name
        assert called.count(False) >= 40, name


def test_reduced_j_twist_on_each_path():
    c2 = from_rays([(1, 0), (0, 1)])
    # FEX at xi0 = (1, 1): both covectors are active at alpha0 = (1/2, 1/2)
    # and g is flat there, (2, 1) + (1, 2) = 3 (1, 1), so the twist is 0.
    fex = monomial_filtration(c2, [(2, 1), (1, 2)])
    assert _reduced_j_path(c2, (1, 1), fex) is False
    assert reduced_j(c2, (1, 1), fex).minimizer_twist == (0, 0)
    # At xi0 = (1, 2), alpha0 = (1/2, 1/4) and only (1, 3) is active:
    # c* = max(1/1, 3/2) = 3/2 and the twist is 3/2 (1, 2) - (1, 3).
    G = monomial_filtration(c2, [(3, 1), (1, 3)])
    assert _reduced_j_path(c2, (1, 2), G) is False
    assert reduced_j(c2, (1, 2), G).minimizer_twist == (F(1, 2), 0)
    # (6, 2) and (5, 3) are both active at (1/2, 1/2) and g rises through
    # it, so no closed rule fixes the LP's vertex.
    G = monomial_filtration(c2, [(6, 2), (5, 3)])
    assert _reduced_j_path(c2, (1, 1), G) is True
    assert reduced_j(c2, (1, 1), G).minimizer_twist == (0, 2)


# --- the paper's identity, exactly --------------------------------------------

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_ding_minus_a_reduced_j_is_a_difference_of_orders(seed):
    # J_red = g(alpha0) - S and lct = g(u), so D - A J_red = g(u) - g(A alpha0)
    # at every polarization; at a semistable one u = A alpha0 and D = A J_red.
    s, xi0, G = _draw(seed)
    a0 = log_discrepancy(s, xi0)
    a_alpha0 = tuple(a0 * x for x in okounkov_body(s, xi0).alpha0)
    gap = ding(s, xi0, G) - a0 * reduced_j(s, xi0, G).value
    assert gap == G.ord(s.u) - G.ord(a_alpha0)
    semistable = semistable_verdict(s, xi0)[0]
    event(f"semistable: {semistable}")
    if semistable:
        assert gap == 0


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_reduced_j_zero_exactly_for_one_covector(seed):
    s, xi0, G = _draw(seed)
    event(f"{len(G.covectors)} covectors after reduction")
    value = reduced_j(s, xi0, G).value
    assert value >= 0
    assert (value == 0) == (len(G.covectors) == 1)
