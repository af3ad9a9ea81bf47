"""Integer pairings in the fan, filtration and invariant layers against the
Fraction expressions they replaced.

Each ``_old_*`` helper below is the earlier Fraction form of one integer
path, kept as the reference: the slopes, reduced J's twist and delta_T's ray
ratios scaled rays onto the slice with ``slice_vertices`` and paired them
with ``dot``; S summed ``dot(z, grad)`` over ``fan_moments`` of each chamber
fan; the lct paired its covectors with u by ``dot``; the primarity test
paired each covector with the weight-cone rays by ``dot``; and covector
reduction keyed ``chambers`` on sorted Fraction tuples.  They read the
Okounkov body built eagerly, as it was while it held its Fraction views
(``conftest.okounkov_reference``); the volume and Futaki references are
Fraction forms of the fan's moments (``conftest.fan_moments``).
"""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab import invariants as inv
from conestab.errors import NotPrimary, UnboundedSlice
from conestab.exactgeom import dot, primitivize, slice_vertices, vec
from conestab.exactgeom.fan import chambers, cone_fan
from conestab.exactgeom.polytope import _slice_extreme
from conestab.filtration import monomial_filtration, rescale, twist
from conestab.singularity import _xi_row, from_rays, reeb_vector
from conftest import fan_moments, okounkov_reference, random_cone, random_reeb

F = Fraction

NON_SIMPLICIAL = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],                           # conifold
    [(1, 0, 0), (1, 1, 0), (1, 2, 2), (1, 0, 1)],                           # dP1
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1)],              # pentagon
    [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],  # rank 4
]
MESSAGE = "^slicing covector vanishes on a ray$"


# --- the Fraction references -----------------------------------------------------

def _old_chambers(s, covectors):
    return chambers.__wrapped__(s.weight_cone, tuple(sorted(set(map(vec, covectors)))))


def _old_primarity(s, covectors, require_primary):
    """The NotPrimary message of the Fraction test, or None when it passes."""
    for z in map(vec, covectors):
        for alpha in s.weight_cone.rays:
            val = dot(z, alpha)
            if val < 0 or (require_primary and val == 0):
                return f"transform not positive on weight-cone ray {alpha}"
    return None


def _old_lambda_max(s, xi0, covectors):
    return max(dot(z, a) for z, fan in chambers.__wrapped__(s.weight_cone, covectors)
               for a in slice_vertices(fan.rays, xi0))


def _old_lambda_min(s, xi0, G):
    return min(G.ord(v) for v in okounkov_reference(s, xi0).body.vertices[1:])


def _old_s(s, xi0, covectors):
    n = s.rank
    total = F(0)
    for z, fan in chambers.__wrapped__(s.weight_cone, covectors):
        total -= dot(z, fan_moments(fan, xi0, order=1)[1])
    return total / (n * factorial(n) * okounkov_reference(s, xi0).vol)


def _old_reduced_j(s, xi0, G):
    """(value, twist or None when several covectors are active)."""
    body = okounkov_reference(s, xi0)
    pairings = [dot(z, body.alpha0) for z in G.covectors]
    g0 = min(pairings)
    value = g0 - inv.s_closed(s, xi0, G)
    if pairings.count(g0) != 1:
        return value, None
    z = G.covectors[pairings.index(g0)]
    c = max(dot(z, a) for a in body.body.vertices[1:])
    return value, tuple(c * x - y for x, y in zip(xi0, z))


def _old_delta_ratios(s, xi0):
    alpha0 = okounkov_reference(s, xi0).alpha0
    a0 = dot(s.u, xi0)
    return [dot(s.u, a) for a in slice_vertices(s.sigma.rays, tuple(a0 * x for x in alpha0))]


# --- draws ---------------------------------------------------------------------------

def _instance(rnd):
    """A cone of rank 1-4 (simplicial or not, with or without boundary), a
    Reeb vector with den > 1 half the time, and 1-4 covectors: interior
    ones (primary), or nonnegative combinations of the rays of sigma with
    zero coefficients (boundary-divisor type)."""
    kind = rnd.random()
    if kind < 0.15:
        s = from_rays([(rnd.choice([1, -1]),)], rnd.choice([None, [F(1, 2)]]))
    elif kind < 0.4:
        s = from_rays(rnd.choice(NON_SIMPLICIAL))
    else:
        s = random_cone(rnd, rnd.choice([2, 3, 4]))
    scale = F(1, rnd.choice([1, 3, 4]))
    xi0 = tuple(x * scale for x in random_reeb(rnd, s))
    primary = rnd.random() < 0.6
    covs = []
    for _ in range(rnd.randint(1, 4)):
        coeffs = [F(rnd.randint(1 if primary else 0, 3), rnd.randint(1, 3))
                  for _ in s.sigma.rays]
        coeffs[rnd.randrange(len(coeffs))] += 1
        covs.append(tuple(sum(c * r[i] for c, r in zip(coeffs, s.sigma.rays))
                          for i in range(s.rank)))
    if covs and rnd.random() < 0.3:
        covs.append(rnd.choice(covs))
    event(f"rank {s.rank}")
    event("non-simplicial" if len(s.sigma.rays) > s.rank else "simplicial")
    event("boundary" if any(s.coefficients) else "no boundary")
    event("den(xi0) > 1" if any(F(x).denominator > 1 for x in xi0) else "integral xi0")
    return s, xi0, covs, primary


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_integer_paths_match_fraction_references(seed):
    rnd = random.Random(seed)
    s, xi0, covs, primary = _instance(rnd)
    wc = s.weight_cone
    # Primarity: the same verdict and message (boundary covectors fail it).
    message = _old_primarity(s, covs, True)
    if message is not None:
        with pytest.raises(NotPrimary) as exc:
            monomial_filtration(s, covs)
        assert str(exc.value) == message
        event("not primary")
    G = monomial_filtration(s, covs, require_primary=False)
    assert _old_primarity(s, covs, False) is None
    assert G.covectors == tuple(z for z, _ in _old_chambers(s, covs))
    event(f"{len(G.covectors)} covectors kept of {len(set(covs))}")

    key = (wc, *_xi_row(xi0, s.rank), G.transform.rows, G.transform.den)
    lmax = inv._lambda_max_cached.__wrapped__(*key)
    assert lmax == _old_lambda_max(s, xi0, G.covectors)
    assert inv.lambda_max_closed(s, xi0, G) == lmax
    assert inv.lambda_min_closed(s, xi0, G) == _old_lambda_min(s, xi0, G)
    S = inv._s_closed_cached.__wrapped__(*key)
    assert S == _old_s(s, xi0, G.covectors) == inv.s_closed(s, xi0, G)
    assert type(S) is type(lmax) is F

    value, twist = _old_reduced_j(s, xi0, G)
    rj = inv.reduced_j(s, xi0, G)
    assert rj.value == value
    if twist is not None:
        assert rj.minimizer_twist == twist
        assert all(type(x) is F for x in rj.minimizer_twist)
        event("reduced J twist without LP")

    pairings = [dot(z, s.u) for z in G.covectors]
    lct = inv._lct_cached.__wrapped__(s.u_row, s.u_den, s.sigma,
                                      G.transform.rows, G.transform.den)
    assert lct.value == min(pairings) and type(lct.value) is F
    if pairings.count(lct.value) == 1:
        assert lct.minimizer == G.covectors[pairings.index(lct.value)]

    ratios = _old_delta_ratios(s, xi0)
    value, ray = inv.delta_T(s, xi0)
    assert value == min(ratios) and type(value) is F
    if ratios.count(value) == 1:
        assert ray == primitivize(s.sigma.rays[ratios.index(value)])
        event("delta_T without LP")


def _record_instance(rnd):
    """A cone of rank 1-4 (one of NON_SIMPLICIAL or a random simplicial
    one), with boundary coefficients half the time, xi0 with L > 1, 1-4
    covectors interior to sigma, a twist in the Reeb cone and a coweight."""
    kind = rnd.random()
    if kind < 0.15:
        rays = [(rnd.choice([1, -1]),)]
    elif kind < 0.5:
        rays = rnd.choice(NON_SIMPLICIAL)
    else:
        rays = random_cone(rnd, rnd.choice([2, 3, 4])).sigma.rays
    s = from_rays(rays)

    def combination(rays, low, high=3):
        coeffs = [rnd.randint(low, high) for _ in rays]
        return [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(s.rank)]
    if rnd.random() < 0.5:
        # a_i = <w, v_i> / (k top), w in the weight cone: u - w / (k top) solves for u.
        w = combination(s.weight_cone.rays, 0)
        top = max(dot(w, v) for v in s.sigma.rays)
        if top:
            k = rnd.choice([2, 3])
            s = from_rays(s.sigma.rays, [dot(w, v) / (k * top) for v in s.sigma.rays])
    x = combination(s.sigma.rays, 1)
    L = gcd(*x) * rnd.choice([2, 3, 5])  # x / gcd is primitive, so L is xi0's denominator
    xi0 = tuple(F(a, L) for a in x)
    den = rnd.randint(1, 3)
    covs = [tuple(F(a, den) for a in combination(s.sigma.rays, 1, 6))
            for _ in range(rnd.randint(1, 4))]
    xi = tuple(F(a, den) for a in combination(s.sigma.rays, 1))
    eta = tuple(F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(s.rank))
    event(f"rank {s.rank}")
    event("non-simplicial" if len(s.sigma.rays) > s.rank else "simplicial")
    event("boundary" if any(s.coefficients) else "no boundary")
    return s, xi0, covs, xi, eta


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_okounkov_record_and_its_readers_match_the_eager_references(seed):
    # The record holds ints and builds its views on read; vol, nvol, the
    # volume derivative, both Futaki routes and S (of F, a twist and a
    # rescaling, which share their chamber moments) read its integers.
    rnd = random.Random(seed)
    s, xi0, covs, xi, eta = _record_instance(rnd)
    assert _xi_row(xi0, s.rank)[1] > 1
    ref = okounkov_reference(s, xi0)
    O = inv.okounkov_body(s, xi0)
    assert (O.body, O.vol, O.bary, O.alpha0, O.alpha0_ints) == tuple(ref)
    n, a0, ae = s.rank, dot(s.u, xi0), dot(s.u, eta)
    v, grad, _ = fan_moments(cone_fan(s.weight_cone), xi0, order=1)
    T = [(a0 * e - ae * x) / n for e, x in zip(eta, xi0)]
    got = [inv.vol(s, xi0), inv.nvol(s, xi0), inv.vol_derivative(s, xi0, eta),
           inv.futaki_derivative(s, xi0, eta), inv.futaki_product(s, xi0, eta)]
    assert got == [v, a0 ** n * v, dot(grad, eta), dot(grad, T) / v,
                   ae - a0 * dot(ref.alpha0, eta)]
    assert v == factorial(n) * ref.vol and all(type(q) is F for q in got)
    G = monomial_filtration(s, covs)
    event(f"{len(G.covectors)} chambers")
    for H, rows in ((G, G.covectors),
                    (twist(G, xi), [tuple(a + b for a, b in zip(z, xi)) for z in G.covectors]),
                    (rescale(G, 2), [tuple(2 * a for a in z) for z in G.covectors])):
        S = inv.s_closed(s, xi0, H)
        assert S == _old_s(s, xi0, rows) and type(S) is F


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_slice_outside_the_reeb_cone_raises_the_same_error(seed):
    # xi0 on a ray of sigma vanishes on a weight-cone ray in rank >= 2, and
    # its negative is negative there: every slice path raises UnboundedSlice.
    rnd = random.Random(seed)
    s, _, covs, _ = _instance(rnd)
    G = monomial_filtration(s, covs, require_primary=False)
    ray = rnd.choice(s.sigma.rays)
    sign = rnd.choice([1, -1]) if s.rank > 1 else -1
    xi0 = tuple(sign * x for x in ray)
    old = [lambda: _old_lambda_max(s, xi0, G.covectors),
           lambda: _old_lambda_min(s, xi0, G),
           lambda: _old_s(s, xi0, G.covectors)]
    key = (s.weight_cone, *_xi_row(xi0, s.rank), G.transform.rows, G.transform.den)
    new = [lambda: inv._lambda_max_cached.__wrapped__(*key),
           lambda: inv.lambda_min_closed(s, xi0, G),
           lambda: inv._s_closed_cached.__wrapped__(*key),
           lambda: inv.reduced_j(s, xi0, G),
           lambda: inv.delta_T(s, xi0)]
    for call in old + new:
        with pytest.raises(UnboundedSlice, match=MESSAGE):
            call()


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                     min_size=1, max_size=5),
       zs=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                   min_size=1, max_size=3),
       x=st.tuples(st.integers(-2, 4), st.integers(-2, 4), st.integers(-2, 4)),
       largest=st.booleans())
def test_slice_extreme_is_the_fraction_extreme(rows, zs, x, largest):
    if any(dot(x, r) <= 0 for r in rows):
        with pytest.raises(UnboundedSlice, match=MESSAGE):
            slice_vertices(rows, x)
        with pytest.raises(UnboundedSlice, match=MESSAGE):
            _slice_extreme(((zs, rows),), x, largest)
        return
    values = [dot(z, a) for a in slice_vertices(rows, x) for z in zs]  # rays outer
    best = max(values) if largest else min(values)
    num, den, first, count = _slice_extreme(((zs, rows),), x, largest)
    assert F(num, den) == best and den > 0
    assert (first, count) == (values.index(best), values.count(best))


def test_equal_inputs_share_one_cache_entry():
    # xi0 = (2, 3) and the covectors (1/2, 3/4) and (2, 1/2), each given as
    # ints, 'p/q' strings (non-reduced ones too), Fractions and a ReebVector.
    s = from_rays([(1, 0), (1, 3)])
    reebs = [(2, 3), ("2", "3"), ("4/2", "6/2"), (F(2), F(3)), reeb_vector(s, (2, 3))]
    covectors = [[("1/2", "3/4"), ("2", "1/2")], [("2/4", "6/8"), ("4/2", "2/4")],
                 [(F(1, 2), F(3, 4)), (F(2), F(1, 2))], [(F(2, 4), F(3, 4)), (2, "1/2")]]
    caches = [inv._okounkov_cached, inv._vol_cached, inv._s_closed_cached,
              inv._lambda_max_cached, inv._lct_cached, chambers]
    for cache in caches:
        cache.cache_clear()
    filtrations = [monomial_filtration(s, covs) for covs in covectors]
    assert len(set(filtrations)) == 1 and len(filtrations[0].covectors) == 2
    for G in filtrations:
        for xi0 in reebs:
            inv.vol(s, xi0)
            inv.s_closed(s, xi0, G)
            inv.lambda_max_closed(s, xi0, G)
            inv.lct_monomial(s, G)
    assert [cache.cache_info().misses for cache in caches] == [1] * len(caches)
