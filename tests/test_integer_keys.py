"""The integer forms under the invariant caches and kernels.

A xi0, xi or eta enters as (x, L), L the lcm of its denominators, and a
filtration's transform carries its covectors as integer rows over one
denominator (``PLConcave.rows``, ``PLConcave.den``).  Every cache key is
built from those forms, so a key must fix exactly one value: equal vectors
in any spelling share it, and c xi0 does not.  A warm call builds its key
from integers alone, and a vector whose length is not the rank is refused
where it enters.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conestab import invariants as inv
from conestab.errors import AmbientMismatch, BudgetExceeded
from conestab.estimators import (bj_bound_check, gamma_semigroup, good_valuation_check,
                                 sweep, sweep_approx)
from conestab.exactgeom import lattice_points_below
from conestab.exactgeom.fan import chambers
from conestab.filtration import (approx_ord, monomial_filtration, ord_of, rescale,
                                 toric_filtration, twist, value_under)
from conestab.singularity import (ReebVector, _parsed_row, _xi_row, from_rays, log_discrepancy,
                                  reeb_contains, reeb_vector)
from conftest import random_cone, random_reeb

F = Fraction


# --- vectors of the wrong length ------------------------------------------------

def _vector_calls(s, G):
    """(name, call) for every public function taking a xi0, xi or eta, with
    the vector under test in that place and (1, 1) elsewhere."""
    ok = (1, 1)
    return [
        ("reeb_contains", lambda v: reeb_contains(s, v)),
        ("reeb_vector", lambda v: reeb_vector(s, v)),
        ("log_discrepancy", lambda v: log_discrepancy(s, v)),
        ("okounkov_body", lambda v: inv.okounkov_body(s, v)),
        ("vol", lambda v: inv.vol(s, v)),
        ("nvol", lambda v: inv.nvol(s, v)),
        ("vol_derivative xi", lambda v: inv.vol_derivative(s, v, ok)),
        ("vol_derivative eta", lambda v: inv.vol_derivative(s, ok, v)),
        ("s_closed", lambda v: inv.s_closed(s, v, G)),
        ("lambda_max_closed", lambda v: inv.lambda_max_closed(s, v, G)),
        ("lambda_min_closed", lambda v: inv.lambda_min_closed(s, v, G)),
        ("j_norm", lambda v: inv.j_norm(s, v, G)),
        ("ding", lambda v: inv.ding(s, v, G)),
        ("futaki_product xi0", lambda v: inv.futaki_product(s, v, ok)),
        ("futaki_product eta", lambda v: inv.futaki_product(s, ok, v)),
        ("futaki_derivative xi0", lambda v: inv.futaki_derivative(s, v, ok)),
        ("futaki_derivative eta", lambda v: inv.futaki_derivative(s, ok, v)),
        ("delta_T", lambda v: inv.delta_T(s, v)),
        ("semistable_verdict", lambda v: inv.semistable_verdict(s, v)),
        ("reduced_j", lambda v: inv.reduced_j(s, v, G)),
        ("twisted_lambda_max xi0", lambda v: inv.twisted_lambda_max(s, v, G, ok)),
        ("twisted_lambda_max xi", lambda v: inv.twisted_lambda_max(s, ok, G, v)),
        ("inf_twist_s xi0", lambda v: inv.inf_twist_s(s, v, ok)),
        ("inf_twist_s eta", lambda v: inv.inf_twist_s(s, ok, v)),
        ("delta_red_objective xi0", lambda v: inv.delta_red_objective(s, v, ok)),
        ("delta_red_objective eta", lambda v: inv.delta_red_objective(s, ok, v)),
        ("coercivity_constant_sq", lambda v: inv.coercivity_constant_sq(s, v)),
        ("quotient_norm_sq", lambda v: inv.quotient_norm_sq(v, ok)),
        ("toric_filtration", lambda v: toric_filtration(s, v)),
        ("twist", lambda v: twist(G, v)),
        ("value_under", lambda v: value_under(G, v)),
        ("sweep", lambda v: sweep(s, v, G, [2])),
        ("sweep_approx", lambda v: sweep_approx(s, v, G, 2, [2])),
        ("bj_bound_check", lambda v: bj_bound_check(s, v, G, 1, 1, levels=[2])),
        ("gamma_semigroup", lambda v: gamma_semigroup(s, v, G, 2, 1)),
        ("good_valuation_check", lambda v: good_valuation_check(s, v)),
    ]


@pytest.mark.parametrize("v", [(1, 2, 3), (1,), ReebVector(xi=(F(1), F(2), F(3)))],
                         ids=["long", "short", "reeb-vector"])
def test_vectors_of_the_wrong_length_raise_ambient_mismatch(c2, v):
    # Before, vol(s, (1, 2, 3)) read (1, 2), twist truncated xi, a short
    # vector hit UnboundedSlice and most functions a bare ValueError of zip.
    G = monomial_filtration(c2, [(1, 2), (2, 1)])
    n = len(v.xi) if isinstance(v, ReebVector) else len(v)
    for name, call in _vector_calls(c2, G):
        with pytest.raises(AmbientMismatch, match=f"^vector of length {n} on a rank-2 cone$"):
            call(v)
        assert call((1, 1)) is not None, name  # the right length still works


def _exponent_calls(s, G):
    """(name, call) for every function taking an exponent alpha or a
    slicing covector xi, with the vector under test in that place."""
    return [
        ("ord_of", lambda v: ord_of(G, v)),
        ("approx_ord", lambda v: approx_ord(G, 2, v)),
        ("MonomialFiltration.ord", lambda v: G.ord(v)),
        ("lattice_points_below", lambda v: lattice_points_below(s.weight_cone, v, 3)),
    ]


@pytest.mark.parametrize("v", [(1, 2, 3), (1,)], ids=["long", "short"])
def test_exponents_of_the_wrong_length_raise_ambient_mismatch(c2, v):
    # Before, each of these raised a bare ValueError from zip(strict=True).
    G = monomial_filtration(c2, [(1, 2), (2, 1)])
    for name, call in _exponent_calls(c2, G):
        with pytest.raises(AmbientMismatch, match=f"^vector of length {len(v)} on a rank-2 cone$"):
            call(v)
        assert call((1, 1)) is not None, name


def _filtration_calls(s, G):
    """(name, call) for every public function taking both s and a
    filtration; the enumerating ones get budget 0, so a check that came
    after their enumeration would raise BudgetExceeded instead."""
    xi0 = (1, 1)
    return [
        ("s_closed", lambda: inv.s_closed(s, xi0, G)),
        ("lambda_max_closed", lambda: inv.lambda_max_closed(s, xi0, G)),
        ("lambda_min_closed", lambda: inv.lambda_min_closed(s, xi0, G)),
        ("j_norm", lambda: inv.j_norm(s, xi0, G)),
        ("lct_monomial", lambda: inv.lct_monomial(s, G)),
        ("ding", lambda: inv.ding(s, xi0, G)),
        ("reduced_j", lambda: inv.reduced_j(s, xi0, G)),
        ("twisted_lambda_max", lambda: inv.twisted_lambda_max(s, xi0, G, xi0)),
        ("sweep", lambda: sweep(s, xi0, G, [2], budget=0)),
        ("sweep_approx", lambda: sweep_approx(s, xi0, G, 2, [2], budget=0)),
        ("bj_bound_check", lambda: bj_bound_check(s, xi0, G, 1, 1, levels=[2])),
        ("gamma_semigroup", lambda: gamma_semigroup(s, xi0, G, 2, 1, budget=0)),
    ]


def test_a_filtration_over_another_singularity_raises_ambient_mismatch(c2, a1):
    # Before, s_closed(c2, (1, 1), G) read G's rows as if they were over c2.
    G = monomial_filtration(a1, [(1, 1), (2, 1)])
    for name, call in _filtration_calls(c2, G):
        with pytest.raises(AmbientMismatch, match="^filtration over a different singularity$"):
            call()
    H = monomial_filtration(c2, [(1, 1), (2, 1)])
    for name, call in _filtration_calls(c2, H):
        try:
            assert call() is not None, name
        except BudgetExceeded:
            assert name in ("sweep", "sweep_approx", "gamma_semigroup"), name


# --- one key, one value -----------------------------------------------------------

CACHES = (inv._okounkov_cached, inv._vol_cached, inv._s_closed_cached,
          inv._lambda_max_cached, inv._lct_cached, chambers)


def _values(s, xi0, G):
    rj = inv.reduced_j(s, xi0, G)
    body = inv.okounkov_body(s, xi0)
    return {"vol": inv.vol(s, xi0), "S": inv.s_closed(s, xi0, G),
            "lambda_max": inv.lambda_max_closed(s, xi0, G),
            "lambda_min": inv.lambda_min_closed(s, xi0, G),
            "lct": inv.lct_monomial(s, G), "J_T": rj.value, "J_T_twist": rj.minimizer_twist,
            "body": (body.vol, body.bary, body.alpha0, body.body.vertices)}


def _scaled(values, c, n):
    """The values at c xi0 from those at xi0: vol is homogeneous of degree
    -n, S, the slopes and reduced J of degree -1; the body scales by 1/c and
    its volume by c^-n; the lct does not move.  The twist is left out: the
    LP that picks it on ties need not pick the same vertex at c xi0."""
    body_vol, bary, alpha0, vertices = values["body"]
    out = dict(values, vol=values["vol"] / c ** n, S=values["S"] / c,
               lambda_max=values["lambda_max"] / c, lambda_min=values["lambda_min"] / c,
               J_T=values["J_T"] / c,
               body=(body_vol / c ** n, tuple(x / c for x in bary),
                     tuple(x / c for x in alpha0),
                     tuple(tuple(x / c for x in v) for v in vertices)))
    del out["J_T_twist"]
    return out


def _spellings(v):
    """v as Fractions, as non-reduced 'p/q' strings, as a ReebVector and,
    when integral, as ints."""
    out = [tuple(v), tuple(f"{2 * x.numerator}/{2 * x.denominator}" for x in v),
           ReebVector(xi=tuple(v))]
    if all(x.denominator == 1 for x in v):
        out.append(tuple(int(x) for x in v))
    return out


def _covector_spellings(rnd, covs):
    """The covectors permuted, with a duplicate, and as non-reduced strings."""
    perm = list(covs)
    rnd.shuffle(perm)
    return [covs, perm + [perm[0]],
            [tuple(f"{3 * x.numerator}/{3 * x.denominator}" for x in z) for z in reversed(covs)]]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rank=st.sampled_from([2, 3]))
def test_each_key_fixes_exactly_one_value(seed, rank):
    rnd = random.Random(seed)
    s = random_cone(rnd, rank)
    xi0 = tuple(F(x) for x in random_reeb(rnd, s))
    covs = []
    for _ in range(rnd.randint(1, 3)):  # positive combinations of the rays: primary
        cs = [F(rnd.randint(1, 9), rnd.randint(1, 3)) for _ in s.sigma.rays]
        covs.append(tuple(sum(c * r[k] for c, r in zip(cs, s.sigma.rays)) for k in range(rank)))
    c = F(rnd.choice([2, 3, 5]), rnd.choice([1, 2, 7]))
    c = F(3, 2) if c == 1 else c
    L = lcm(*(x.denominator for x in xi0))
    for cache in CACHES:
        cache.cache_clear()
    filtrations = [monomial_filtration(s, cs) for cs in _covector_spellings(rnd, covs)]
    G = filtrations[0]
    assert all(H == G for H in filtrations)
    # Cold references: each point computed first from an empty cache.
    base = _values(s, xi0, G)
    for cache in CACHES:
        cache.cache_clear()
    cold = _values(s, tuple(c * x for x in xi0), G)
    del cold["J_T_twist"]
    assert cold == _scaled(base, c, rank)
    # Warm: every spelling of every point, for every spelling of F, reads the
    # entries the first spelling made, and none reads another point's.
    for point, want in ((xi0, base), (tuple(c * x for x in xi0), _scaled(base, c, rank)),
                        (tuple(L * x for x in xi0), _scaled(base, L, rank))):
        for spelling in _spellings(point):
            for H in filtrations:
                got = _values(s, spelling, H)
                if "J_T_twist" not in want:
                    del got["J_T_twist"]
                assert got == want
    assert inv.nvol(s, tuple(c * x for x in xi0)) == inv.nvol(s, xi0)
    event(f"rank {rank}, {len(G.covectors)} covectors kept")


# --- warm keys hash no Fraction -----------------------------------------------------

def test_warm_calls_hash_no_fraction(monkeypatch):
    s = random_cone(random.Random(7), 3)
    rnd = random.Random(8)
    xi0 = ReebVector(xi=tuple(F(x) for x in random_reeb(rnd, s)))
    G = monomial_filtration(s, [random_reeb(rnd, s) for _ in range(3)])
    calls = [lambda: inv.s_closed(s, xi0, G), lambda: inv.lambda_max_closed(s, xi0, G),
             lambda: inv.lambda_min_closed(s, xi0, G), lambda: inv.lct_monomial(s, G),
             lambda: inv.ding(s, xi0, G), lambda: inv.j_norm(s, xi0, G),
             lambda: inv.reduced_j(s, xi0, G), lambda: inv.okounkov_body(s, xi0),
             lambda: inv.vol(s, xi0), lambda: inv.s_closed(s, xi0.xi, G)]
    warm = [call() for call in calls]

    def refuse(self):
        raise AssertionError("a Fraction was hashed")
    monkeypatch.setattr(Fraction, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(F(1, 2))
    assert [call() for call in calls] == warm


# --- xi0 parsed once ---------------------------------------------------------------

def test_each_xi0_is_parsed_once_and_bad_ones_still_raise(monkeypatch):
    # The memo keys on the vector itself, so it must not take (1.0, 1) or
    # (True, 1) for the cached (1, 1): equal and equally hashed, but a float
    # and a bool are refused.  The wrong length is refused before the memo.
    s = from_rays([(1, 0), (1, 3)])
    _parsed_row.cache_clear()
    assert inv.vol(s, [1, 1]) == inv.vol(s, (1, 1)) == F(3, 2)
    assert _parsed_row.cache_info()[:2] == (1, 1)
    with pytest.raises(TypeError, match=r"^refusing float 1\.0; "):
        inv.vol(s, [1.0, 1])
    with pytest.raises(TypeError, match="^refusing bool; "):
        inv.vol(s, [True, 1])
    with pytest.raises(TypeError, match="^refusing bool; "):
        inv.vol(s, [F(1), True])
    with pytest.raises(AmbientMismatch, match="^vector of length 3 on a rank-2 cone$"):
        inv.vol(s, [1, 1, 1])
    # Every other exact input refuses a bool the same way: covectors, rays,
    # coefficients, a slicing covector, a level and a rescaling factor.
    G = monomial_filtration(s, [(1, 2)])
    for call in (lambda: monomial_filtration(s, [(True, 2)]),
                 lambda: from_rays([(True, 0), (0, 1)]),
                 lambda: from_rays([(1, 0), (0, 1)], [False, 0]),
                 lambda: lattice_points_below(s.weight_cone, (True, 1), 2),
                 lambda: lattice_points_below(s.weight_cone, (1, 1), True),
                 lambda: rescale(G, True)):
        with pytest.raises(TypeError, match=r"^refusing bool; pass ints, Fractions or 'p/q' "
                                            r"strings$"):
            call()
    # One (row, den) for every spelling of one xi0; ints and strings are
    # parsed once per spelling, and a vector holding a Fraction never meets
    # the memo, so no Fraction is hashed.
    spellings = [[F(1, 2), 1], (F(1, 2), 1), ReebVector(xi=(F(1, 2), F(1))), ("1/2", "1"),
                 ["2/4", 1], ("1/2", 1), reeb_vector(s, ("1/2", 1)), [F(1, 2), "1"]]
    _parsed_row.cache_clear()
    monkeypatch.setattr(Fraction, "__hash__", lambda self: pytest.fail("a Fraction was hashed"))
    assert {_xi_row(v, 2) for v in spellings * 2} == {((1, 2), 2)}
    assert _parsed_row.cache_info()[:2] == (3, 3)  # three spellings of ints and strings
