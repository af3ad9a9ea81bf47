"""Values from the literature, pinned against the library.

Every other pinned value in the tests was produced by this library; these
come from closed forms in published work, so a formula that is wrong the
same way on every path cannot pass them.  Rational values compare with
``==``; the irrational Y^{p,q} volumes a + b sqrt(d) are placed in the
certified interval [nvol - gap, nvol] exactly, by squaring.
"""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from conestab import invariants
from conestab.exactgeom import cone, fan, linalg
from conestab.invariants import delta_T, vol
from conestab.optimize import minimize_nvol
from conestab.singularity import from_rays

F = Fraction

# Reflexive polygons of the toric del Pezzo surfaces: the canonical cone
# over one has rays (1, v) for its vertices v, u = (1, 0, 0).
P2 = [(1, 0), (0, 1), (-1, -1)]
P1xP1 = [(1, 0), (0, 1), (-1, 0), (0, -1)]
BL1 = [(1, 0), (1, 1), (0, 1), (-1, -1)]
BL2 = [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)]
DP3 = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _cone_over(polygon):
    return from_rays([(1, *v) for v in polygon])


# n^n / |G| for C^n / G: Li-Liu-Xu, "A guided tour to normalized volume" (2018).
# The degree K^2 of a Kaehler-Einstein del Pezzo surface, whose regular
# Sasaki-Einstein link has volume K^2 / 27 of S^5's: Bergman-Herzog,
# hep-th/0112176.
MINIMAL_NVOL = [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 27),  # C^3; Li-Liu-Xu
    *[([(1, 0), (1, k)], F(4, k)) for k in range(2, 7)],  # C^2 / Z_k; Li-Liu-Xu
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 3)], 9),  # C^3 / Z_3, weights (1, 1, 1); Li-Liu-Xu
    # the conifold: 27 vol(T^{1,1}) / vol(S^5) = 27 * 16/27; Gubser, hep-th/9807164
    ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 16),
    ([(1, *v) for v in P1xP1], 8),  # K^2 of P^1 x P^1; Bergman-Herzog
    ([(1, *v) for v in DP3], 6),  # K^2 of dP3; Bergman-Herzog
]


@pytest.mark.parametrize("rays, value", MINIMAL_NVOL)
def test_minimal_normalized_volume(rays, value):
    r = minimize_nvol(from_rays(rays))
    assert r.nvol_value == value and r.certificate_gap == 0


# delta of a toric del Pezzo surface, the delta_T of its canonical cone at
# xi0 = (3, 0, 0): Blum-Jonsson, "Thresholds, valuations, and K-stability",
# Adv. Math. 365 (2020); Cheltsov-Rubinstein-Zhang, "Basis log canonical
# thresholds, local intersection estimates, and asymptotically log del Pezzo
# surfaces", Selecta Math. 25 (2019).
DELTA_T = [
    (BL1, F(6, 7)),  # Bl_1 P^2; Blum-Jonsson, Cheltsov-Rubinstein-Zhang
    (BL2, F(21, 25)),  # Bl_2 P^2; Cheltsov-Rubinstein-Zhang
    (P2, 1),  # Kaehler-Einstein; Blum-Jonsson
    (P1xP1, 1),  # Kaehler-Einstein; Blum-Jonsson
    (DP3, 1),  # Kaehler-Einstein; Blum-Jonsson
]


@pytest.mark.parametrize("polygon, value", DELTA_T)
def test_delta_T_of_toric_del_pezzo_surfaces(polygon, value):
    assert delta_T(_cone_over(polygon), (3, 0, 0))[0] == value


def _at_most(a, b, d, t):
    """a + b sqrt(d) <= t for rationals a, b, t and an integer d >= 0."""
    r = t - a
    if b >= 0:
        return r >= 0 and b * b * d <= r * r
    return r >= 0 or b * b * d >= r * r


# Y^{p,q}: 27 times Martelli-Sparks-Yau's volume ratio
# q^2 (2p + s) / (3p^2 (3q^2 - 2p^2 + p s)), s = sqrt(4p^2 - 3q^2)
# (Gauntlett-Martelli-Sparks-Waldram, hep-th/0403002; Martelli-Sparks-Yau,
# hep-th/0503183)
Y_PQ = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]


@pytest.mark.parametrize("p, q", Y_PQ)
def test_ypq_volume_lies_in_the_certified_interval(p, q):
    s = from_rays([(1, 0, 0), (1, 1, 0), (1, 0, p), (1, -1, p - q)])
    r = minimize_nvol(s)
    # 9 q^2 (2p + s) / (p^2 (c + p s)), c = 3q^2 - 2p^2, times (c - p s) / (c - p s)
    d, c = 4 * p * p - 3 * q * q, 3 * q * q - 2 * p * p
    e = p * p * (c * c - p * p * d)
    a, b = F(9 * q * q * (2 * p * c - p * d), e), F(9 * q * q * (c - 2 * p * p), e)
    assert 0 < r.certificate_gap <= F(1, 10 ** 9)
    assert _at_most(a, b, d, r.nvol_value)
    assert _at_most(-a, -b, d, r.certificate_gap - r.nvol_value)  # nvol - gap <= a + b s


DOCS = Path(__file__).parent / "docs"


def _document(name):
    """The singularity and integer Reeb vector of a document under tests/docs."""
    doc = json.loads((DOCS / name).read_text())
    return from_rays(doc["rays"]), tuple(int(x) for x in doc["reeb"])


def test_canonical_cone_over_p1_to_the_fifth():
    # Rays (1, +-e_i): the canonical cone over (P^1)^5, whose anticanonical
    # polytope is the cube [-1, 1]^5.  A product of P^1's is Kaehler-Einstein,
    # so the minimal nvol is (-K)^5 = 5! Vol([-1, 1]^5) (Martelli-Sparks-Yau,
    # hep-th/0503183; Li-Liu-Xu) and delta_T = 1 at xi0 (Blum-Jonsson);
    # vol(xi0) = 6! Vol([-1, 1]^5) / 6^7, n! times the pyramid on that cube
    # at height 1/6.
    s, xi0 = _document("rank6_cross.json")
    r = minimize_nvol(s)
    assert r.nvol_value == 3840 == factorial(5) * 2 ** 5 and r.certificate_gap == 0
    assert delta_T(s, xi0)[0] == 1
    assert vol(s, xi0) == F(factorial(6) * 2 ** 5, 6 ** 7) == F(20, 243)


def test_canonical_cone_over_the_cube_fan():
    # Rays (1, v) for the vertices v of [-1, 1]^5: the canonical cone of the
    # toric Fano 5-fold whose anticanonical polytope is the cross-polytope,
    # of volume 2^5 / 5!.  That polytope is centrally symmetric, so its
    # barycenter is 0 and the variety is Kaehler-Einstein (Berman-Berndtsson,
    # "Real Monge-Ampere equations and Kaehler-Ricci solitons on toric log
    # Fano varieties", 2013): the minimal nvol is (-K)^5 = 2^5, and
    # delta_T = 1 at xi0.
    s, xi0 = _document("rank6_cube.json")
    r = minimize_nvol(s)
    assert r.nvol_value == 32 and r.certificate_gap == 0
    assert delta_T(s, xi0)[0] == 1


def _count_row_reductions(monkeypatch):
    """The list that every later ``_row_reduce`` call appends its row count to."""
    calls, kernel = [], linalg._row_reduce

    def counted(rows, ncols):
        calls.append(len(rows))
        return kernel(rows, ncols)

    for module in (cone, fan, linalg):
        monkeypatch.setattr(module, "_row_reduce", counted)
    return calls


@pytest.mark.parametrize("name", ["rank6_cross.json", "rank6_cube.json"])
def test_rank6_cone_takes_few_eliminations(monkeypatch, name):
    # The double description builds the cone from one elimination per
    # conversion; the subset scan of the 10 and 32 rays and of their 32 and
    # 10 normals made 201,631 row reductions in from_rays on either cone.
    calls = _count_row_reductions(monkeypatch)
    s, _ = _document(name)
    assert s.rank == 6 and 0 < len(calls) < 50


def test_rank7_volume_takes_one_elimination_per_simplex(monkeypatch):
    # The weight cone of the canonical cone over (P^1)^6 is the cone over
    # the 6-cube, whose pulling triangulation has 6! = 720 simplices.  The
    # triangulation reads the ray-facet incidences alone, so vol makes one
    # row reduction per simplex, for its |det|; the recursion that converted
    # every face afresh made 2,474.
    s, xi0 = _document("rank7_cross.json")
    fan.cone_fan.cache_clear()
    invariants._vol_cached.cache_clear()
    calls = _count_row_reductions(monkeypatch)
    assert vol(s, xi0) == F(factorial(7) * 2 ** 6, 7 ** 8)
    assert len(calls) == 720 == factorial(6)


# The canonical cone over a product of toric Fano manifolds has the rays
# (1, v) for the rays v of every factor's fan, each in its own coordinates.
# A product of Kaehler-Einstein ones is Kaehler-Einstein, so the minimal nvol
# is (-K)^d, the multinomial coefficient times the product of the factors'
# degrees (Martelli-Sparks-Yau, hep-th/0503183; Li-Liu-Xu), and delta_T = 1
# at xi0 = (n, 0, ..., 0) (Blum-Jonsson).
P1 = [(1,), (-1,)]
PRODUCTS = [
    ((P2, P2), 486),  # 4!/(2! 2!) 9 * 9
    ((DP3, DP3), 216),  # 4!/(2! 2!) 6 * 6
    ((P2, P2, P2), 65610),  # 6!/(2! 2! 2!) 9^3
    ((DP3, P2, P1, P1), 38880),  # 6!/(2! 2!) 6 * 9 * 2 * 2
    ((P1,) * 6, 46080),  # 6! 2^6
]


def _cone_over_product(factors):
    d = sum(len(f[0]) for f in factors)
    rays, before = [], 0
    for f in factors:
        k = len(f[0])
        rays += [(1, *(0,) * before, *v, *(0,) * (d - before - k)) for v in f]
        before += k
    return from_rays(rays)


@pytest.mark.parametrize("factors, value", PRODUCTS)
def test_kaehler_einstein_products(factors, value):
    s = _cone_over_product(factors)
    r = minimize_nvol(s)
    assert r.nvol_value == value and r.certificate_gap == 0
    assert delta_T(s, (s.rank,) + (0,) * (s.rank - 1))[0] == 1
