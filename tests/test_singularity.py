import random
from fractions import Fraction

import pytest

from conestab.errors import DegenerateCone, NotKlt, NotQGorenstein
from conestab.exactgeom import cone_from_halfspaces, cone_from_rays
from conestab.singularity import from_rays, log_discrepancy, reeb_contains, reeb_vector
from conftest import random_cone, random_reeb

F = Fraction


def test_from_rays_examples(c2, a1, half_boundary):
    assert c2.u == (1, 1)
    assert a1.u == (1, 0)
    assert half_boundary.u == (F(1, 2), 1)
    assert set(a1.weight_cone.rays) == {(0, 1), (2, -1)}


def test_coefficient_order_follows_input_rays():
    s = from_rays([(0, 1), (1, 0)], [F(1, 3), F(1, 2)])
    # coefficient 1/3 belongs to the ray (0,1) regardless of canonical order
    assert log_discrepancy(s, (0, 1)) == F(2, 3)
    assert log_discrepancy(s, (1, 0)) == F(1, 2)


def test_default_coefficients_cover_non_extreme_input_rays():
    # (1, 3) is not extreme, so sigma has two rays but the input has three.
    rays = [(1, 0), (1, 3), (2, -1)]
    s = from_rays(rays)
    assert s == from_rays(rays, ["0", "0", "0"])
    assert s.sigma.rays == ((1, 3), (2, -1))
    assert s.coefficients == (0, 0)


def test_not_klt_coefficient_one():
    with pytest.raises(NotKlt):
        from_rays([(1, 0), (0, 1)], [1, 0])


def test_not_q_gorenstein():
    # four rays of a quadric-like cone with incompatible coefficients
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    from_rays(rays)  # consistent with zero boundary
    with pytest.raises(NotQGorenstein):
        from_rays(rays, [F(1, 2), 0, 0, 0])


def test_degenerate_cone():
    with pytest.raises(DegenerateCone):
        from_rays([(1, 0), (2, 0)])


@pytest.mark.parametrize("vectors", [[(1, 0, 0), (0, 1)], [(2, 1), (1, 2), (1, 1, 1)]],
                         ids=["longer-first", "longer-last"])
def test_vectors_of_mixed_lengths_raise_degenerate_cone(vectors):
    # Before, the first list built C^2 (the third coordinate dropped) and
    # the second raised a bare IndexError.
    for build, what in [(from_rays, "rays"), (cone_from_rays, "rays"),
                        (cone_from_halfspaces, "halfspaces")]:
        with pytest.raises(DegenerateCone, match=f"^{what} of lengths 2 and 3$"):
            build(vectors)


def test_log_discrepancy_examples(c2, a1):
    assert log_discrepancy(c2, (1, 1)) == 2
    assert log_discrepancy(c2, (1, 2)) == 3
    assert log_discrepancy(a1, (1, 1)) == 1


def test_reeb_membership(c2, a1):
    assert reeb_contains(c2, (1, 1))
    assert not reeb_contains(c2, (1, 0))
    assert reeb_contains(a1, (1, 1))
    with pytest.raises(NotKlt):
        reeb_vector(c2, (1, 0))


def test_discrepancy_additive_and_homogeneous():
    rnd = random.Random(31)
    for _ in range(100):
        s = random_cone(rnd, rnd.choice([2, 3]))
        xi = random_reeb(rnd, s)
        eta = random_reeb(rnd, s)
        total = tuple(a + b for a, b in zip(xi, eta))
        assert log_discrepancy(s, total) == log_discrepancy(s, xi) + log_discrepancy(s, eta)
        c = F(rnd.randint(1, 9), rnd.randint(1, 4))
        assert log_discrepancy(s, tuple(c * x for x in xi)) == c * log_discrepancy(s, xi)
        # Reeb cone is closed under addition
        assert reeb_contains(s, total)
