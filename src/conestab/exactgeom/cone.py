"""Exact rational polyhedral cones: construction, duality, triangulation.

A cone is stored with both generators (primitive integer rays) and a
halfspace description (primitive integer covectors h with <h,x> >= 0), and
the two are cross-checked at construction time.  All cones handled here are
pointed and full-dimensional; the dual of such a cone is again of that kind,
and ``dual_cone`` is an involution on the class.  On n rays the facet
normals are the columns of R^-1, off one elimination, else a facet scan.
"""

from itertools import combinations
from math import gcd
from operator import mul
from typing import NamedTuple

from ..errors import AmbientMismatch, DegenerateCone, NotFullDimensional
from .linalg import _row_reduce, dot, primitivize


class Cone(NamedTuple):
    """Pointed full-dimensional rational cone with both representations.

    rays:       primitive integer generators (V-representation)
    halfspaces: primitive integer covectors, cone = {x : <h,x> >= 0 for all h}
    """

    rank: int
    rays: tuple
    halfspaces: tuple

    def contains(self, x, strict=False) -> bool:
        if strict:
            return all(dot(h, x) > 0 for h in self.halfspaces)
        return all(dot(h, x) >= 0 for h in self.halfspaces)

    def interior_point(self):
        """Sum of the primitive rays, an integer tuple; interior for
        full-dimensional cones."""
        return tuple(map(sum, zip(*self.rays)))


def _of_length(v, n) -> tuple:
    """v as a tuple, refused with AmbientMismatch unless its length is n."""
    v = tuple(v)
    if len(v) != n:
        raise AmbientMismatch(f"vector of length {len(v)} on a rank-{n} cone")
    return v


def _facet_normals(rays, n):
    """Facet normals of cone(rays) in R^n by scanning (n-1)-subsets.

    This is the one general conversion between generators and inequalities
    (``_cone`` on n rays and ``fan._cut`` skip it): the same scan of a
    cone's facet normals gives its extreme rays (duality), and of the rows
    (a, b) of {x : <a,x> <= b} its vertices (``enumerate_vertices``).  The
    rays are integer vectors.  Each
    independent subset's kernel vector comes off the integer kernel as (d
    at the free column, minus the rest of that column), oriented so that
    its free entry is positive, and is dotted with the rays in integers; it
    is a normal, made primitive, when no ray pairs negatively with it, or
    with its negative (then negated).
    """
    normals = set()
    for sub in combinations(rays, n - 1):
        m, pivots, d, _ = _row_reduce(sub, n)
        if len(pivots) != n - 1:  # the n - 1 rays are dependent
            continue
        fc = n * (n - 1) // 2 - sum(pivots)  # the one column without a pivot
        s = 1 if d > 0 else -1
        h = [0] * n
        h[fc] = s * d
        for r, pc in zip(m, pivots):
            h[pc] = -s * r[fc]
        side = 0  # the first nonzero pairing; one of the other sign rejects h
        for r in rays:
            v = sum(map(mul, h, r))
            if v * side < 0:
                break
            if not side:
                side = v
        else:
            g = gcd(*h) if side >= 0 else -gcd(*h)
            normals.add(tuple(a // g for a in h))
    return sorted(normals)


def cone_from_rays(rays) -> Cone:
    """Build a validated cone from generators.

    Rays are primitivized and deduplicated, and only the extreme ones (the
    facet normals of the dual cone) are kept.  Raises DegenerateCone when
    the rays differ in length, do not span R^n or span a non-pointed cone.
    """
    return _cone(primitivize(r) for r in rays)


def _distinct(vectors, what):
    """(the distinct nonzero vectors, sorted, their length), else DegenerateCone."""
    vectors = set(vectors)
    lengths = sorted({len(v) for v in vectors})
    if len(lengths) > 1:
        raise DegenerateCone(f"{what} of lengths {lengths[0]} and {lengths[-1]}")
    vectors = sorted(v for v in vectors if any(v))
    if not vectors:
        raise DegenerateCone(f"no nonzero {what}")
    return vectors, len(vectors[0])


def _cone(rays) -> Cone:
    """``cone_from_rays`` on primitive integer rays."""
    rays, n = _distinct(rays, "rays")
    simplicial = len(rays) == n  # the normals are then the columns of R^-1
    m, pivots, d, _ = _row_reduce([(*r, *(int(i == k) for k in range(n)))
                                   for i, r in enumerate(rays)] if simplicial else rays, n)
    if len(pivots) < n:
        raise DegenerateCone("rays do not span the ambient space")
    if simplicial:  # [R | I] reduces to d [I | R^-1]
        normals = sorted(primitivize([row[k] * d for row in m]) for k in range(n, 2 * n))
    else:
        normals = _facet_normals(rays, n)
        if len(_row_reduce(normals, n)[1]) < n:
            # The normals span less than R^n exactly when the cone contains a line.
            raise DegenerateCone("cone is not pointed")
        rays = _facet_normals(normals, n)
    cone = Cone(rank=n, rays=tuple(rays), halfspaces=tuple(normals))
    _validate(cone)
    return cone


def cone_from_halfspaces(halfspaces) -> Cone:
    """Build a cone from covectors {x : <h,x> >= 0}; dual scan for rays."""
    hs, n = _distinct((primitivize(h) for h in halfspaces), "halfspaces")
    rays = _facet_normals(hs, n)  # duality: rays of C are facet normals of C^v
    if len(_row_reduce(rays, n)[1]) < n:
        raise DegenerateCone("halfspace cone is not full-dimensional")
    return _cone(rays)


def _validate(cone: Cone):
    for r in cone.rays:
        for h in cone.halfspaces:
            if sum(map(mul, h, r)) < 0:
                raise DegenerateCone("V/H cross-check failed")
    interior = cone.interior_point()
    if any(sum(map(mul, h, interior)) <= 0 for h in cone.halfspaces):
        raise NotFullDimensional("cone has empty interior")


def dual_cone(c: Cone) -> Cone:
    """Dual cone {a : <a,v> >= 0 for every v in c}.

    For pointed full-dimensional cones the dual swaps the two
    representations, sorted primitive integer tuples both, and applying it
    twice returns the original cone.
    """
    interior = c.interior_point()
    if any(sum(map(mul, h, interior)) <= 0 for h in c.halfspaces):
        raise NotFullDimensional("dual of a lower-dimensional cone is not pointed")
    return Cone(rank=c.rank, rays=c.halfspaces, halfspaces=c.rays)


def _triangulate_rays(rays):
    """Split cone(rays) into simplicial subcones on the same ray set.

    Works recursively on faces.  The apex is the lexicographically smallest
    ray, which makes the decomposition deterministic.  Facets are scanned in
    the pivot coordinates of the row-reduced rays: projecting onto the pivot
    columns is injective on the span of the rays, so it keeps every facet
    and tight set.
    """
    rays = sorted(rays)
    pivots = _row_reduce(rays, len(rays[0]))[1]
    if len(rays) == len(pivots):
        return [tuple(rays)]
    apex = rays[0]
    coords = {r: tuple(r[c] for c in pivots) for r in rays}
    simplices = []
    for h in _facet_normals(list(coords.values()), len(pivots)):
        tight = [r for r in rays if not sum(map(mul, h, coords[r]))]
        if apex in tight:
            continue
        for facet_simplex in _triangulate_rays(tight):
            simplices.append(tuple(sorted((apex,) + facet_simplex)))
    return simplices
