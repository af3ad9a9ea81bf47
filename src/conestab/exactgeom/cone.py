"""Exact rational polyhedral cones: construction, duality, triangulation.

A cone is stored with both generators (primitive integer rays) and a
halfspace description (primitive integer covectors h with <h,x> >= 0), and
the two are cross-checked at construction time.  All cones handled here are
pointed and full-dimensional; the dual of such a cone is again of that kind,
and ``dual_cone`` is an involution on the class.  One double description,
``_facet_normals``, converts between the two: it starts from the
simplicial cone of the first n independent rows, off one elimination, and
cuts it by each other row (``_cut``).  The triangulation reads only the
ray-halfspace incidences (``_incidence``) that the conversion and cuts hold.
"""

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


def _facet_normals(rows, n):
    """The sorted extreme rays of {h : <r, h> >= 0 for every row r}, as
    primitive integer tuples; [] when the rows do not span R^n.

    This is the library's one conversion between generators and
    inequalities: on a cone's rays it gives the facet normals, on the
    normals the extreme rays (duality), and on the homogenized rows of a
    polyhedron its vertices (``enumerate_vertices``).  It is Motzkin's
    double description.  One elimination of the transposed integer rows,
    carried with I, picks the first n independent rows B (its pivot
    columns) and ends in d (B^-1)^T: its rows are the rays of the
    simplicial cone {B h >= 0}, each tight on every row of B but its own.
    Every other row then cuts that cone (``_cut``).
    """
    k = len(rows)
    eye = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    m, pivots, d, _ = _row_reduce([(*col, *e) for col, e in zip(zip(*rows), eye)], k)
    if len(pivots) < n:
        return []
    basis = sum(1 << p for p in pivots)
    rays = [(_primitive(row[k:], d), basis ^ (1 << p)) for row, p in zip(m, pivots)]
    for i, r in enumerate(rows):
        if not basis >> i & 1:
            rays = _cut(rays, r, 1 << i, n)
    return sorted(r for r, _ in rays)


def _cut(rays, h, bit, n):
    """One step of Motzkin's double description (K. Fukuda and A. Prodon,
    "Double description method revisited", LNCS 1120, 1996): the extreme
    rays, with the bitsets of their tight halfspaces, of a pointed cone cut
    by <h, .> >= 0.  Rays with <h, r> >= 0 stay (gaining ``bit`` at 0), and
    each adjacent (+, -) pair, which no other ray is tight on all that both
    are (at least n - 2), is joined into a primitive ray on <h, .> = 0."""
    signed = [(r, z, sum(map(mul, h, r))) for r, z in rays]
    out = [(r, z | bit if v == 0 else z) for r, z, v in signed if v >= 0]
    for p, zp, vp in signed:
        for q, zq, vq in signed:
            if vp > 0 > vq and (z := zp & zq).bit_count() >= n - 2 and not any(
                    z & zr == z for r, zr in rays if r is not p and r is not q):
                out.append((_primitive([vp * b - vq * a for a, b in zip(p, q)]), z | bit))
    return out


def _primitive(v, sign=1):
    """The nonzero integer vector v over the gcd of its entries, negated
    when sign < 0."""
    g = gcd(*v) if sign > 0 else -gcd(*v)
    return tuple(x // g for x in v)


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
    normals = _facet_normals(rays, n)
    extreme = _facet_normals(normals, n)
    if not extreme:  # the normals do not span: the rays do not, or the cone contains a line
        if len(_row_reduce(rays, n)[1]) < n:
            raise DegenerateCone("rays do not span the ambient space")
        raise DegenerateCone("cone is not pointed")
    cone = Cone(rank=n, rays=tuple(extreme), halfspaces=tuple(normals))
    _validate(cone)
    return cone


def cone_from_halfspaces(halfspaces) -> Cone:
    """Build a cone from covectors {x : <h,x> >= 0}; its rays are the facet
    normals of the cone the covectors span (duality), pointed iff they span."""
    hs, n = _distinct((primitivize(h) for h in halfspaces), "halfspaces")
    rays = _facet_normals(hs, n)
    if len(_row_reduce(rays, n)[1]) < n:
        pointed = len(_row_reduce(hs, n)[1]) == n
        raise DegenerateCone(f"halfspace cone is not {'full-dimensional' if pointed else 'pointed'}")
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


def _incidence(rays, halfspaces):
    """(r, bitset of the halfspaces tight on r) for each ray r: what
    ``_cut`` and ``_triangulate_rays`` read."""
    return [(r, sum(1 << k for k, h in enumerate(halfspaces) if not sum(map(mul, h, r))))
            for r in rays]


def _triangulate_rays(incidence, n):
    """The sorted simplices, each a sorted ray tuple, of the pulling
    triangulation of a cone spanning R^n, from its (ray, bitset of tight
    halfspaces) pairs: a k-face with k rays is a simplex, else the least ray
    is coned over the face's facets that miss it.  A face is the bitset of
    its rays, and its facets are the inclusion-maximal proper sets among its
    meets with the halfspaces (V. Kaibel and M. E. Pfetsch, Comput. Geom. 23,
    2002), so no face is eliminated or converted."""
    incidence = sorted(incidence)
    walls = {sum(1 << i for i, (_, z) in enumerate(incidence) if z >> k & 1)
             for k in range(max(z for _, z in incidence).bit_length())}

    def pull(face, walls, k):
        if face.bit_count() == k:
            return [face]
        apex = face & -face
        meets = {face & w for w in walls} - {face}
        return [apex | s for f in meets if not f & apex
                and not any(f != g and f & g == f for g in meets) for s in pull(f, meets, k - 1)]

    return sorted(tuple(r for i, (r, _) in enumerate(incidence) if s >> i & 1)
                  for s in pull((1 << len(incidence)) - 1, walls, n))
