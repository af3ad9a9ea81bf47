"""Exact polytopes, volumes, barycenters and piecewise-linear integration.

Bounded polytopes are triangulated by homogenizing to a pointed cone one
dimension up and reusing the cone triangulation; tie-breaking is
lexicographic throughout, so volumes, barycenters and integrals are
reproducible bit for bit.  The library's slice integrals come from the
simplicial fan of the weight cone (``fan.py``); ``volume``, ``barycenter``,
``second_moment`` and ``integrate_pl`` triangulate each slice afresh and
stay as the direct reference for that kernel.
"""

from fractions import Fraction
from math import factorial
from operator import mul
from typing import NamedTuple

from ..errors import Unbounded, UnboundedSlice, ZeroVolume
from .cone import Cone, _facet_normals, _incidence, _of_length, _triangulate_rays
from .linalg import _integer_row, det, dot, frac, primitivize, vec, vzero


class Polytope(NamedTuple):
    """Convex rational polyhedron with explicit V- and H-representations.

    vertices:       tuple of rational points
    recession_rays: tuple of primitive integer rays (empty iff bounded)
    halfspaces:     tuple of (covector a, offset b) meaning <a,x> <= b
    """

    dim: int
    vertices: tuple
    recession_rays: tuple
    halfspaces: tuple

    @property
    def bounded(self) -> bool:
        return not self.recession_rays

    def contains(self, x) -> bool:
        return all(dot(a, x) <= b for a, b in self.halfspaces)


def slice_vertices(rays, xi, level=1):
    """The rays of a cone, in order, each scaled onto <xi, .> = level.

    These are the vertices of the slice {x in cone(rays) : <xi, x> = level},
    which is bounded exactly when <xi, r> > 0 on every ray r; otherwise
    UnboundedSlice.  Callers pass ``c.rays`` for a Cone c, or the rays of
    one chamber (``fan.chambers``).
    """
    xi = vec(xi)
    level = frac(level)
    pairings = [dot(xi, r) for r in rays]
    if any(p <= 0 for p in pairings):
        raise UnboundedSlice("slicing covector vanishes on a ray")
    # x * level / p as one Fraction(int, int): cheaper than two Fraction operations
    scales = [(level.numerator * p.denominator, level.denominator * p.numerator)
              for p in pairings]
    return tuple(tuple(Fraction(x * a, b) for x in r) for r, (a, b) in zip(rays, scales))


def _slice_extreme(groups, x, largest):
    """The largest (or least) <z, r> / <x, r> over groups (zs, rays) of
    integer rows: the extreme of <z, .> at the points ``slice_vertices``
    makes of the rays, compared by cross-multiplication.

    Returns (num, den, first, count): the value num / den (den > 0), the
    position of the first (z, r) pair that attains it (rays outer,
    covectors inner) and how many do.  Raises the UnboundedSlice of
    ``slice_vertices`` when <x, r> <= 0 on a ray.
    """
    best, bden, first, count, i = None, 1, 0, 0, 0
    for zs, rays in groups:
        for r in rays:
            p = sum(map(mul, x, r))
            if p <= 0:
                raise UnboundedSlice("slicing covector vanishes on a ray")
            for z in zs:
                v = sum(map(mul, z, r))
                c = None if best is None else v * bden - best * p
                if c == 0:
                    count += 1
                elif c is None or (c > 0) == largest:
                    best, bden, first, count = v, p, i, 1
                i += 1
    return best, bden, first, count


def slice_polytope(c: Cone, xi, level) -> Polytope:
    """Cut a cone by <x, xi> <= level.

    Requires <xi, r> > 0 on every ray of c, which makes the slice bounded.
    Vertices are the apex followed by ``slice_vertices``.
    """
    xi = vec(xi)
    level = frac(level)
    verts = (vzero(c.rank),) + slice_vertices(c.rays, xi, level)
    hs = tuple((tuple(-x for x in h), Fraction(0)) for h in c.halfspaces) + ((xi, level),)
    return Polytope(dim=c.rank, vertices=verts, recession_rays=(), halfspaces=hs)


def enumerate_vertices(halfspaces, dim):
    """All vertices of {x : <a,x> <= b}, sorted; the region may be unbounded.

    Each halfspace is scaled once to an integer row (a, b); a covector of
    another length than ``dim`` raises AmbientMismatch.  With the row
    t >= 0 these rows cut out, in R^(dim+1), the homogenization of the
    region: the vectors (y, t) with <a,y> + b t >= 0 on every row, at
    x = -y / t.  Its extreme rays (``_facet_normals``) with t > 0 give the
    vertices -y / t, and those with t = 0 recession directions, which are
    dropped.  The rows span R^(dim+1) unless the region contains a line,
    and then it has no vertex.  Only vertices become Fractions.
    """
    rows = [_integer_row((*_of_length(a, dim), b))[0] for a, b in halfspaces]
    rows.append((0,) * dim + (1,))
    return sorted(tuple(Fraction(-y, h[dim]) for y in h[:dim])
                  for h in _facet_normals(rows, dim + 1) if h[dim] > 0)


def triangulate(p: Polytope):
    """Split a bounded polytope into simplices on its own vertex set.

    Homogenizes to a cone at height one and triangulates that cone; the
    height-one cross-sections of the simplicial subcones tile the polytope.
    """
    if not p.bounded:
        raise Unbounded("cannot triangulate an unbounded polyhedron")
    prim = {primitivize(tuple(v) + (Fraction(1),)): v for v in p.vertices}
    normals = _facet_normals(list(prim), p.dim + 1)
    if not normals:
        return []  # lower-dimensional: nothing of full measure to triangulate
    return [tuple(prim[r] for r in simplex)
            for simplex in _triangulate_rays(_incidence(prim, normals), p.dim + 1)]


def _simplex_volume(verts):
    v0 = verts[0]
    edges = [[x - y for x, y in zip(v, v0)] for v in verts[1:]]
    return abs(det(edges)) / factorial(len(edges))


def volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume of a bounded polytope (0 if degenerate)."""
    if not p.bounded:
        raise Unbounded("volume of an unbounded polyhedron")
    return sum(map(_simplex_volume, triangulate(p)), Fraction(0))


def barycenter(p: Polytope):
    """Volume-weighted centroid; requires positive volume."""
    if not p.bounded:
        raise Unbounded("barycenter of an unbounded polyhedron")
    total = Fraction(0)
    acc = list(vzero(p.dim))
    for s in triangulate(p):
        w = _simplex_volume(s)
        centroid = [sum(v[i] for v in s) / (p.dim + 1) for i in range(p.dim)]
        total += w
        acc = [a + w * c for a, c in zip(acc, centroid)]
    if total == 0:
        raise ZeroVolume("degenerate polytope has no barycenter")
    return tuple(a / total for a in acc)


def second_moment(p: Polytope):
    """Matrix of integrals int_p x_i x_j dx, exact.

    For a simplex with vertices v_0..v_n the moment matrix is
    vol/((n+1)(n+2)) * (sum_k v_k v_k^T + (sum_k v_k)(sum_k v_k)^T).
    """
    n = p.dim
    M = [[Fraction(0)] * n for _ in range(n)]
    for s in triangulate(p):
        w = _simplex_volume(s)
        total = [sum(v[i] for v in s) for i in range(n)]
        scale = w / ((n + 1) * (n + 2))
        for i in range(n):
            for j in range(n):
                acc = sum(v[i] * v[j] for v in s) + total[i] * total[j]
                M[i][j] += scale * acc
    return tuple(tuple(row) for row in M)


class PLConcave(NamedTuple):
    """Min of finitely many linear forms: g(x) = min_j <rows[j], x> / den.

    rows are int tuples and den > 0 an int.  Positively homogeneous,
    concave and superadditive wherever all rows are nonnegative together;
    the reduction to irredundant rows, sorted, with gcd(den, every entry)
    = 1, happens against a reference cone in the filtration layer.
    """

    rows: tuple
    den: int

    @property
    def covectors(self):
        """The linear forms rows[j] / den as Fraction tuples."""
        return tuple(tuple(Fraction(a, self.den) for a in z) for z in self.rows)

    def value(self, x) -> Fraction:
        x = _of_length(x, len(self.rows[0]))
        return min(dot(z, x) for z in self.rows) / self.den


def integrate_pl(p: Polytope, g: PLConcave) -> Fraction:
    """Exact integral of g over a bounded polytope.

    Splits p along the hyperplanes where two covectors tie, leaving chambers
    on which a single covector is the minimum, then integrates that linear
    form simplex by simplex (vol * value at centroid).
    """
    if not p.bounded:
        raise Unbounded("integral over an unbounded polyhedron")
    covs = []
    for z in g.covectors:  # duplicates would make chambers overlap fully
        if z not in covs:
            covs.append(z)
    total = Fraction(0)
    for j, zj in enumerate(covs):
        hs = list(p.halfspaces)
        for i, zi in enumerate(covs):
            if i == j:
                continue
            # chamber where zj is minimal: <zj - zi, x> <= 0
            hs.append((tuple(a - b for a, b in zip(zj, zi)), Fraction(0)))
        chamber = Polytope(dim=p.dim, vertices=tuple(enumerate_vertices(hs, p.dim)),
                           recession_rays=(), halfspaces=tuple(hs))
        for s in triangulate(chamber):  # none when the chamber is lower-dimensional
            w = _simplex_volume(s)
            centroid = [sum(v[i] for v in s) / (p.dim + 1) for i in range(p.dim)]
            total += w * dot(zj, centroid)
    return total
