"""Small exact linear algebra over the rationals.

Vectors are plain tuples of ``fractions.Fraction`` (or ints where the value
is integral).  One Gauss-Jordan pass, ``_row_reduce``, carries every
elimination: ``mat_rank`` counts its pivots, ``det`` reads its determinant
factor, ``solve`` reads the carried right-hand side and ``nullspace`` reads
the free columns.  Cone triangulation reuses its pivot columns as
coordinates on the span of a ray set.  Nothing here is sized for large
dimensions; the library targets rank <= 4 and these routines are written
for clarity and exactness, not asymptotics.  ``smith_diagonal`` is the one
integer elimination: lattice indices need it over ``int``, not ``Fraction``.
"""

from fractions import Fraction
from math import gcd

Vec = tuple  # tuple of Fraction/int


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.  Floats are
    rejected: exactness is a contract, not a preference."""
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction or 'p/q' string")
    return Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def vzero(n) -> Vec:
    return (Fraction(0),) * n


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def norm_sq(u) -> Fraction:
    return dot(u, u)


def primitivize(v):
    """Scale a rational vector to its primitive integer form.

    The result is an integer tuple with gcd 1 whose direction matches v.
    The zero vector maps to itself.
    """
    v = vec(v)
    if is_zero(v):
        return tuple(0 for _ in v)
    den = 1
    for a in v:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination of the rows over their first ``ncols`` columns.

    Columns past ``ncols`` (a right-hand side) are carried along.  Returns
    the reduced rows, the pivot columns in order and the determinant factor:
    the product of the pivots times the sign of the row swaps.  Each pivot
    row is scaled to a leading 1 and every other row is zero in the pivot
    columns, so the first len(pivots) rows are the reduced row echelon form.
    """
    m = [list(map(frac, r)) for r in rows]
    pivots = []
    factor = Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            factor = -factor
        pv = m[row][col]
        factor *= pv
        m[row] = [a / pv for a in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return m, pivots, factor


def mat_rank(rows) -> int:
    """Rank of a list of rational row vectors."""
    rows = list(rows)
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    _, pivots, factor = _row_reduce(rows, len(rows))
    return factor if len(pivots) == len(rows) else Fraction(0)


def solve(rows, rhs):
    """Solve the (possibly overdetermined) system rows * x = rhs exactly.

    Returns the unique solution as a tuple, or None when the system is
    inconsistent or underdetermined.
    """
    if not rows:
        return None
    n = len(rows[0])
    m, pivots, _ = _row_reduce([[*r, b] for r, b in zip(rows, rhs, strict=True)], n)
    if len(pivots) < n or any(r[n] != 0 for r in m[n:]):
        return None  # underdetermined or inconsistent
    return tuple(r[n] for r in m[:n])


def nullspace(rows, ncols):
    """Basis of the right nullspace of the given rows (rational vectors).

    One vector per free (non-pivot) column: 1 there, 0 at the other free
    columns.
    """
    m, pivots, _ = _row_reduce(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(m, pivots):
            v[pc] = -r[fc]
        basis.append(tuple(v))
    return basis


def smith_diagonal(rows) -> list:
    """Smith normal form diagonal of an integer matrix: min(#rows, #cols)
    non-negative invariant factors d_1 | d_2 | ..., 0 past the rank.

    Row and column elimination over ``int`` diagonalizes; pairwise gcd/lcm
    swaps then put the diagonal in divisibility order.
    """
    a = [[int(x) for x in r] for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    diag = []
    for t in range(min(m, n)):
        block = [(i, j) for i in range(t, m) for j in range(t, n)]
        while any(a[i][j] for i, j in block):
            # Pivot on the smallest entry, so every pass shrinks the remainders.
            _, i, j = min((abs(a[i][j]), i, j) for i, j in block if a[i][j])
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                for r in a:
                    r[j] -= q * r[t]
            if not any(a[i][t] for i in range(t + 1, m)) and not any(a[t][t + 1:]):
                break
        diag.append(abs(a[t][t]))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, (diag[i] * diag[j] // g if g else 0)
    return diag


def gram_project_out(v, direction):
    """Component of v orthogonal to ``direction`` (standard inner product)."""
    d2 = norm_sq(direction)
    if d2 == 0:
        return vec(v)
    c = dot(v, direction) / d2
    return vsub(vec(v), vscale(c, direction))
