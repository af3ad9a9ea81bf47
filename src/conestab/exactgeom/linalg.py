"""Small exact linear algebra over the rationals.

Vectors are plain tuples of ``fractions.Fraction`` (or ints where the value
is integral).  Nothing here is sized for large dimensions; the library
targets rank <= 4 and these routines are written for clarity and exactness,
not asymptotics.
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


def mat_rank(rows) -> int:
    """Rank of a list of rational row vectors (Gaussian elimination)."""
    m = [list(map(frac, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    m = [list(map(frac, r)) for r in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        pv = m[col][col]
        result *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return result


def solve(rows, rhs):
    """Solve the (possibly overdetermined) system rows * x = rhs exactly.

    Returns the unique solution as a tuple, or None when the system is
    inconsistent or underdetermined.
    """
    m = [list(map(frac, r)) + [frac(b)] for r, b in zip(rows, rhs, strict=True)]
    if not m:
        return None
    ncols = len(m[0]) - 1
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [a / pv for a in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for i in range(row, len(m)):
        if m[i][ncols] != 0:
            return None  # inconsistent
    if len(pivots) < ncols:
        return None  # underdetermined
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return tuple(x)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the given rows (rational vectors)."""
    m = [list(map(frac, r)) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [a / pv for a in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
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
