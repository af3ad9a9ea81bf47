"""Small exact linear algebra over the rationals, computed on integers.

Cone rays and halfspaces are primitive integer tuples.  Rational vectors
(a Reeb vector, the discrepancy covector u, filtration covectors) are
returned as tuples of ``fractions.Fraction``, which ``vec`` and ``frac``
make, parsing each distinct 'p/q' string once; cache keys and kernels
read their integer forms, made once where the vector enters: a row v
becomes (L v as ints, L), L the lcm of its denominators
(``_integer_row``), and a list of covectors shares one denominator
(``_integer_covectors``).  A Fraction is built only for a value a kernel
returns.  ``dot`` is the one Fraction-valued pairing: it sums integer
numerators over a running denominator and builds one Fraction.

One fraction-free Gauss-Jordan pass, ``_row_reduce``, carries every
elimination (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): it takes
integer rows, every update divides exactly by the previous pivot, and at
the end every pivot entry holds the same integer d, so the reduced row
echelon form is the integer rows over d.  The rational entry points scale
each row once to integers first: ``mat_rank`` counts the pivots, ``det``
reads d over the row scales, ``solve`` and ``nullspace`` read the carried
right-hand side and the free columns over d.  The H/V conversion (which
also enumerates vertices) and the |det| of each simplex of a fan hold
integer rows already and call the kernel directly; the triangulation
itself reads incidences and eliminates nothing.  These routines favour
clarity and exactness over asymptotics.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

Vec = tuple  # tuple of Fraction/int

_PARSED_STRINGS = 4096  # distinct 'p/q' strings kept parsed
_REFUSING_BOOL = "refusing bool; pass ints, Fractions or 'p/q' strings"


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.  Floats and
    bools are rejected: exactness is a contract, not a preference."""
    if type(x) is Fraction:
        return x
    if type(x) is str:
        return _parse(x)
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction or 'p/q' string")
    if type(x) is bool:
        raise TypeError(_REFUSING_BOOL)
    return Fraction(x)


@lru_cache(maxsize=_PARSED_STRINGS)
def _parse(text) -> Fraction:
    return Fraction(text)


def vec(xs) -> Vec:
    return tuple(map(frac, xs))


def dot(u, v) -> Fraction:
    """<u, v> for vectors of ints and Fractions, as one Fraction.

    The terms are summed as an integer numerator over a running
    denominator; integral terms add without rescaling.
    """
    num, den = 0, 1
    try:
        for a, b in zip(u, v, strict=True):
            d = a.denominator * b.denominator
            if d == 1:
                num += a.numerator * b.numerator * den
            else:
                num = num * d + a.numerator * b.numerator * den
                den *= d
    except AttributeError:
        bad = b if hasattr(a, "denominator") else a
        raise TypeError(f"refusing {type(bad).__name__} {bad!r}; "
                        "pass ints or Fractions") from None
    return Fraction(num, den)


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vzero(n) -> Vec:
    return (Fraction(0),) * n


def norm_sq(u) -> Fraction:
    return dot(u, u)


def _integer_row(v):
    """(L*v as a list of ints, L) with L > 0 the lcm of the denominators of v.

    Entries may be ints, Fractions or 'p/q' strings; floats and bools are
    refused as in ``frac``.
    """
    if bool in map(type, v):
        raise TypeError(_REFUSING_BOOL)
    try:
        L = lcm(*[x.denominator for x in v])
    except AttributeError:  # strings, or floats for frac to refuse
        v = vec(v)
        L = lcm(*[x.denominator for x in v])
    return [x.numerator * (L // x.denominator) for x in v], L


def _integer_covectors(covectors):
    """(zs, den): the covectors times den, the lcm of all their
    denominators, as int tuples, so that covectors[j] = zs[j] / den."""
    n = len(covectors[0])
    flat, den = _integer_row([x for z in covectors for x in z])
    return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), den


def primitivize(v):
    """Scale a rational vector to its primitive integer form.

    The result is an integer tuple with gcd 1 whose direction matches v.
    The zero vector maps to itself.
    """
    ints, _ = _integer_row(tuple(v))
    g = gcd(*ints) or 1
    return tuple(a // g for a in ints)


def _integer_rows(rows):
    """(integer rows, scale): each rational row times the lcm of its
    denominators, and the product of those lcms."""
    pairs = [_integer_row(r) for r in rows]
    return [ints for ints, _ in pairs], prod(L for _, L in pairs)


def _row_reduce(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over the first ``ncols`` columns.

    The rows hold ints; columns past ``ncols`` (a right-hand side) are
    carried along.  At a pivot p in row r, every other row i becomes
    (p * row_i - row_i[col] * row_r) // prev, prev being the previous pivot
    (1 at first); the division is exact (Sylvester's identity), and rows
    with a zero in the pivot column must be rescaled too for it to stay
    exact.

    Returns (m, pivots, d, sign): the integer rows, the pivot columns in
    order, the common value d of every pivot entry, and the sign of the row
    swaps.  The first len(pivots) rows over d are the reduced row echelon
    form; sign * d is the determinant of a square nonsingular input.
    """
    m = list(rows)
    sign = 1
    pivots = []
    d = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        top = m[row]
        p = top[col]
        for i, r in enumerate(m):
            if i != row:
                f = r[col]
                m[i] = [(a * p - f * b) // d for a, b in zip(r, top)]
        d = p
        pivots.append(col)
    return m, pivots, d, sign


def mat_rank(rows) -> int:
    """Rank of a list of rational row vectors."""
    rows = _integer_rows(rows)[0]
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    rows, scale = _integer_rows(rows)
    _, pivots, d, sign = _row_reduce(rows, len(rows))
    return Fraction(sign * d, scale) if len(pivots) == len(rows) else Fraction(0)


def solve(rows, rhs):
    """Solve the (possibly overdetermined) system rows * x = rhs exactly.

    Returns the unique solution as a tuple, or None when the system is
    inconsistent or underdetermined.
    """
    if not rows:
        return None
    x = _solve_rows(_integer_rows([*r, b] for r, b in zip(rows, rhs, strict=True))[0],
                    len(rows[0]))
    return None if x is None else tuple(Fraction(a, x[1]) for a in x[0])


def _solve_rows(m, n):
    """``solve`` on the equations as integer rows (a, b): the solution as
    (ints, den), den > 0 the lcm of its denominators, or None."""
    m, pivots, d, _ = _row_reduce(m, n)
    if len(pivots) < n or any(r[n] for r in m[n:]):
        return None  # underdetermined or inconsistent
    g = gcd(d, *(row := [r[n] for r in m[:n]])) * (1 if d > 0 else -1)
    return tuple(a // g for a in row), d // g


def nullspace(rows, ncols):
    """Basis of the right nullspace of the given rows (rational vectors).

    One vector per free (non-pivot) column: 1 there, 0 at the other free
    columns.
    """
    m, pivots, d, _ = _row_reduce(_integer_rows(rows)[0], ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(m, pivots):
            v[pc] = Fraction(-r[fc], d)
        basis.append(tuple(v))
    return basis


def gram_project_out(v, direction):
    """Component of v orthogonal to ``direction`` (standard inner product)."""
    d2 = norm_sq(direction)
    if d2 == 0:
        return vec(v)
    c = dot(v, direction) / d2
    return vsub(vec(v), tuple(c * a for a in direction))
