"""Exact linear algebra on small dense integer matrices, given as sequences of row tuples.

rank, independent_rows, kernel_basis, invert and adjugate_int read their
answer off one fraction-free elimination (_echelon); hermite_normal_form
works by integer column operations, and in closed form on a 2x2 matrix.
No floats and no tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(add, u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(sub, u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def primitivize(u: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on the same ray.

    The direction is preserved (never negated). Raises on the zero vector.
    """
    ints, _ = _scaled(u)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


def _scaled(u: Sequence) -> tuple[Sequence[int], int]:
    """(u D, D) for D the lcm of u's denominators: integers on the same ray.

    int and Fraction entries both carry numerator and denominator, so mixed
    rows are read as they are, without converting each entry to a Fraction.
    """
    if all(map(isinstance, u, repeat(int))):
        return u, 1
    den = lcm(*(a.denominator for a in u))
    return [a.numerator * (den // a.denominator) for a in u], den


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Returns (m, pivots, sign). Each step replaces every other row by
    (p * row - row[col] * top) / prev, with top the pivot's row, p the new
    pivot and prev the one before it (1 at first). Every entry stays a minor
    of the input (Sylvester's identity), so each division is exact. At the
    end row i < rank holds d on column pivots[i] and d times the reduced row
    echelon form elsewhere, where d is the last pivot; the other rows are
    zero. sign is the parity of the row swaps, so a nonsingular square matrix
    has det = sign * d.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(col)
        prev = p
    return m, pivots, sign


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix given as a sequence of int or Fraction rows."""
    return len(_echelon([_scaled(row)[0] for row in rows])[1])


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the greedy basis: each row not in the span of those before it."""
    return _echelon(list(zip(*rows)))[1]


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0} of int or Fraction rows, as Fraction vectors.

    One vector per free column f, with x[f] = 1 and the pivot entries read
    from the reduced rows.
    """
    m, pivots, _ = _echelon([_scaled(row)[0] for row in rows])
    ncols = len(m[0]) if m else 0
    d = m[0][pivots[0]] if pivots else 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = Fraction(-m[i][f], d)
        basis.append(tuple(vec))
    return basis


def invert(rows: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse adj / det of a square integer matrix. Raises ValueError if singular."""
    det, adj = adjugate_int(rows)
    return tuple(tuple(Fraction(a, det) for a in row) for row in adj)


def adjugate_int(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and adjugate of an integer matrix, so inv = adj / det exactly.

    Returns (det, adj) with adj @ A = det * I. Eliminating [A | I] leaves
    [d I | d A^-1] with d = sign * det(A). Raises ValueError if singular.
    """
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    m, pivots, sign = _echelon([list(row) + unit for row, unit in zip(rows, eye)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return sign * m[0][0], tuple(tuple(sign * a for a in row[n:]) for row in m)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Lower-triangular column Hermite normal form of a nonsingular integer matrix.

    Returns (H, U) with rows @ U = H, U unimodular, H lower triangular with a
    positive diagonal and 0 <= H[i][j] < H[i][i] for j < i; so H and rows
    have the same column lattice. H comes from integer column operations
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2), and U
    from the same operations applied to the identity. Both are unique for a
    nonsingular input, so a 2x2 matrix ((a, b), (c, d)), the Hermite data of
    every plane ring, takes them off one _xgcd of its first row instead:
    g = x a + y b, so U's columns (x, y) and (-b/g, a/g) take the row to
    (g, 0); h11 is made positive, and h10 reduced mod h11 by the second column.
    """
    n = len(rows)
    if n == 2:
        return _hermite_2x2(rows)
    # column j of the working matrix stacked on column j of U
    cols = [[rows[i][j] for i in range(n)] + [int(i == j) for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cols[i][i], cols[j][i]
            if b == 0:
                continue
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            ci, cj = cols[i], cols[j]
            cols[i] = [x * u + y * v for u, v in zip(ci, cj)]
            cols[j] = [p * v - q * u for u, v in zip(ci, cj)]
        if cols[i][i] < 0:
            cols[i] = [-u for u in cols[i]]
        if cols[i][i] == 0:
            raise ValueError("matrix is singular")
        for j in range(i):
            f = cols[j][i] // cols[i][i]
            if f:
                cols[j] = [u - f * v for u, v in zip(cols[j], cols[i])]
    hnf = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    unimodular = tuple(tuple(cols[j][n + i] for j in range(n)) for i in range(n))
    return hnf, unimodular


def _hermite_2x2(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """hermite_normal_form of a 2x2 matrix, in closed form."""
    (a, b), (c, d) = rows
    g, x, y = _xgcd(a, b)
    if not g:
        raise ValueError("matrix is singular")
    p, q = a // g, b // g
    h10, h11 = c * x + d * y, d * p - c * q
    if h11 < 0:
        h11, p, q = -h11, -p, -q
    if not h11:
        raise ValueError("matrix is singular")
    f = h10 // h11
    return ((g, 0), (h10 - f * h11, h11)), ((x + f * q, -q), (y - f * p, p))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0

