"""Exact rational linear algebra on tuples of ints and Fractions.

Everything here is small and dense; matrices are tuples of row tuples. All
arithmetic is exact (Python ints and fractions.Fraction), no tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple  # tuple of int or Fraction


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def primitivize(u: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on the same ray.

    The direction is preserved (never negated). Raises on the zero vector.
    """
    fracs = [Fraction(a) for a in u]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
    return tuple(a // g for a in ints)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix given as a sequence of rows, by fraction-free elimination."""
    m = [[Fraction(a) for a in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve A x = b exactly. Returns one solution, or None if inconsistent.

    If the system is underdetermined the free variables are set to zero.
    """
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return tuple(x)


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0}, exact."""
    m = [[Fraction(a) for a in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -m[i][f]
        basis.append(tuple(vec))
    return basis


def invert(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix. Raises ValueError if singular."""
    n = len(rows)
    m = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def adjugate_int(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and adjugate of an integer matrix, so inv = adj / det exactly.

    Returns (det, adj) with adj @ A = det * I.
    """
    n = len(rows)
    inv = invert(rows)
    det_f = _det(rows)
    assert det_f.denominator == 1
    det_num = det_f.numerator
    adj_entries = [[inv[i][j] * det_num for j in range(n)] for i in range(n)]
    assert all(e.denominator == 1 for row in adj_entries for e in row)
    adj = tuple(tuple(e.numerator for e in row) for row in adj_entries)
    return det_num, adj


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Lower-triangular column Hermite normal form of a nonsingular integer matrix.

    Returns (H, U) with rows @ U = H, U unimodular, H lower triangular with a
    positive diagonal and 0 <= H[i][j] < H[i][i] for j < i; so H and rows
    have the same column lattice. H comes from integer column operations
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2), and U
    from U = rows^-1 @ H = adj @ H / det, a division that must be exact.
    """
    n = len(rows)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
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
    det, adj = adjugate_int(rows)
    unimodular = []
    for i in range(n):
        row = []
        for j in range(n):
            q, r = divmod(sum(adj[i][k] * hnf[k][j] for k in range(n)), det)
            assert r == 0, "rows^-1 @ H must be integral"
            row.append(q)
        unimodular.append(tuple(row))
    return hnf, tuple(unimodular)


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


def _det(rows: Sequence[Sequence]) -> Fraction:
    m = [[Fraction(a) for a in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det
