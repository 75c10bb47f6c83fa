"""Fraction-free elimination against the Fraction and cofactor oracles."""

import random
from fractions import Fraction

import pytest

from oracles import _rank, det

from toricmult.linalg import adjugate_int, dot, independent_rows, invert, kernel_basis, primitivize, rank


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n, scale=1):
    return [[scale * int(i == j) for j in range(n)] for i in range(n)]


def random_matrix(rng, rows, cols):
    """Entries in [-4, 4], about half of them zero. Every third matrix is a
    product through a narrower inner dimension, so rank-deficient whenever
    it has more than one row and column."""
    def entries(m, n):
        return [[rng.choice((0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(m)]

    if rng.random() < 1 / 3:
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        return matmul(entries(rows, inner), entries(inner, cols))
    return entries(rows, cols)


def matrices(seed, count=400, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        yield random_matrix(rng, rows, cols)


def greedy_basis(rows):
    basis = []
    for i, row in enumerate(rows):
        if _rank([rows[j] for j in basis] + [row]) > len(basis):
            basis.append(i)
    return basis


def test_rank_matches_the_oracle():
    for a in matrices(1):
        assert rank(a) == _rank(a)


def test_rank_takes_fraction_rows():
    rng = random.Random(2)
    for a in matrices(3):
        # one factor per row keeps the rank; entries still get mixed denominators
        factors = [Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 12)) for _ in a]
        scaled = [[x * f for x in row] for row, f in zip(a, factors)]
        assert rank(scaled) == _rank(scaled) == _rank(a)


def test_mixed_rows_match_the_fraction_route():
    # int entries are read as they are; converting every entry to a Fraction
    # first must change nothing
    rng = random.Random(7)
    for a in matrices(8):
        mixed = [[rng.choice((x, Fraction(x * rng.randint(1, 5), rng.randint(1, 6)))) for x in row] for row in a]
        fractions = [[Fraction(x) for x in row] for row in mixed]
        assert rank(mixed) == rank(fractions)
        assert kernel_basis(mixed) == kernel_basis(fractions)
        for row, as_fractions in zip(mixed, fractions):
            if any(row):
                assert primitivize(row) == primitivize(as_fractions)
                assert all(type(c) is int for c in primitivize(row))


def test_kernel_basis_spans_the_kernel_with_unit_free_columns():
    for a in matrices(4):
        basis = kernel_basis(a)
        ncols = len(a[0])
        assert len(basis) == ncols - _rank(a)
        for x in basis:
            assert all(isinstance(c, Fraction) for c in x)
            assert all(sum(r * c for r, c in zip(row, x)) == 0 for row in a)
        # each vector owns a free column f: x[f] = 1 there, 0 in the others
        free = [next(f for f in range(ncols) if x[f] == 1 and all(y[f] == 0 for y in basis if y is not x))
                for x in basis]
        assert len(set(free)) == len(basis)


def test_adjugate_and_inverse_on_square_matrices():
    nonsingular = 0
    for a in matrices(5, square=True):
        n = len(a)
        d = det(a)
        if d == 0:
            with pytest.raises(ValueError):
                adjugate_int(a)
            with pytest.raises(ValueError):
                invert(a)
            continue
        nonsingular += 1
        det_a, adj = adjugate_int(a)
        assert det_a == d
        assert all(isinstance(c, int) for row in adj for c in row)
        assert matmul(adj, a) == identity(n, d)
        assert matmul(invert(a), a) == identity(n)
    assert nonsingular >= 100


def test_independent_rows_is_the_greedy_basis():
    for a in matrices(6):
        assert independent_rows(a) == greedy_basis(a)


def test_degenerate_shapes():
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0
    assert independent_rows([(0, 0), (0, 0)]) == []
    assert kernel_basis([(0, 0)]) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        adjugate_int([(1, 2), (2, 4)])


def test_dot_equals_the_generator_form():
    # map truncates to the shorter input exactly as zip does
    def generator_dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rng = random.Random(29)
    cases = [((), ()), ((), (1, 2)), ((3,), ()), ((1, 2, 3), (4, 5)), ((7,), (-2, 9, 9))]
    for _ in range(300):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        cases.append(([rng.randint(-9, 9) for _ in range(n)], [rng.randint(-9, 9) for _ in range(m)]))
        cases.append((
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)],
            [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))) for _ in range(m)],
        ))
    for u, v in cases:
        got, want = dot(u, v), generator_dot(u, v)
        assert got == want and type(got) is type(want), (u, v)
    assert type(dot((), ())) is int
