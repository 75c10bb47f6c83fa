"""Slow, independent re-computations that the test suite checks the library against.

Everything here is deliberately naive: Fourier-Motzkin projection for half-space
descriptions, parallelepiped grid scans for generator sets, a filtered walk of
the whole sigma-coordinate box, 90-degree rotations for two-dimensional dual
cones, and Gaussian elimination over `Fraction` for the few matrix inverses
involved.  None of it shares code with the library's double-description engine
or its lattice walker, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# A linear inequality over the first `dim` coordinates: (normal, rhs) encodes
# normal . x >= rhs.  Normals are primitive integer tuples, rhs is a Fraction.
Row = tuple[tuple[int, ...], Fraction]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _tidy(rows):
    """Drop trivial rows, reduce to primitive normals, keep the strongest rhs."""
    best: dict[tuple[int, ...], Fraction] = {}
    for coeffs, rhs in rows:
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        if g == 0:
            if rhs > 0:
                raise AssertionError("Fourier-Motzkin produced an infeasible system")
            continue
        normal = tuple(c // g for c in coeffs)
        reduced = Fraction(rhs, g)
        if best.get(normal, None) is None or reduced > best[normal]:
            best[normal] = reduced
    return [(n, b) for n, b in best.items()]


def _eliminate(rows, k):
    pos = [r for r in rows if r[0][k] > 0]
    neg = [r for r in rows if r[0][k] < 0]
    out = [r for r in rows if r[0][k] == 0]
    for ap, bp in pos:
        for an, bn in neg:
            fp, fn = -an[k], ap[k]
            out.append((tuple(fp * x + fn * y for x, y in zip(ap, an)), fp * bp + fn * bn))
    return _tidy(out)


def _project(rows, keep, total):
    """Fourier-Motzkin: eliminate coordinates keep..total-1, cheapest first."""
    remaining = set(range(keep, total))
    while remaining:
        k = min(
            remaining,
            key=lambda j: sum(r[0][j] > 0 for r in rows) * sum(r[0][j] < 0 for r in rows),
        )
        rows = _eliminate(rows, k)
        remaining.discard(k)
    return [(n[:keep], b) for n, b in rows if any(n[:keep])]


class FMRegion:
    """conv(points) + cone(rays), held as projected inequalities."""

    def __init__(self, dim: int, rows: list[Row]):
        self.dim = dim
        self.rows = rows

    def contains(self, x, strict: bool = False) -> bool:
        if strict:
            return all(dot(n, x) > b for n, b in self.rows)
        return all(dot(n, x) >= b for n, b in self.rows)

    def shifted_rows(self, shift) -> list[Row]:
        """Rows for testing x + shift against the region, applied to x alone."""
        return [(n, b - dot(n, shift)) for n, b in self.rows]


def hull_region(points, rays) -> FMRegion:
    """Half-space description of conv(points) + cone(rays), from scratch."""
    points = [tuple(p) for p in points]
    rays = [tuple(r) for r in rays]
    dim, m, k = len(points[0]), len(points), len(rays)
    total = dim + m + k
    rows = []
    for i in range(dim):
        # x_i - sum lam_p p_i - sum mu_r r_i = 0, as two inequalities.
        coeffs = [0] * total
        coeffs[i] = 1
        for j, p in enumerate(points):
            coeffs[dim + j] = -p[i]
        for j, r in enumerate(rays):
            coeffs[dim + m + j] = -r[i]
        rows.append((tuple(coeffs), Fraction(0)))
        rows.append((tuple(-c for c in coeffs), Fraction(0)))
    for j in range(m + k):
        coeffs = [0] * total
        coeffs[dim + j] = 1
        rows.append((tuple(coeffs), Fraction(0)))
    ones = [0] * total
    for j in range(m):
        ones[dim + j] = 1
    rows.append((tuple(ones), Fraction(1)))
    rows.append((tuple(-c for c in ones), Fraction(-1)))
    return FMRegion(dim, _project(_tidy(rows), dim, total))


def cone_region(rays) -> FMRegion:
    origin = (0,) * len(tuple(rays[0]))
    return FMRegion(len(origin), hull_region([origin], rays).rows)


def sigma_rays_2d(r1, r2):
    """Generators of the cone dual to cone(r1, r2), by rotating each ray."""

    def perp(r, other):
        cand = (-r[1], r[0])
        value = dot(cand, other)
        if value == 0:
            raise ValueError("rays are linearly dependent")
        return cand if value > 0 else (r[1], -r[0])

    return tuple(sorted((perp(r1, r2), perp(r2, r1))))


def inverse(mat):
    """Exact inverse of a small square matrix, by Gauss-Jordan over Fraction."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def box_points(sigma_rays, bounds):
    """All lattice points with 0 <= <w, s_i> <= bounds[i] for every sigma ray.

    Enumerates a parallelepiped superset built from d independent rays and an
    exact inverse, then filters by the full list of pairing constraints.
    """
    sigma_rays = [tuple(s) for s in sigma_rays]
    dim = len(sigma_rays[0])
    basis: list[tuple[int, ...]] = []
    basis_bounds: list[int] = []
    for s, b in zip(sigma_rays, bounds):
        if _rank(basis + [s]) > len(basis):
            basis.append(s)
            basis_bounds.append(b)
        if len(basis) == dim:
            break
    if len(basis) < dim:
        raise ValueError("sigma rays do not span the space")
    inv = inverse(basis)  # w = inv . t for the pairing vector t
    ranges = []
    for i in range(dim):
        lo = sum(min(Fraction(0), inv[i][j] * basis_bounds[j]) for j in range(dim))
        hi = sum(max(Fraction(0), inv[i][j] * basis_bounds[j]) for j in range(dim))
        ranges.append(range(math.floor(lo), math.ceil(hi) + 1))
    out = []
    for w in itertools.product(*ranges):
        if all(0 <= dot(w, s) <= b for s, b in zip(sigma_rays, bounds)):
            out.append(w)
    return out


def sigma_box_walk(sigma_rays, bounds):
    """(w, t) for every lattice w whose pairing vector t = (<w, s_i>) lies in the box.

    Simplicial sigma only. Walks every integer t with 0 <= t_i <= bounds[i] in
    lexicographic order and keeps those whose exact preimage w = S^-1 t is
    integral -- the filtered box walk that lattice enumeration must reproduce
    point for point.
    """
    inv = inverse(sigma_rays)
    out = []
    for t in itertools.product(*(range(b + 1) for b in bounds)):
        w = [sum(row[j] * t[j] for j in range(len(t))) for row in inv]
        if all(c.denominator == 1 for c in w):
            out.append((tuple(int(c) for c in w), t))
    return out


def det(mat):
    """Determinant by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    )


def _rank(vectors):
    if not vectors:
        return 0
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = rows[rank][col]
        rows[rank] = [v / scale for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def minimal_points(points, sigma_rays):
    """Minimal elements under semigroup divisibility (w - g in the dual cone)."""

    def divides(g, w):
        return all(dot(vsub(w, g), s) >= 0 for s in sigma_rays)

    ordered = sorted(points, key=lambda w: (sum(dot(w, s) for s in sigma_rays), w))
    minimal: list[tuple[int, ...]] = []
    for w in ordered:
        if not any(divides(m, w) for m in minimal):
            minimal.append(w)
    return tuple(sorted(minimal))


def closure_scan(gens, dual_rays, sigma_rays):
    """Minimal generators of the integral closure, by grid scan.

    The scan box bound per sigma ray is the largest generator pairing plus the
    sum of all dual-ray pairings: any point beyond that has some coefficient
    above 1 in every cone decomposition, so a dual ray can be peeled off while
    staying inside the Newton region -- minimal generators never live there.
    """
    region = hull_region(gens, dual_rays)
    bounds = [
        max(dot(g, s) for g in gens) + sum(dot(r, s) for r in dual_rays)
        for s in sigma_rays
    ]
    hits = [w for w in box_points(sigma_rays, bounds) if region.contains(w)]
    return minimal_points(hits, sigma_rays)


def multiplier_scan(gens, dual_rays, sigma_rays, shift):
    """Minimal generators of {w : w + shift strictly inside N(gens)}, by scan."""
    region = hull_region(gens, dual_rays)
    rows = region.shifted_rows(shift)
    bounds = [
        max(dot(g, s) for g in gens) + sum(dot(r, s) for r in dual_rays) + math.ceil(dot(shift, s))
        for s in sigma_rays
    ]
    hits = [w for w in box_points(sigma_rays, bounds) if all(dot(n, w) > b for n, b in rows)]
    return minimal_points(hits, sigma_rays)
