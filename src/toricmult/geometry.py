"""Exact convex geometry: rational cones, Newton polyhedra, certificates.

V-representations (generating points and rays) are converted to
H-representations (facet halfspaces) with the double description method on
primitive integer rays, so every facet normal and offset is an integer.
Fractions enter only with rational points such as w + u0 and convex
certificates. All arithmetic is exact; no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotFullDimensional, NotInterior, NotPointed
from .linalg import dot, independent_rows, invert, is_zero, primitivize, rank, vadd, vscale, vsub

LatticePoint = tuple[int, ...]
RatPoint = tuple[Fraction, ...]


def as_lattice_point(p: Sequence[int]) -> LatticePoint:
    q = tuple(p)
    if not q or not all(isinstance(a, int) for a in q):
        raise ValueError(f"not a lattice point: {p!r}")
    return q


def as_rat_point(p: Sequence) -> RatPoint:
    q = tuple(Fraction(a) for a in p)
    if not q:
        raise ValueError("empty point")
    return q


@dataclass(frozen=True)
class Halfspace:
    """The set of x with <normal, x> >= offset.

    The normal is a primitive integer vector and the offset an integer: every
    facet of a Newton polyhedron holds a lattice vertex. value(x) is an int
    for a lattice point and an exact Fraction for a rational one.
    """

    normal: LatticePoint
    offset: int

    def value(self, x: Sequence) -> int | Fraction:
        return dot(self.normal, x)


def _sort_key(h: Halfspace):
    return (h.normal, h.offset)


# ---------------------------------------------------------------------------
# Double description: extreme rays of {y : <row, y> >= 0 for every row}.
# ---------------------------------------------------------------------------

def _extreme_rays(rows: Sequence[LatticePoint], dim: int) -> list[LatticePoint]:
    """Extreme rays of the cone dual to the given generators.

    Requires the rows to span the ambient space, so the result is pointed;
    raises NotFullDimensional otherwise. Rows are inserted in input order
    after an initial greedy basis; the output is primitive and sorted
    lexicographically.
    """
    basis_idx = independent_rows(rows)
    if len(basis_idx) != dim:
        raise NotFullDimensional(f"cone spans only {len(basis_idx)} of {dim} dimensions")
    basis = [rows[i] for i in basis_idx]
    inv = invert(basis)

    # Rays of the simplicial cone {y : B y >= 0} are the columns of B^{-1};
    # column j is tight on every basis row except the j-th.
    processed: list[LatticePoint] = list(basis)
    rays: list[tuple[LatticePoint, frozenset[int]]] = []
    for j in range(dim):
        col = primitivize(tuple(inv[i][j] for i in range(dim)))
        zero = frozenset(i for i in range(dim) if i != j)
        rays.append((col, zero))

    for i, row in enumerate(rows):
        if i in basis_idx:
            continue
        a_idx = len(processed)
        processed.append(row)
        pos, zer, neg = [], [], []
        for r, z in rays:
            s = dot(row, r)
            if s > 0:
                pos.append((r, z, s))
            elif s == 0:
                zer.append((r, z | {a_idx}))
            else:
                neg.append((r, z, s))
        if not neg:
            rays = [(r, z) for r, z, _ in pos] + zer
            continue
        new_rays: list[tuple[LatticePoint, frozenset[int]]] = [
            (r, z) for r, z, _ in pos
        ] + zer
        all_zero_sets = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                adjacent = not any(
                    common <= z3 for k, z3 in enumerate(all_zero_sets)
                    if rays[k][0] is not rp and rays[k][0] is not rn
                )
                if not adjacent:
                    continue
                vec = primitivize(vsub(vscale(sp, rn), vscale(sn, rp)))
                new_rays.append((vec, common | {a_idx}))
        rays = new_rays

    out = sorted({r for r, _ in rays})
    return out


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyCone:
    """Full-dimensional pointed rational cone, with both representations.

    rays are the primitive extreme rays, facet_normals the primitive inner
    normals of the facets; both are sorted lexicographically. The facets are
    the halfspaces <f, x> >= 0.
    """

    dim: int
    rays: tuple[LatticePoint, ...]
    facet_normals: tuple[LatticePoint, ...]

    @staticmethod
    def from_rays(rays: Iterable[Sequence[int]]) -> "PolyCone":
        rs = [as_lattice_point(r) for r in rays]
        if not rs:
            raise ValueError("a cone needs at least one generating ray")
        dim = len(rs[0])
        if any(len(r) != dim for r in rs):
            raise DimensionMismatch("rays of mixed dimension")
        if any(is_zero(r) for r in rs):
            raise ValueError("zero vector is not a ray")
        prim: list[LatticePoint] = []
        for r in rs:
            p = primitivize(r)
            if p not in prim:
                prim.append(p)
        normals = _extreme_rays(prim, dim)
        try:
            # the facet normals span exactly when the cone has no line
            extreme = _extreme_rays(normals, dim)
        except NotFullDimensional:
            raise NotPointed("cone contains a line") from None
        return PolyCone(dim, tuple(extreme), tuple(normals))

    def dual(self) -> "PolyCone":
        """Dual cone {y : <x, y> >= 0 for all x in self}. Involutive."""
        return PolyCone(self.dim, self.facet_normals, self.rays)

    def contains(self, x: Sequence, strict: bool = False) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point of dimension {len(x)} in cone of dimension {self.dim}")
        if strict:
            return all(dot(f, x) > 0 for f in self.facet_normals)
        return all(dot(f, x) >= 0 for f in self.facet_normals)


# ---------------------------------------------------------------------------
# Newton polyhedra: convex hull of lattice points plus a recession cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a containment test, with the exact pairing per facet."""

    contained: bool
    strict: bool
    pairings: tuple[tuple[Halfspace, int | Fraction], ...]
    violated: tuple[Halfspace, ...]
    tight: tuple[Halfspace, ...]


@dataclass(frozen=True)
class ConvexCertificate:
    """Points of a polyhedron and positive convex coefficients for a target."""

    points: tuple[RatPoint, ...]
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(points) + recession cone, always full-dimensional.

    facets is the irredundant list of halfspaces, sorted by
    (normal, offset); vertices is the subset of points that are vertices.
    """

    dim: int
    points: tuple[LatticePoint, ...]
    recession: PolyCone
    vertices: tuple[LatticePoint, ...]
    facets: tuple[Halfspace, ...]


def hull_plus_cone(points: Iterable[Sequence[int]], recession: PolyCone) -> NewtonPolyhedron:
    """Newton polyhedron conv(points) + recession, via double description.

    The lifted cone over (point, 1) and (ray, 0) rows is dualized; its extreme
    rays are the facets. The recession cone must be full-dimensional and
    pointed, which PolyCone already guarantees.
    """
    pts: list[LatticePoint] = []
    for p in points:
        q = as_lattice_point(p)
        if len(q) != recession.dim:
            raise DimensionMismatch(f"point {q} in dimension-{recession.dim} space")
        if q not in pts:
            pts.append(q)
    if not pts:
        raise ValueError("at least one point is required")
    dim = recession.dim
    lifted = [p + (1,) for p in pts] + [r + (0,) for r in recession.rays]
    dual_rays = _extreme_rays(lifted, dim + 1)

    facets = []
    for ray in dual_rays:
        f, c = ray[:dim], ray[dim]
        if is_zero(f):
            continue
        facets.append(Halfspace(f, -c))
    facets.sort(key=_sort_key)

    vertices = []
    for p in pts:
        tight = [h.normal for h in facets if h.value(p) == h.offset]
        if tight and rank(tight) == dim:
            vertices.append(p)
    vertices.sort()

    return NewtonPolyhedron(dim, tuple(pts), recession, tuple(vertices), tuple(facets))


def membership(p: NewtonPolyhedron, x: Sequence, relative_interior: bool = False) -> MembershipReport:
    """Exact containment report for x against every facet of p."""
    if len(x) != p.dim:
        raise DimensionMismatch(f"point of dimension {len(x)} in polyhedron of dimension {p.dim}")
    pairings = []
    violated = []
    tight = []
    for h in p.facets:
        v = h.value(x)
        pairings.append((h, v))
        if v < h.offset:
            violated.append(h)
        elif v == h.offset:
            tight.append(h)
    contained = not violated and (not relative_interior or not tight)
    return MembershipReport(contained, relative_interior, tuple(pairings), tuple(violated), tuple(tight))


def lattice_thresholds(p: NewtonPolyhedron, shift: Sequence | None = None) -> tuple[tuple[LatticePoint, int], ...]:
    """One (normal, m) per facet of p: a lattice w passes when <w, normal> >= m for all.

    With shift=None, m is the facet offset and passing means w in p. With a
    shift s, m = floor(offset - <normal, s>) + 1 and passing means w + s is
    interior to p.
    """
    if shift is None:
        return tuple((h.normal, h.offset) for h in p.facets)
    return tuple((h.normal, floor(h.offset - dot(h.normal, shift)) + 1) for h in p.facets)


def relint_certificate(p: NewtonPolyhedron, x: Sequence) -> ConvexCertificate:
    """Constructive witness that x lies interior to p.

    Returns dim+1 affinely independent points of p whose convex combination
    with the returned (strictly positive) coefficients is exactly x. The
    points are the vertices of a small simplex centered at x, scaled to clear
    every facet by at least half its slack. Raises NotInterior otherwise.
    """
    report = membership(p, x, relative_interior=True)
    if not report.contained:
        raise NotInterior(f"{tuple(x)} is not interior to the polyhedron")
    xs = as_rat_point(x)
    d = p.dim
    dirs = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    dirs.append(tuple(Fraction(-1) for _ in range(d)))

    eps = None
    for h in p.facets:
        slack = h.value(xs) - h.offset
        reach = max(abs(Fraction(dot(h.normal, u))) for u in dirs)
        bound = slack / (2 * reach) if reach > 0 else None
        if bound is not None and (eps is None or bound < eps):
            eps = bound
    if eps is None:
        eps = Fraction(1)

    points = tuple(vadd(xs, vscale(eps, u)) for u in dirs)
    coeff = Fraction(1, d + 1)
    cert = ConvexCertificate(points, tuple(coeff for _ in points))
    assert verify_certificate(p, xs, cert)
    return cert


def verify_certificate(p: NewtonPolyhedron, x: Sequence, cert: ConvexCertificate) -> bool:
    """Check a convex-combination interiority certificate by pure arithmetic.

    Valid when: dim+1 affinely independent points, all inside p, strictly
    positive coefficients summing to 1, combination equal to x.
    """
    if len(cert.points) != p.dim + 1 or len(cert.coefficients) != len(cert.points):
        return False
    if any(c <= 0 for c in cert.coefficients) or sum(cert.coefficients) != 1:
        return False
    if not affinely_independent(cert.points):
        return False
    for q in cert.points:
        if not membership(p, q).contained:
            return False
    combo = tuple(
        sum(c * Fraction(q[i]) for c, q in zip(cert.coefficients, cert.points))
        for i in range(p.dim)
    )
    return combo == as_rat_point(x)


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """True when no point is an affine combination of the others."""
    pts = [as_rat_point(q) for q in points]
    if not pts:
        raise ValueError("no points given")
    if len(pts) == 1:
        return True
    diffs = [vsub(q, pts[0]) for q in pts[1:]]
    return rank(diffs) == len(diffs)
