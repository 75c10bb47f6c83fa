"""Exact convex geometry: rational cones, Newton polyhedra, membership and certificates.

PolyCone.from_rays and hull_plus_cone turn generators into integer facets, by
the double description (_insert_rows, _extreme_generators) or, in the plane,
in closed form (PolyCone.from_rays, _plane_polygon). membership tests a point
against every facet (rings.region_tests turns the facets into integer
thresholds for lattice points), and relint_certificate and verify_certificate
give and check a convex witness of interiority. No floats and no tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NotFullDimensional, NotInterior, NotPointed
from .linalg import _scaled, dot, independent_rows, invert, primitivize, rank, vadd, vscale, vsub

LatticePoint = tuple[int, ...]
RatPoint = tuple[Fraction, ...]


def as_lattice_point(p: Sequence[int]) -> LatticePoint:
    q = tuple(p)
    if not q or not all(map(isinstance, q, repeat(int))):
        raise ValueError(f"not a lattice point: {p!r}")
    return q


def as_rat_point(p: Sequence) -> RatPoint:
    q = tuple(Fraction(a) for a in p)
    if not q:
        raise ValueError("empty point")
    return q


class Halfspace(NamedTuple):
    """The set of x with <normal, x> >= offset: the pair (normal, offset), ordered as one.

    The normal is a primitive integer vector and the offset an integer: every
    facet of a Newton polyhedron holds a lattice vertex.
    """

    normal: LatticePoint
    offset: int


class cached_property:
    """functools.cached_property without its lock: the first read on an instance computes the
    value and stores it in vars(obj), which every later read finds before this descriptor. An
    exception is raised on every read and stored on none. Python 3.11's functools version
    takes a class-wide RLock on each first read."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.compute(obj)
        return value


# ---------------------------------------------------------------------------
# Double description: extreme rays of {y : <row, y> >= 0 for every row}.
# ---------------------------------------------------------------------------

def _insert_rows(rays: list[tuple[LatticePoint, int]], rows: Iterable[LatticePoint], dim: int, bit: int) -> list:
    """Cut a pointed cone in dimension dim by <row, y> >= 0 for each row in turn.

    rays pairs each extreme ray with its zero set, an int whose bit k is set
    when the ray is tight on the k-th row inserted so far; the given rows take
    bits bit, bit + 1, ... A row keeps the rays that pair nonnegatively with
    it and adds one primitive ray on it per adjacent pair of a positive and a
    negative ray: no third ray's zero set holds the pair's common zero set.
    A common zero set of fewer than dim - 2 rows spans no 2-face, so such a
    pair is skipped before that scan (Fukuda-Prodon 1996).
    """
    for k, row in enumerate(rows, bit):
        b = 1 << k
        scored = [(r, z, dot(row, r)) for r, z in rays]
        pos = [t for t in scored if t[2] > 0]
        neg = [t for t in scored if t[2] < 0]
        kept = [(r, z if s else z | b) for r, z, s in scored if s >= 0]
        zero_sets = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < dim - 2:
                    continue
                for z in zero_sets:
                    if z & common == common and z != zp and z != zn:
                        break
                else:
                    kept.append((primitivize(tuple(sp * x - sn * y for x, y in zip(rn, rp))), common | b))
        rays = kept
    return rays


def _extreme_generators(dual: list[tuple[LatticePoint, int]], count: int, asked: Iterable[int]) -> list[int]:
    """The indices in asked of extreme generators of a cone, read off `_insert_rows`' final list.

    Generator k is extreme exactly when no other generator is tight on every
    facet that k is tight on; this holds for distinct primitive generators of
    a pointed cone when every facet is in the list, that is when k is the one
    generator whose facet set holds k's. Each zero set's bits are read once,
    into the facet sets of the count generators.
    """
    tight = [0] * count
    for i, (_, z) in enumerate(dual):
        while z:
            tight[(z & -z).bit_length() - 1] |= 1 << i
            z &= z - 1
    return [k for k in asked if list(map(tight[k].__and__, tight)).count(tight[k]) == 1]


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class _Cone(NamedTuple):
    dim: int
    rays: tuple[LatticePoint, ...]
    facet_normals: tuple[LatticePoint, ...]


class PolyCone(_Cone):
    """Full-dimensional pointed rational cone, with both representations.

    rays are the primitive extreme rays, facet_normals the primitive inner
    normals of the facets; both are sorted lexicographically. The facets are
    the halfspaces <f, x> >= 0. The cone is the tuple (dim, rays,
    facet_normals); facet_ray_bits is not a field but derived on first use.
    """

    @cached_property
    def facet_ray_bits(self) -> tuple[int, ...]:
        """Per facet normal, the bitset of the rays it is tight on (bit k for rays[k]);
        computed once per cone, for the seed of every hull_plus_cone over it in dimension d >= 3."""
        return tuple(sum(1 << k for k, r in enumerate(self.rays) if dot(n, r) == 0) for n in self.facet_normals)

    @staticmethod
    def from_rays(rays: Iterable[Sequence[int]]) -> "PolyCone":
        """The cone of rays, by one double description cold from a greedy basis of them.

        Raises NotFullDimensional when the rays span less than the space, and
        NotPointed when the cone holds a line; the extreme rays are read off the
        facet normals' zero sets. Two independent plane rays need no elimination:
        the facet normals are their quarter turns.
        """
        rs = [as_lattice_point(r) for r in rays]
        if not rs:
            raise ValueError("a cone needs at least one generating ray")
        dim = len(rs[0])
        if any(len(r) != dim for r in rs):
            raise DimensionMismatch("rays of mixed dimension")
        if any(not any(r) for r in rs):
            raise ValueError("zero vector is not a ray")
        prim = list(dict.fromkeys(map(primitivize, rs)))
        if dim == 2 and len(prim) == 2:
            # the columns of adj B times sign det B: each ray's quarter turn, facing the other ray
            (a, b), (c, d) = prim
            det = a * d - b * c
            if not det:
                raise NotFullDimensional("cone spans only 1 of 2 dimensions")
            s = 1 if det > 0 else -1
            return PolyCone(2, tuple(sorted(prim)), tuple(sorted([(s * d, -s * c), (-s * b, s * a)])))
        basis = independent_rows(prim)
        if len(basis) != dim:
            raise NotFullDimensional(f"cone spans only {len(basis)} of {dim} dimensions")
        order = basis + [i for i in range(len(prim)) if i not in basis]
        inv = invert([prim[i] for i in basis])
        # column j is tight on every basis row but the j-th; row order[k] holds bit k
        seed = [(primitivize([row[j] for row in inv]), (1 << dim) - 1 - (1 << j)) for j in range(dim)]
        dual = _insert_rows(seed, (prim[i] for i in order[dim:]), dim, dim)
        normals = sorted(r for r, _ in dual)
        # the facet normals span exactly when the cone has no line
        if rank(normals) < dim:
            raise NotPointed("cone contains a line")
        extreme = sorted(prim[order[k]] for k in _extreme_generators(dual, len(prim), range(len(prim))))
        return PolyCone(dim, tuple(extreme), tuple(normals))


# ---------------------------------------------------------------------------
# Newton polyhedra: convex hull of lattice points plus a recession cone
# ---------------------------------------------------------------------------

class MembershipReport(NamedTuple):
    """Outcome of a containment test, with the exact pairing per facet."""

    contained: bool
    strict: bool
    pairings: tuple[tuple[Halfspace, int | Fraction], ...]
    violated: tuple[Halfspace, ...]
    tight: tuple[Halfspace, ...]


class ConvexCertificate(NamedTuple):
    """Points of a polyhedron and positive convex coefficients for a target."""

    points: tuple[RatPoint, ...]
    coefficients: tuple[Fraction, ...]


class NewtonPolyhedron(NamedTuple):
    """conv(points) + recession cone, always full-dimensional.

    facets is the irredundant list of halfspaces, sorted by
    (normal, offset); vertices is the subset of points that are vertices.
    """

    dim: int
    vertices: tuple[LatticePoint, ...]
    facets: tuple[Halfspace, ...]

    def moved(self, c: LatticePoint) -> "NewtonPolyhedron":
        """c + self: every vertex moved by c and every facet offset by <normal, c>. Translation
        keeps the lex order of the vertices and the normals, so both stay sorted."""
        vertices = tuple(vadd(v, c) for v in self.vertices)
        facets = tuple(Halfspace(f, m + dot(f, c)) for f, m in self.facets)
        return NewtonPolyhedron(self.dim, vertices, facets)


def hull_plus_cone(points: Iterable[Sequence[int]], recession: PolyCone) -> NewtonPolyhedron:
    """Newton polyhedron conv(points) + recession: in the plane _plane_polygon, and in
    dimension d >= 3 a double description.

    There the facets are the rays (f, -c), f nonzero, of the cone dual to the rows
    (p, 1) for the points and (r, 0) for the recession rays. The dual of the
    rows of the first point p0 and of the recession rays is {(f, c) : f in
    the recession cone's dual, c >= -<f, p0>}, with extreme rays (0, ..., 0, 1)
    and (n, -<n, p0>) for each facet normal n of the recession cone. Starting
    there, `_insert_rows` adds the other points, and no intermediate cone is
    the dual of a bounded polytope. The recession cone must be
    full-dimensional and pointed, which PolyCone already guarantees.
    Vertices are read off the zero sets, with the facet at infinity
    (0, ..., 0, 1) kept in: bit 0 is pts[0], bits 1..m are the recession rays,
    which are never vertices and are not asked about, and bit m + k is
    pts[k]. The seed's zero sets are the cone's facet_ray_bits, moved past bit 0.
    """
    pts = list(dict.fromkeys(map(as_lattice_point, points)))
    for q in pts:
        if len(q) != recession.dim:
            raise DimensionMismatch(f"point {q} in dimension-{recession.dim} space")
    if not pts:
        raise ValueError("at least one point is required")
    if recession.dim == 2:
        return _plane_polygon(pts, recession)
    dim, p0, m = recession.dim, pts[0], len(recession.rays)
    # bit 0 is the row of p0, bit k the row of recession ray k - 1
    seed = [(n + (-dot(n, p0),), bits << 1 | 1) for n, bits in zip(recession.facet_normals, recession.facet_ray_bits)]
    seed.append(((0,) * dim + (1,), (2 << m) - 2))
    dual = _insert_rows(seed, (p + (1,) for p in pts[1:]), dim + 1, m + 1)
    facets = tuple(Halfspace(*h) for h in sorted((r[:dim], -r[dim]) for r, _ in dual if any(r[:dim])))
    point_rows = [0, *range(m + 1, m + len(pts))]
    vertices = sorted(pts[max(k - m, 0)] for k in _extreme_generators(dual, m + len(pts), point_rows))
    return NewtonPolyhedron(dim, tuple(vertices), facets)


def _plane_polygon(pts: list[LatticePoint], cone: PolyCone) -> NewtonPolyhedron:
    """conv(pts) + cone for distinct plane points, with no elimination.

    The pairings t = (<p, n0>, <p, n1>) with the cone's facet normals map the
    cone onto the quadrant t >= 0, so the polygon is the quadrant over the
    lower convex chain of its points' staircase. Sorted by t, a point joins
    the staircase when its t1 is below the last one kept, and the chain drops
    its last vertex while that is not strictly below the segment to the new
    point (Andrew's monotone chain, cross product <= 0), so collinear points
    are not vertices. The facets are (n0, least t0), (n1, least t1), and per
    chain edge its primitive normal, a n0 + b n1 for a, b > 0 the edge's fall
    in t1 and rise in t0, which pairs positively with both rays, offset at
    the edge's first vertex.
    """
    n0, n1 = cone.facet_normals
    (a0, b0), (a1, b1) = n0, n1
    chain: list = []
    for t in sorted([(a0 * p[0] + b0 * p[1], a1 * p[0] + b1 * p[1], p) for p in pts]):
        if chain and t[1] >= chain[-1][1]:
            continue
        while len(chain) > 1:
            (o0, o1, _), (s0, s1, _) = chain[-2:]
            if (s0 - o0) * (t[1] - o1) > (s1 - o1) * (t[0] - o0):
                break
            chain.pop()
        chain.append(t)
    facets = [(n0, chain[0][0]), (n1, chain[-1][1])]
    for (s0, s1, p), (u0, u1, _) in zip(chain, chain[1:]):
        a, b = s1 - u1, u0 - s0
        f = primitivize((a * a0 + b * a1, a * b0 + b * b1))
        facets.append((f, dot(f, p)))
    facets.sort()
    return NewtonPolyhedron(2, tuple(sorted([p for _, _, p in chain])), tuple(Halfspace(*h) for h in facets))


def membership(p: NewtonPolyhedron, x: Sequence, relative_interior: bool = False) -> MembershipReport:
    """Exact containment report for x against every facet of p: membership_scaled on x = num / D
    (linalg._scaled), which hands back an all-int point as it is, its pairings kept ints."""
    if len(x) != p.dim:
        raise DimensionMismatch(f"point of dimension {len(x)} in polyhedron of dimension {p.dim}")
    num, den = _scaled(x)
    return membership_scaled(p, num, None if num is x else den, relative_interior)


def membership_scaled(
    p: NewtonPolyhedron, num: Sequence[int], den: int | None, relative_interior: bool = False
) -> MembershipReport:
    """membership of the rational point num / den, den >= 1, in integers: <f, num> against
    offset * den per facet, each pairing reported as the Fraction <f, num> / den. den None
    reads num as the lattice point itself, with int pairings."""
    scale = den or 1
    pairings = []
    violated = []
    tight = []
    for h in p.facets:
        s, m = dot(h.normal, num), h.offset * scale
        pairings.append((h, s if den is None else Fraction(s, den)))
        if s < m:
            violated.append(h)
        elif s == m:
            tight.append(h)
    contained = not violated and (not relative_interior or not tight)
    return MembershipReport(contained, relative_interior, tuple(pairings), tuple(violated), tuple(tight))


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

    # eps is the least slack / (2 reach) over the facets, reach the largest |<normal, u>| over
    # the directions u: at least 1, as a facet normal is nonzero
    eps = min((dot(h.normal, xs) - h.offset) / (2 * max(abs(dot(h.normal, u)) for u in dirs)) for h in p.facets)
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
