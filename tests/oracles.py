"""Slow, independent re-computations that the test suite checks the library against.

Everything here is deliberately naive: Fourier-Motzkin projection for half-space
descriptions, parallelepiped grid scans for generator sets, a filtered walk of
the whole sigma-coordinate box, 90-degree rotations for two-dimensional dual
cones, and Gaussian elimination over `Fraction` for the few matrix inverses
involved, among them the canonical point u0 solved on a basis of sigma rays
(`q_gorenstein`, against the library's kernel route). `multiplier_resolution`
takes a plane multiplier ideal from its definition on a toric log resolution,
a Hirzebruch-Jung subdivision of N(a)'s normal fan, not from the rule
"w + u0 interior to N(a)" that every other J here and in the library applies;
`frobenius_test_ideal` takes the test ideal τ_q from its definition by
Frobenius, on the pairings of sums of generators alone. None of it shares code with the library's double-description engine or its
lattice walker, so agreement is evidence rather than tautology.

Eleven exceptions keep a replaced library path as the reference for its
replacement. `decompose_2d` is the per-generator boundary walk the library's
cached version replaced: it builds every edge region with the library's
double description and tests it with `Fraction` membership, so it pins the
cached integer thresholds to the path they stand in for.
`region_minimal_generators` and `exhaustive_refute` are the per-point scans
that run intervals replaced: they walk the library's `lattice_points_in_box`
and test every point on `shifted_thresholds`, so they pin the run arithmetic
to the points it skips. The region scan reduces its points with
`minimal_points` below, not with the library's antichain pass.
`shifted_thresholds` is the per-facet `Fraction` formula that the integer
thresholds of the library's `region_tests` replaced; it shares no threshold
code with the library. `construction_flags` is the eager computation of a
construction's three closure flags that the library's on-read properties
replaced. `cold_extreme_rays` and `cold_hull_plus_cone`
are the double description that the library's bitset insertion loop and
its warm start from the recession cone replaced: every Newton polyhedron
dualized from a greedy basis of its lifted rows, points first, with
`frozenset` zero sets and no pre-check before the adjacency scan, on this
module's own `Fraction` elimination. `antichain_scan` is the quadratic divisibility scan
that the library's two-ray staircase replaced, and `dot_membership` the
`Fraction` pairing of every facet with x that its fraction-free membership
test replaced. `hermite_walk` is the walk of Hermite runs that kept the
basis pairings apart, paired each run with the rays outside the basis by
`dot` and permuted the pairings into sigma-ray order; the library's walk
carries every sigma pairing instead, and must emit the same runs in order.
`recursive_hermite_walk` is that walk as it stood before its prefix became
one odometer over a walk plan cached on the ring: a nested generator per
level, its steps rebuilt per call.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from toricmult.errors import NotDimension2, NotFullDimensional, NotInMultiplierIdeal
from toricmult.geometry import (
    Halfspace,
    MembershipReport,
    NewtonPolyhedron,
    hull_plus_cone,
    membership,
)
from toricmult.ideals import _same_ring, contains_monomial, integral_closure, newton_polyhedron, product
from toricmult.rings import exponent_pairings, lattice_points_in_box
from toricmult.subadditivity import Decomposition2D, RefutationReport, Side

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
    """conv(points) + cone(rays), held as projected inequalities.

    A rational point is tested on the Fraction rows. An integer point is tested
    on integer thresholds computed once per row: n.x >= b holds exactly when
    n.x >= ceil(b), and n.x > b exactly when n.x >= floor(b) + 1.
    """

    def __init__(self, dim: int, rows: list[Row]):
        self.dim = dim
        self.rows = rows
        self.int_thresholds = {
            False: [(n, math.ceil(b)) for n, b in rows],
            True: [(n, math.floor(b) + 1) for n, b in rows],
        }

    def contains(self, x, strict: bool = False) -> bool:
        if all(type(c) is int for c in x):
            return all(dot(n, x) >= m for n, m in self.int_thresholds[strict])
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


def q_gorenstein(sigma_rays):
    """(w0, r) with <w0, n> = r for every sigma ray n, w0 primitive and r >= 1 least, or None.

    u0 solves <u0, n> = 1 over the first basis of sigma rays, by an exact
    inverse over Fraction, and must pair to 1 with every other sigma ray; r is
    the lcm of u0's denominators and w0 = r u0.
    """
    basis = []
    for n in sigma_rays:
        if _rank(basis + [n]) > len(basis):
            basis.append(n)
    u0 = [sum(row) for row in inverse(basis)]
    if any(dot(u0, n) != 1 for n in sigma_rays):
        return None
    r = math.lcm(*(c.denominator for c in u0))
    return tuple(int(c * r) for c in u0), r


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


def shifted_thresholds(poly, shift):
    """(normal, m) per facet: a lattice w passes when <w, normal> >= m for all. With shift None
    m is the offset, so passing means w in poly; with a rational shift, m = floor(offset -
    <normal, shift>) + 1 in Fraction arithmetic, so passing means w + shift interior to poly."""
    if shift is None:
        return tuple((h.normal, h.offset) for h in poly.facets)
    s = [Fraction(c) for c in shift]
    return tuple((h.normal, math.floor(h.offset - dot(h.normal, s)) + 1) for h in poly.facets)


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


def facet_first_basis(sigma_rays, dual_rays):
    """Indices of the facet-first basis of sigma rays: of the facets of sigma,
    one per dual ray, the one whose sorted ray indices come first, then each of
    its rays not in the span of those taken before, then the least ray off it."""
    facet = min(sorted(i for i, n in enumerate(sigma_rays) if dot(r, n) == 0) for r in dual_rays)
    basis = []
    for i in facet:
        if _rank([sigma_rays[j] for j in basis + [i]]) > len(basis):
            basis.append(i)
    return (*basis, min(set(range(len(sigma_rays))) - set(facet)))


def in_ideal(gens, w, sigma_rays):
    """Does some generator g divide w, i.e. does w - g pair >= 0 with every sigma ray?"""
    return any(all(dot(vsub(w, g), s) >= 0 for s in sigma_rays) for g in gens)


def minimal_points(points, sigma_rays):
    """Minimal elements under semigroup divisibility (w - g in the dual cone)."""
    ordered = sorted(points, key=lambda w: (sum(dot(w, s) for s in sigma_rays), w))
    minimal: list[tuple[int, ...]] = []
    for w in ordered:
        if not in_ideal(minimal, w, sigma_rays):
            minimal.append(w)
    return tuple(sorted(minimal))


def frobenius_test_ideal(gens, sigma_rays, q, points):
    """The m of points with x^m in τ_q(a), a = <x^g : g in gens>, q = p^e, from the definition
    of the test ideal by Frobenius: it reads the sigma pairings of sums of q generators alone,
    with no Newton polyhedron, no canonical point and no library threshold.

    On R = k[S] in characteristic p, the monomial map φ_v: F^e_* x^w -> x^((w + v)/q), zero when
    (w + v)/q is not a lattice point, maps F^e_* R into R exactly when <v, n_i> >= 1 - q on every
    sigma ray n_i: a lattice point pairing above -1 with n_i pairs at least 0. So x^m lies in
    τ_q(a), the sum of the images φ_v(F^e_* a^q), when q m = g + v for some sum g of q generators
    and such a v, that is when <g, n_i> <= q(<m, n_i> + 1) - 1 on every sigma ray. Only the least
    pairing vectors of the sums matter; they are built by binary powering, the sums of two
    powers' least vectors reduced to an antichain (antichain_scan).
    """

    def least(vectors):
        return antichain_scan({(t, t) for t in vectors})

    power, sums, e = least(tuple(dot(g, n) for n in sigma_rays) for g in gens), None, q
    while e:
        if e & 1:
            sums = power if sums is None else least(vadd(s, t) for s in sums for t in power)
        e >>= 1
        if e:
            power = least(vadd(s, t) for s in power for t in power)
    caps = [tuple(q * (dot(m, n) + 1) - 1 for n in sigma_rays) for m in points]
    return [m for m, cap in zip(points, caps) if any(all(map(int.__le__, t, cap)) for t in sums)]


def antichain_scan(points):
    """Minimal (w, pairings) pairs, lex-sorted: in lexicographic order of
    pairings, keep a point when no kept point pairs at most as much with every ray."""
    kept = []
    for w, t in sorted(points, key=lambda p: p[1]):
        if not any(all(a <= b for a, b in zip(g, t)) for _, g in kept):
            kept.append((w, t))
    return tuple(sorted(w for w, _ in kept))


def dot_membership(p, x, relative_interior=False):
    """membership's report with each pairing <normal, x> summed as it comes:
    an int for an int point, a Fraction once an entry is a Fraction."""
    pairings = tuple((h, dot(h.normal, x)) for h in p.facets)
    violated = tuple(h for h, v in pairings if v < h.offset)
    tight = tuple(h for h, v in pairings if v == h.offset)
    contained = not violated and (not relative_interior or not tight)
    return MembershipReport(contained, relative_interior, pairings, violated, tight)


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


def gap_generators(ring, g1, g2):
    """Recipe points between <g1> and <g2> by the three-closure formula.

    Minimal generators of closure(<g1> + <g2>) outside closure(<g1>) +
    closure(<g2>), with every closure found by grid scan. The library's
    _gap_generators shortens it by taking principal ideals as closed.
    """
    def scan(gens):
        return closure_scan(gens, ring.dual_rays, ring.sigma_rays)

    gap_sum = scan([g1]) + scan([g2])
    return tuple(r for r in scan([g1, g2]) if not in_ideal(gap_sum, r, ring.sigma_rays))


def construction_flags(built):
    """(a closed, b closed, rZ in closure(a)*closure(b)) of a construction,
    computed as huneke_swanson_construct once did before returning it."""
    ca, cb = integral_closure(built.a), integral_closure(built.b)
    return ca == built.a, cb == built.b, contains_monomial(product(ca, cb), built.r_z)


def multiplier_scan(gens, dual_rays, sigma_rays, shift):
    """Minimal generators of {w : w + shift strictly inside N(gens)}, by scan."""
    region = hull_region(gens, dual_rays)
    shifted = FMRegion(region.dim, region.shifted_rows(shift))
    bounds = [
        max(dot(g, s) for g in gens) + sum(dot(r, s) for r in dual_rays) + math.ceil(dot(shift, s))
        for s in sigma_rays
    ]
    hits = [w for w in box_points(sigma_rays, bounds) if shifted.contains(w, strict=True)]
    return minimal_points(hits, sigma_rays)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _parallelogram_points(v, w):
    """The lattice points a v + b w, 0 <= a, b <= 1, for cross(v, w) = d > 0, column by column:
    at each x the two bands 0 <= cross(v, p) <= d and 0 <= cross(p, w) <= d bound y."""
    d = _cross(v, w)
    xs = [0, v[0], w[0], v[0] + w[0]]
    for x in range(min(xs), max(xs) + 1):
        lo, hi = -math.inf, math.inf
        for c, e in ((v[0], -v[1] * x), (-w[0], w[1] * x)):  # the band 0 <= c y + e <= d
            if c:
                ends = (Fraction(-e, c), Fraction(d - e, c))
                lo, hi = max(lo, math.ceil(min(ends))), min(hi, math.floor(max(ends)))
            elif not 0 <= e <= d:
                lo, hi = 1, 0
        yield from ((x, y) for y in range(lo, hi + 1)) if lo <= hi else ()


def hirzebruch_jung(v, w):
    """The lattice points on the compact edges of conv(cone(v, w) ∩ Z² ∖ 0), from v to w, for
    primitive v, w with cross(v, w) > 0: the primitive nonzero points of the parallelogram of v
    and w in angular order, each left turn of the chain (toward the origin) taken out. It is the
    cone's Hilbert basis, and consecutive members span the lattice."""
    points = [p for p in _parallelogram_points(v, w) if math.gcd(*p) == 1]
    points.sort(key=lambda p: Fraction(_cross(v, p), _cross(v, p) + _cross(p, w)))
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(vsub(chain[-1], chain[-2]), vsub(p, chain[-1])) > 0:
            chain.pop()
        chain.append(p)
    assert chain[0] == v and chain[-1] == w
    assert all(_cross(p, q) == 1 for p, q in zip(chain, chain[1:])), "not a smooth subdivision"
    return chain


def resolution_rays(gens, dual_rays):
    """The rays of a toric log resolution of <gens> on the plane ring of dual_rays, in angular
    order: the sigma rays (oracle rotation) and N(gens)'s facet normals (Fourier-Motzkin), all in
    sigma, with the Hirzebruch-Jung points between each consecutive two. The fan refines the
    normal fan of N(gens) and is smooth, so <gens> pulls back to a divisor on it."""
    n1, n2 = sigma_rays_2d(*dual_rays)
    if _cross(n1, n2) < 0:
        n1, n2 = n2, n1
    normals = {n1, n2} | {n for n, _ in hull_region(gens, dual_rays).rows}
    normals = sorted(normals, key=lambda v: Fraction(_cross(n1, v), _cross(n1, v) + _cross(v, n2)))
    rays = [n1]
    for v, w in zip(normals, normals[1:]):
        rays += hirzebruch_jung(v, w)[1:]
    return rays


def multiplier_resolution(gens, dual_rays):
    """Minimal generators of J(<gens>) on a plane ring, from the definition on a log resolution:
    J = pi_* O_Y(ceil(K_Y - pi^* K_X - F)), which holds x^w exactly when <w + u0, v> > ord_v =
    min_g <g, v> on every ray v of the resolution, <u0, v> the log discrepancy of its divisor.
    u0 comes from q_gorenstein here; the members are found by a box scan, reduced by
    minimal_points."""
    sigma = sigma_rays_2d(*dual_rays)
    w0, r = q_gorenstein(sigma)
    u0 = [Fraction(c, r) for c in w0]
    rays = resolution_rays(gens, dual_rays)
    orders = [(v, min(dot(g, v) for g in gens) - dot(u0, v)) for v in rays]
    bounds = [max(dot(g, s) for g in gens) + sum(dot(r, s) for r in dual_rays) + 1 for s in sigma]
    hits = [w for w in box_points(sigma, bounds) if all(dot(w, v) > m for v, m in orders)]
    return minimal_points(hits, sigma)


def skeletons(blocks, z_height_bound):
    """The counterexample search space as a nested walk, one tuple at a time.

    blocks holds one (ring, gens, zs) per base ring. For each ring: every
    pair of gens with repetition, then every adjoined exponent z, then every
    height 1..z_height_bound appended to z -- the order in which the search's
    index decoder must reproduce the space, index for index.
    """
    for ring, gens, zs in blocks:
        for g1, g2 in itertools.combinations_with_replacement(gens, 2):
            for wz in zs:
                for height in range(1, z_height_bound + 1):
                    yield ring, g1, g2, wz + (height,)


def _boundary_sequence(a, b):
    """Vertices of N(ab) along the boundary, tagged with generator splits.

    Vertices are ordered by their pairing with the first sigma ray. Each is
    tagged with the lex-smallest (a-generator, b-generator) pair summing to
    it. Between consecutive vertices whose tags share no component, the mixed
    point a_i + b_{i+1} is inserted; it lies strictly inside the connecting
    edge, so afterwards every consecutive pair shares a component.
    """
    ring = a.ring
    poly = newton_polyhedron(product(a, b))
    n0 = ring.sigma_rays[0]
    verts = sorted(poly.vertices, key=lambda v: dot(v, n0))

    def tag(v):
        pairs = [(ga, gb) for ga in a.gens for gb in b.gens if vadd(ga, gb) == v]
        assert pairs, f"vertex {v} is not a sum of generators"
        return min(pairs)

    seq = [(v, tag(v)) for v in verts]
    out = []
    for (v1, (a1, b1)), (v2, (a2, b2)) in zip(seq, seq[1:]):
        out.append((v1, (a1, b1)))
        if a1 != a2 and b1 != b2:
            out.append((vadd(a1, b2), (a1, b2)))
    out.append(seq[-1])
    return poly, out


def decompose_2d(p, a, b):
    """Split a member of J(ab) as (generator of a)·J(b) or (generator of b)·J(a).

    Walks the boundary of N(ab), finds the first edge region whose interior
    holds p + u0, and reads the witness off the region's shared tag component.
    The remainder membership is re-verified exactly and returned. Only for
    two-dimensional rings. Everything is rebuilt on every call.
    """
    ring = _same_ring(a, b)
    if ring.dim != 2:
        raise NotDimension2(f"boundary-walk decomposition needs dimension 2, not {ring.dim}")
    u0 = ring.canonical_shift()
    pt, _ = exponent_pairings(ring, p)
    poly = newton_polyhedron(product(a, b))
    x = vadd(pt, u0)
    if not membership(poly, x, relative_interior=True).contained:
        raise NotInMultiplierIdeal(f"{pt} + u0 is not interior to the product's Newton polyhedron")

    _, seq = _boundary_sequence(a, b)
    regions = list(zip(seq, seq[1:])) if len(seq) > 1 else [(seq[0], seq[0])]

    for idx, ((v1, (a1, b1)), (v2, (a2, b2))) in enumerate(regions):
        region = hull_plus_cone([v1, v2], ring.cone)
        if not membership(region, x, relative_interior=True).contained:
            continue
        if a1 == a2:
            side, witness, other = Side.FROM_A, a1, b
        else:
            assert b1 == b2, "consecutive tags must share a component"
            side, witness, other = Side.FROM_B, b1, a
        remainder = vsub(x, witness)
        report = membership(newton_polyhedron(other), remainder, relative_interior=True)
        assert report.contained, "edge region interior must land in the factor's interior"
        return Decomposition2D(side, witness, remainder, idx, report)
    raise AssertionError("interior point escaped every edge region")


def rational_shift(shift):
    """The point num / D of a library shift (num, D) in Fractions; None stays None."""
    return None if shift is None else tuple(Fraction(c, shift[1]) for c in shift[0])


def region_minimal_generators(ring, poly, shift):
    """Minimal generators of the region, testing every point of the sigma box.

    Same box as the library's engine, and the shift in its form (None: w in
    poly; (num, D): w + num / D interior to poly, (w0, r) for u0), read as
    Fractions and tested on shifted_thresholds, without the run arithmetic.
    """
    shift = rational_shift(shift)
    bounds = tuple(
        max(dot(v, n) for v in poly.vertices)
        + sum(dot(r, n) for r in ring.dual_rays)
        - (0 if shift is None else math.ceil(dot(shift, n)))
        for n in ring.sigma_rays
    )
    tests = shifted_thresholds(poly, shift)
    hits = [w for w, _ in lattice_points_in_box(ring, bounds) if all(dot(w, f) >= m for f, m in tests)]
    return minimal_points(hits, ring.sigma_rays)


def exhaustive_refute(v, a, b):
    """Every splitting v = alpha + beta, alpha interior to N(a) and beta + u0
    interior to N(b), found by testing every alpha of the walk in turn."""
    ring = _same_ring(a, b)
    u0 = ring.canonical_shift()
    target, _ = exponent_pairings(ring, v)
    inside_a = shifted_thresholds(newton_polyhedron(a), (0,) * ring.dim)
    inside_b = shifted_thresholds(newton_polyhedron(b), u0)
    bounds = tuple(t + 1 for t in ring.pairings(target))
    found = []
    scanned = 0
    for alpha, _ in lattice_points_in_box(ring, bounds):
        scanned += 1
        beta = vsub(target, alpha)
        if all(dot(alpha, f) >= m for f, m in inside_a) and all(dot(beta, f) >= m for f, m in inside_b):
            found.append((alpha, beta))
    return RefutationReport(target, bounds, scanned, tuple(found))


def hermite_walk(ring, bounds, floors):
    """The library's walk of Hermite runs before it carried every sigma pairing:
    (w, t, n) per nonempty run w + k u, 0 <= k < n, of the integer k with H k in
    the basis box and the other pairings in theirs, floors[i] <= <w, n_i> <= bounds[i];
    t pairs w with every sigma ray.

    H is lower triangular with a positive diagonal, so once k_0..k_{i-1} are
    fixed, (H k)_i is increasing in k_i and bounds k_i to a range; walking
    k lexicographically walks H k lexicographically. The last coordinate is
    walked as runs, one per prefix. A sigma ray n outside the basis pairs to
    a + k s along a run (a = <w, n>, s = <u, n>), which clips k to an
    interval with one division per bound.
    """
    ns = ring.sigma_rays
    if len(bounds) != len(ns):
        raise ValueError("one bound per sigma ray is required")
    if any(b < f for b, f in zip(bounds, floors)):
        return
    basis, hnf, uni = ring.sigma_lattice
    box = [(floors[i], bounds[i]) for i in basis]
    d = len(hnf)
    last = d - 1
    hcols = [tuple(row[j] for row in hnf) for j in range(d)]
    ucols = [tuple(row[j] for row in uni) for j in range(d)]
    h, (f, b), ulast = hnf[last][last], box[last], ucols[last]
    others = [j for j in range(len(ns)) if j not in basis]
    extra = [(ns[j], dot(ulast, ns[j]), floors[j], bounds[j]) for j in others]
    order = [[*basis, *others].index(j) for j in range(len(ns))]  # emitted column of sigma ray j

    def prefixes(i, t, w):
        h, hcol, ucol, (f, b) = hnf[i][i], hcols[i], ucols[i], box[i]
        for k in range(-((t[i] - f) // h), (b - t[i]) // h + 1):
            nt, nw = [a + k * c for a, c in zip(t, hcol)], [a + k * c for a, c in zip(w, ucol)]
            if i + 1 == last:
                yield nt, nw
            else:
                yield from prefixes(i + 1, nt, nw)

    for t, w in prefixes(0, [0] * d, [0] * d) if last else [([0], [0])]:
        lo, hi = -((t[last] - f) // h), (b - t[last]) // h
        cut = [(dot(w, ray), s, fn, bn) for ray, s, fn, bn in extra]
        for a, s, fn, bn in cut:
            if s:  # fn <= a + k s <= bn; s > 0 as u lies in the semigroup
                lo, hi = max(lo, -((a - fn) // s)), min(hi, (bn - a) // s)
            elif not fn <= a <= bn:
                hi = lo - 1
        if hi < lo:
            continue
        t[last] += lo * h
        if cut:
            t += [a + lo * s for a, s, _, _ in cut]
            t = [t[j] for j in order]
        yield tuple(a + lo * c for a, c in zip(w, ulast)), tuple(t), hi - lo + 1


def recursive_hermite_walk(ring, bounds, floors):
    """The library's walk of Hermite runs before its prefix became one odometer:
    one nested generator per level k_0..k_{d-2}, each step of a level moving
    w and t by that column of U and its pairings, and the walk's columns,
    diagonal and clip list rebuilt per call. (w, t, n) per nonempty run
    w + k u, 0 <= k < n, with floors[i] <= <w, n_i> <= bounds[i]; t pairs w
    with every sigma ray, in sigma-ray order.
    """
    if len(bounds) != len(ring.sigma_rays):
        raise ValueError("one bound per sigma ray is required")
    if any(b < f for b, f in zip(bounds, floors)):
        return
    basis, hnf, uni = ring.sigma_lattice
    u, ut = ring.run_step
    last = len(u) - 1
    cols = [(c, ring.pairings(c)) for c in zip(*(row[:-1] for row in uni))]
    i0, s0 = basis[last], ut[basis[last]]  # the last diagonal entry of H, > 0
    clip = [(i, ut[i]) for i in range(len(ut)) if i not in basis]

    def moved(w, k, step):
        return tuple(a + k * s for a, s in zip(w, step))

    def prefixes(j, t, w):
        i, h, (ucol, tcol) = basis[j], hnf[j][j], cols[j]
        lo = -((t[i] - floors[i]) // h)
        t, w = moved(t, lo, tcol), moved(w, lo, ucol)
        for _ in range((bounds[i] - t[i]) // h + 1):
            if j + 1 == last:
                yield t, w
            else:
                yield from prefixes(j + 1, t, w)
            t, w = moved(t, 1, tcol), moved(w, 1, ucol)

    origin = (0,) * len(ut), (0,) * len(u)
    for t, w in prefixes(0, *origin) if last else [origin]:
        lo, hi = -((t[i0] - floors[i0]) // s0), (bounds[i0] - t[i0]) // s0
        for i, s in clip:
            if s:  # floors[i] <= t[i] + k s <= bounds[i]
                lo, hi = max(lo, -((t[i] - floors[i]) // s)), min(hi, (bounds[i] - t[i]) // s)
            elif not floors[i] <= t[i] <= bounds[i]:
                hi = lo - 1
        if lo <= hi:
            yield moved(w, lo, u), moved(t, lo, ut), hi - lo + 1


def cold_extreme_rays(rows, dim):
    """Extreme rays of the cone dual to the rows, sorted: the double description
    from the columns of B^-1 for a greedy basis B, inserting the other rows in
    input order and testing every positive-negative pair for adjacency."""
    basis_idx = []
    for i, row in enumerate(rows):
        if _rank([rows[k] for k in basis_idx] + [row]) > len(basis_idx):
            basis_idx.append(i)
    if len(basis_idx) != dim:
        raise NotFullDimensional(f"cone spans only {len(basis_idx)} of {dim} dimensions")
    inv = inverse([rows[i] for i in basis_idx])
    rays = [
        (_primitive(tuple(inv[i][j] for i in range(dim))), frozenset(i for i in range(dim) if i != j))
        for j in range(dim)
    ]
    a_idx = dim
    for i, row in enumerate(rows):
        if i in basis_idx:
            continue
        pos, zer, neg = [], [], []
        for r, z in rays:
            s = dot(row, r)
            if s > 0:
                pos.append((r, z, s))
            elif s == 0:
                zer.append((r, z | {a_idx}))
            else:
                neg.append((r, z, s))
        new_rays = [(r, z) for r, z, _ in pos] + zer
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if any(common <= z for r, z in rays if r is not rp and r is not rn):
                    continue
                vec = _primitive(tuple(sp * x - sn * y for x, y in zip(rn, rp)))
                new_rays.append((vec, common | {a_idx}))
        rays = new_rays
        a_idx += 1
    return sorted({r for r, _ in rays})


def _primitive(vec):
    """The primitive integer vector on the ray of a nonzero int or Fraction vector."""
    den = math.lcm(*(Fraction(c).denominator for c in vec))
    ints = [int(Fraction(c) * den) for c in vec]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def cold_hull_plus_cone(points, recession):
    """conv(points) + recession from the cold double description of the lifted
    rows, points first; vertices are the points whose tight normals have full rank."""
    pts = []
    for p in points:
        if tuple(p) not in pts:
            pts.append(tuple(p))
    dim = recession.dim
    lifted = [p + (1,) for p in pts] + [r + (0,) for r in recession.rays]
    facets = sorted(
        Halfspace(ray[:dim], -ray[dim]) for ray in cold_extreme_rays(lifted, dim + 1) if any(ray[:dim])
    )
    vertices = []
    for p in pts:
        tight = [h.normal for h in facets if dot(h.normal, p) == h.offset]
        if tight and _rank(tight) == dim:
            vertices.append(p)
    return NewtonPolyhedron(dim, tuple(sorted(vertices)), tuple(facets))
