"""Normal toric rings presented by the cone of their monomial exponents.

A ring is the semigroup algebra of M ∩ C where C is a full-dimensional
pointed rational cone (the dual of the defining cone sigma). The primitive
generators of sigma are the facet normals of C; pairing against them is the
grading used everywhere else in the package.

Lattice points are enumerated in sigma-coordinates, the pairing vectors
t = (<w, n_i>). Those vectors form the lattice H Z^d, where H is the
Hermite normal form of a basis of sigma rays, and lattice_points_in_box
walks that lattice directly: every point it visits is a lattice point, in
lexicographic order of t (simplicial sigma) or of w (otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, NotInSemigroup
from .geometry import LatticePoint, PolyCone, RatPoint, as_lattice_point
from .linalg import dot, hermite_normal_form, kernel_basis, primitivize, rank


@dataclass(frozen=True)
class SemigroupReport:
    """Membership outcome for a lattice point against the exponent cone."""

    contained: bool
    point: LatticePoint
    violated_ray: LatticePoint | None

    def __bool__(self) -> bool:
        return self.contained


@dataclass(frozen=True)
class ToricRing:
    """Semigroup ring of the lattice points of a cone.

    dual_rays generate the exponent cone (the dual of sigma); sigma_rays are
    the primitive generators of sigma itself. q_gorenstein is (w0, r) with
    <w0, n> = r for every sigma ray n, w0 primitive and r >= 1 minimal, or
    None when no such lattice point exists.
    """

    dim: int
    cone: PolyCone
    q_gorenstein: tuple[LatticePoint, int] | None

    @property
    def dual_rays(self) -> tuple[LatticePoint, ...]:
        return self.cone.rays

    @property
    def sigma_rays(self) -> tuple[LatticePoint, ...]:
        return self.cone.facet_normals

    @property
    def is_gorenstein(self) -> bool:
        return self.q_gorenstein is not None and self.q_gorenstein[1] == 1

    def gorenstein_point(self) -> LatticePoint | None:
        """The lattice point pairing to 1 with every sigma ray, if it exists."""
        if self.is_gorenstein:
            return self.q_gorenstein[0]
        return None

    def canonical_shift(self) -> RatPoint | None:
        """u0 = w0 / r as an exact rational point, or None if not Q-Gorenstein."""
        if self.q_gorenstein is None:
            return None
        w0, r = self.q_gorenstein
        return tuple(Fraction(a, r) for a in w0)

    def pairings(self, w: Sequence) -> tuple:
        return tuple(dot(w, n) for n in self.sigma_rays)


def ring_from_dual_rays(rays: Iterable[Sequence[int]]) -> ToricRing:
    """Build the ring whose exponent cone is generated by the given rays.

    Raises NotFullDimensional / NotPointed when the cone is degenerate.
    """
    cone = PolyCone.from_rays(rays)
    return ToricRing(cone.dim, cone, _q_gorenstein_datum(cone))


def _q_gorenstein_datum(cone: PolyCone) -> tuple[LatticePoint, int] | None:
    ns = cone.facet_normals
    diffs = [tuple(a - b for a, b in zip(n, ns[0])) for n in ns[1:]]
    if diffs:
        basis = kernel_basis(diffs)
    else:
        basis = kernel_basis([(0,) * cone.dim])
    # sigma spans the ambient space, so the solution space is a line at most
    if not basis:
        return None
    assert len(basis) == 1
    w0 = primitivize(basis[0])
    r = dot(w0, ns[0])
    if r < 0:
        w0 = tuple(-a for a in w0)
        r = -r
    assert r > 0
    return w0, int(r)


def gorenstein_point(ring: ToricRing) -> LatticePoint | None:
    return ring.gorenstein_point()


def q_gorenstein_data(ring: ToricRing) -> tuple[LatticePoint, int] | None:
    return ring.q_gorenstein


def semigroup_contains(ring: ToricRing, w: Sequence[int]) -> SemigroupReport:
    """Is x^w a monomial of the ring, i.e. does w pair >= 0 with every sigma ray?"""
    p = as_lattice_point(w)
    if len(p) != ring.dim:
        raise DimensionMismatch(f"point of dimension {len(p)} in ring of dimension {ring.dim}")
    for n in ring.sigma_rays:
        if dot(p, n) < 0:
            return SemigroupReport(False, p, n)
    return SemigroupReport(True, p, None)


def require_exponent(ring: ToricRing, w: Sequence[int]) -> LatticePoint:
    rep = semigroup_contains(ring, w)
    if not rep:
        raise NotInSemigroup(
            f"{rep.point} pairs {dot(rep.point, rep.violated_ray)} with sigma ray {rep.violated_ray}"
        )
    return rep.point


# ---------------------------------------------------------------------------
# Lattice enumeration in sigma-coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sigma_lattice(ring: ToricRing) -> tuple[tuple[int, ...], tuple, tuple]:
    """(basis, H, U) for the lattice of sigma-pairing vectors.

    basis indexes the first d linearly independent sigma rays, greedily in
    sigma-ray order (all of them when sigma is simplicial); with N their
    matrix, H is the column Hermite normal form of N and U = N^-1 H, so the
    pairing vectors N w of lattice points w are exactly H k for integer k,
    with w = U k.
    """
    ns = ring.sigma_rays
    basis: list[int] = []
    for i, n in enumerate(ns):
        if rank([ns[j] for j in basis] + [n]) > len(basis):
            basis.append(i)
        if len(basis) == ring.dim:
            break
    hnf, uni = hermite_normal_form([ns[i] for i in basis])
    return tuple(basis), hnf, uni


def lattice_points_in_box(ring: ToricRing, bounds: Sequence[int]) -> Iterator[tuple[LatticePoint, tuple[int, ...]]]:
    """All lattice w with 0 <= <w, n_i> <= bounds[i] for every sigma ray n_i.

    Yields (w, pairings) pairs. The walk visits lattice points only: it
    runs over the integer vectors k with H k inside the box of a basis of
    sigma rays, where H is the lower-triangular Hermite normal form of their
    matrix (see _sigma_lattice), and yields w = U k. When sigma is
    simplicial the pairings come out in lexicographic order; otherwise the
    points are filtered on the remaining sigma rays and yielded in
    lexicographic order of w.
    """
    ns = ring.sigma_rays
    if len(bounds) != len(ns):
        raise ValueError("one bound per sigma ray is required")
    if any(b < 0 for b in bounds):
        return
    basis, hnf, uni = _sigma_lattice(ring)
    points = _hermite_walk(hnf, uni, [bounds[i] for i in basis])
    if len(ns) == ring.dim:
        yield from points
        return
    kept = []
    for w, _ in points:
        t = ring.pairings(w)
        if all(0 <= ti <= bi for ti, bi in zip(t, bounds)):
            kept.append((w, t))
    kept.sort()
    yield from kept


def _hermite_walk(hnf, uni, bounds) -> Iterator[tuple[LatticePoint, tuple[int, ...]]]:
    """(U k, H k) for every integer k with 0 <= (H k)_i <= bounds[i].

    H is lower triangular with a positive diagonal, so once k_0..k_{i-1} are
    fixed, (H k)_i is increasing in k_i and bounds k_i to a range; walking
    k lexicographically walks H k lexicographically. The last coordinate is
    emitted as arithmetic progressions, one run per prefix.
    """
    d = len(hnf)
    last = d - 1
    hcols = [tuple(row[j] for row in hnf) for j in range(d)]
    ucols = [tuple(row[j] for row in uni) for j in range(d)]

    def prefixes(i, t, w):
        if i == last:
            yield t, w
            return
        h = hnf[i][i]
        for k in range(-(t[i] // h), (bounds[i] - t[i]) // h + 1):
            yield from prefixes(
                i + 1,
                [a + k * c for a, c in zip(t, hcols[i])],
                [a + k * c for a, c in zip(w, ucols[i])],
            )

    h, b, ulast = hnf[last][last], bounds[last], ucols[last]
    for t, w in prefixes(0, [0] * d, [0] * d):
        lo, hi = -(t[last] // h), (b - t[last]) // h
        n = hi - lo + 1
        if n <= 0:
            continue
        ws = [range(a + lo * u, a + (hi + 1) * u, u) if u else repeat(a, n) for a, u in zip(w, ulast)]
        ts = [repeat(a, n) for a in t[:last]]
        ts.append(range(t[last] + lo * h, t[last] + (hi + 1) * h, h))
        yield from zip(zip(*ws), zip(*ts))


def semigroup_points(ring: ToricRing, bound: int) -> list[LatticePoint]:
    """Lattice points of the exponent cone with every sigma pairing <= bound."""
    return [w for w, _ in lattice_points_in_box(ring, (bound,) * len(ring.sigma_rays))]
