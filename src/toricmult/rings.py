"""Normal toric rings presented by the cone of their monomial exponents.

A ring is the semigroup algebra of M ∩ C where C is a full-dimensional
pointed rational cone (the dual of the defining cone sigma). The primitive
generators of sigma are the facet normals of C; pairing against them is the
grading used everywhere else in the package.

Lattice points are enumerated in sigma-coordinates t = (<w, n_i>), the
lattice H Z^d for H the Hermite normal form of a basis of sigma rays
(ToricRing.sigma_lattice), which lattice_points_in_box walks directly in
lexicographic order of t (simplicial sigma) or of w (otherwise). The walk
is runs w + k u, each carrying the pairings of w with every sigma ray in
sigma-ray order, clipped to the other sigma rays' bounds by integer
division on non-simplicial sigma; u lies in the semigroup. run_starts
yields the runs, not their points, in walk order, so the pairing with sigma
ray 0 never decreases from one run to the next; every run starts on or above
given floors on the pairings, on every cone, and is cut to the interval passing
a region's facet thresholds (run_interval). run_points expands runs into points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, NotInSemigroup, NotQGorenstein, TooLarge
from .geometry import LatticePoint, PolyCone, RatPoint, as_lattice_point
from .linalg import dot, hermite_normal_form, independent_rows, kernel_basis, primitivize, vscale, vsub


@dataclass(frozen=True)
class ToricRing:
    """Semigroup ring of the lattice points of a cone.

    dual_rays generate the exponent cone (the dual of sigma); sigma_rays are
    the primitive generators of sigma itself. q_gorenstein is (w0, r) with
    <w0, n> = r for every sigma ray n, w0 primitive and r >= 1 minimal, or
    None when no such lattice point exists. The canonical point u0 and the
    sigma lattice are computed once per ring object, on first use, and the
    hash on construction: every memo keyed on the ring or its ideals reads it.
    """

    dim: int
    cone: PolyCone
    q_gorenstein: tuple[LatticePoint, int] | None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dim, self.cone, self.q_gorenstein)))

    def __hash__(self) -> int:
        return self._hash

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

    def canonical_shift(self) -> RatPoint:
        """u0 = w0 / r as an exact rational point; NotQGorenstein if there is none."""
        return self._u0

    @cached_property
    def _u0(self) -> RatPoint:
        if self.q_gorenstein is None:
            raise NotQGorenstein("ring has no canonical point; multiplier ideals are undefined")
        w0, r = self.q_gorenstein
        return tuple(Fraction(a, r) for a in w0)

    @cached_property
    def sigma_lattice(self) -> tuple[tuple[int, ...], tuple, tuple]:
        """(basis, H, U) for the lattice of sigma-pairing vectors.

        basis indexes d sigma rays, facet first: greedily, d - 1 rays of the facet
        orthogonal to the dual ray r0 with the least list of orthogonal ray indices
        (ray 0 is on a facet, so it leads), then the first ray off it; rays 0..d-1 on
        simplicial sigma. With N their matrix, H is the column Hermite normal form of
        N and U = N^-1 H: the pairing vectors N w of lattice w are H k, w = U k, k integer.
        """
        ns = self.sigma_rays
        facet = min([i for i, n in enumerate(ns) if not dot(r, n)] for r in self.dual_rays)
        order = facet + [i for i in range(len(ns)) if i not in facet]
        basis = tuple(order[i] for i in independent_rows([ns[i] for i in order]))
        hnf, uni = hermite_normal_form([ns[i] for i in basis])
        return basis, hnf, uni

    @cached_property
    def run_step(self) -> tuple[LatticePoint, tuple[int, ...]]:
        """(u, ut): the step u of every run of lattice_points_in_box and its sigma pairings ut,
        0 on the basis facet, h > 0 on the last basis ray: u is k r0, k > 0, in the semigroup."""
        u = tuple(row[-1] for row in self.sigma_lattice[2])
        return u, self.pairings(u)

    @cached_property
    def dual_ray_pairings(self) -> tuple[int, ...]:
        """sum_r <r, n> over the dual rays r, per sigma ray n: how far past its vertices a
        region's minimal generators can reach (ideals.region_minimal_generators)."""
        return self.pairings(tuple(map(sum, zip(*self.dual_rays))))

    @cached_property
    def prefix_steps(self) -> tuple[tuple[LatticePoint, tuple[int, ...]], ...]:
        """(c, ct) per column c of U but the last, the run step, with its sigma pairings ct:
        the steps of the coordinates k_0..k_{d-2} that _hermite_walk walks before its runs."""
        return tuple((c, self.pairings(c)) for c in zip(*(row[:-1] for row in self.sigma_lattice[2])))

    @cached_property
    def box_facets(self) -> dict[LatticePoint, int]:
        """i for sigma ray n_i and ~i for -n_i: the normals of the thresholds a sigma box
        implies, indexed for run_starts."""
        ns = self.sigma_rays
        return {n: i for i, n in enumerate(ns)} | {vscale(-1, n): ~i for i, n in enumerate(ns)}

    def pairings(self, w: Sequence) -> tuple:
        return tuple(dot(w, n) for n in self.sigma_rays)


# Distinct rings kept by ring_from_dual_rays; a search meets a few dozen.
RING_CACHE_SIZE = 64


def ring_from_dual_rays(rays: Iterable[Sequence[int]]) -> ToricRing:
    """Build the ring whose exponent cone is generated by the given rays.

    Raises NotFullDimensional / NotPointed when the cone is degenerate.
    Rings are memoized on the tuple of rays (see cache_info()); errors are
    not, so invalid rays raise on every call.
    """
    return _ring_from_rays(tuple(as_lattice_point(r) for r in rays))


@lru_cache(maxsize=RING_CACHE_SIZE)
def _ring_from_rays(rays: tuple[LatticePoint, ...]) -> ToricRing:
    cone = PolyCone.from_rays(rays)
    return ToricRing(cone.dim, cone, _q_gorenstein_datum(cone))


ring_from_dual_rays.cache_info = _ring_from_rays.cache_info


def _q_gorenstein_datum(cone: PolyCone) -> tuple[LatticePoint, int] | None:
    ns = cone.facet_normals
    diffs = [vsub(n, ns[0]) for n in ns[1:]]
    basis = kernel_basis(diffs or [(0,) * cone.dim])
    # sigma spans the ambient space, so the solution space is a line at most
    if not basis:
        return None
    assert len(basis) == 1
    w0 = primitivize(basis[0])
    r = dot(w0, ns[0])
    if r < 0:
        w0 = vscale(-1, w0)
        r = -r
    assert r > 0
    return w0, int(r)


def semigroup_contains(ring: ToricRing, w: Sequence[int]) -> bool:
    """Is x^w a monomial of the ring, i.e. does w pair >= 0 with every sigma ray?"""
    try:
        exponent_pairings(ring, w)
    except NotInSemigroup:
        return False
    return True


def exponent_pairings(ring: ToricRing, w: Sequence[int]) -> tuple[LatticePoint, tuple[int, ...]]:
    """(p, t): w as a lattice point p of the ring and its sigma pairings t, each computed once.
    DimensionMismatch when w lives in another dimension; NotInSemigroup names the first
    sigma ray that p pairs negatively with."""
    p = as_lattice_point(w)
    if len(p) != ring.dim:
        raise DimensionMismatch(f"point of dimension {len(p)} in ring of dimension {ring.dim}")
    t = ring.pairings(p)
    for x, n in zip(t, ring.sigma_rays):
        if x < 0:
            raise NotInSemigroup(f"{p} pairs {x} with sigma ray {n}")
    return p, t


# ---------------------------------------------------------------------------
# Lattice enumeration in sigma-coordinates
# ---------------------------------------------------------------------------

Run = tuple[LatticePoint, tuple[int, ...], int]  # (w, t, n): w + k u for 0 <= k < n, t the pairings of w


def lattice_points_in_box(ring: ToricRing, bounds: Sequence[int]) -> Iterator[tuple[LatticePoint, tuple[int, ...]]]:
    """All lattice w with 0 <= <w, n_i> <= bounds[i] for every sigma ray n_i.

    Yields (w, pairings) pairs. The walk visits lattice points only: it
    runs over the integer vectors k with H k inside the box of a basis of
    sigma rays, where H is the lower-triangular Hermite normal form of their
    matrix (see ToricRing.sigma_lattice), and yields w = U k. When sigma is
    simplicial the pairings come out in lexicographic order; otherwise each
    run is clipped to the bounds of the remaining sigma rays, so only points
    of the box are visited, and they are yielded in lexicographic order of w.
    """
    points = run_points(ring, _hermite_walk(ring, bounds, (0,) * len(bounds)))
    yield from points if len(ring.sigma_rays) == ring.dim else sorted(points)


def run_points(ring: ToricRing, runs) -> Iterator[tuple[LatticePoint, tuple[int, ...]]]:
    """(w + k u, t + k ut) for 0 <= k < n, per run (w, t, n) in order; (u, ut) = ring.run_step."""
    u, ut = ring.run_step
    for w, t, n in runs:
        if n == 1:
            yield w, t
            continue
        if n > sys.maxsize:
            raise TooLarge(f"a run of {n} points from {w} is too long to enumerate")
        ws, ts = ([range(a, a + n * s, s) if s else repeat(a, n) for a, s in zip(v, dv)] for v, dv in ((w, u), (t, ut)))
        yield from zip(zip(*ws), zip(*ts))


def _hermite_walk(ring: ToricRing, bounds: Sequence[int], floors: Sequence[int]) -> Iterator[Run]:
    """(w, t, n) per nonempty run w + k u, 0 <= k < n, of the integer k with
    floors[i] <= <w, n_i> <= bounds[i] for every sigma ray n_i; t pairs w with
    every sigma ray, in sigma-ray order.

    Column j of U pairs to H_ij with sigma ray basis[i] (N U = H), H lower
    triangular with a positive diagonal: once k_0..k_{j-1} are fixed, the
    pairing with basis[j] bounds k_j to a range, so k and the basis pairings
    are walked in the same lexicographic order, w and t adding column j and
    its pairings per step of k_j. The last coordinate is walked as runs, one per
    prefix, clipped by the last basis ray and every ray outside the basis: n_i
    pairs to t_i + k s along a run, s = <u, n_i> >= 0 (ring.run_step).
    """
    if len(bounds) != len(ring.sigma_rays):
        raise ValueError("one bound per sigma ray is required")
    if any(b < f for b, f in zip(bounds, floors)):
        return
    basis, hnf, _ = ring.sigma_lattice
    u, ut = ring.run_step
    last = len(u) - 1
    cols = ring.prefix_steps
    i0, s0 = basis[last], ut[basis[last]]  # the last diagonal entry of H, > 0
    clip = [(i, ut[i]) for i in range(len(ut)) if i not in basis]

    def prefixes(j, t, w):
        i, h, (ucol, tcol) = basis[j], hnf[j][j], cols[j]
        lo = -((t[i] - floors[i]) // h)
        t, w = _moved(t, lo, tcol), _moved(w, lo, ucol)
        for _ in range((bounds[i] - t[i]) // h + 1):
            if j + 1 == last:
                yield t, w
            else:
                yield from prefixes(j + 1, t, w)
            t, w = tuple(map(add, t, tcol)), tuple(map(add, w, ucol))

    origin = (0,) * len(ut), (0,) * len(u)
    for t, w in prefixes(0, *origin) if last else [origin]:
        lo, hi = -((t[i0] - floors[i0]) // s0), (bounds[i0] - t[i0]) // s0
        for i, s in clip:
            if s:  # floors[i] <= t[i] + k s <= bounds[i]
                lo, hi = max(lo, -((t[i] - floors[i]) // s)), min(hi, (bounds[i] - t[i]) // s)
            elif not floors[i] <= t[i] <= bounds[i]:
                hi = lo - 1
        if lo <= hi:
            yield _moved(w, lo, u), _moved(t, lo, ut), hi - lo + 1


def _moved(w: Sequence[int], k: int, step: Sequence[int]) -> tuple[int, ...]:
    """w + k step, with no Python-level loop per entry."""
    return tuple(map(add, w, map(mul, step, repeat(k)))) if k else tuple(w)


def run_starts(
    ring: ToricRing, bounds: Sequence[int], floors: Sequence[int] | None = None, thresholds: Sequence = ()
) -> Iterator[Run]:
    """(w, t, n) per run w + k u, 0 <= k < n, t the pairings of w, in walk order, covering the points of
    lattice_points_in_box(ring, bounds) that pair to at least floors[i] (default 0) with every sigma ray
    n_i and pass every integer facet threshold <w, f> >= m, (f, m) in thresholds (lattice_thresholds).
    Each run is cut to its passing interval (run_interval): it is nonempty and starts at its first
    passing point, on or above the floors. The thresholds the box implies, (n_i, m) with m <= floors[i]
    and (-n_i, m) with m <= -bounds[i], are dropped. A bound below its floor yields no run."""
    floors = floors or (0,) * len(bounds)
    if any(b < f for b, f in zip(bounds, floors)):
        return
    u, ut = ring.run_step
    box, limits = ring.box_facets, (*floors, *(-b for b in reversed(bounds)))  # limits[~i] = -bounds[i]
    tests = [(f, m, dot(u, f)) for f, m in thresholds if f not in box or m > limits[box[f]]]
    if len(ring.sigma_rays) > ring.dim:
        runs = _hermite_walk(ring, bounds, floors)
    else:
        # Stays until ROADMAP 1b/1c: bench/predictions.json needs lattice_points_in_box to work on plane2d.
        _, hnf, uni = ring.sigma_lattice
        k: list[int] = []  # p = U k: the floors rounded down on the Hermite basis, where the cut box starts
        for row, f in zip(hnf, floors):
            k.append((f - dot(row, k)) // row[len(k)])
        p, tp = tuple(dot(row, k) for row in uni), tuple(dot(row, k) for row in hnf)
        tests += [(n, f, s) for n, f, a, s in zip(ring.sigma_rays, floors, tp, ut) if a < f]  # floors p is below
        starts = lattice_points_in_box(ring, (*map(sub, bounds[:-1], tp), min(bounds[-1] - tp[-1], ut[-1] - 1)))
        if any(k):
            starts = ((tuple(map(add, w, p)), tuple(map(add, t, tp))) for w, t in starts)
        runs = ((w, t, (bounds[-1] - t[-1]) // ut[-1] + 1) for w, t in starts)
    for w, t, n in runs:
        lo, hi = run_interval(w, n, tests)
        if lo > hi:
            continue
        if lo:
            w, t = _moved(w, lo, u), _moved(t, lo, ut)
        yield w, t, hi - lo + 1


def run_interval(w: LatticePoint, n: int, tests) -> tuple[int, int]:
    """(lo, hi): lo <= k <= hi for exactly the k in [0, n) with <w + k u, f> >= m for
    every (f, m, s) in tests, none when lo > hi. s = <u, f> is the facet's step along
    the run, computed once per walk by run_starts: s > 0 bounds k below, s < 0
    bounds it above, and 0 passes every k or none."""
    lo, hi = 0, n - 1
    for f, m, s in tests:
        gap = m - dot(w, f)
        if s > 0:
            lo = max(lo, -(-gap // s))
        elif s < 0:
            hi = min(hi, gap // s)
        elif gap > 0:
            return lo, lo - 1
        if lo > hi:
            break
    return lo, hi


def semigroup_points(ring: ToricRing, bound: int) -> list[LatticePoint]:
    """Lattice points of the exponent cone with every sigma pairing <= bound."""
    return [w for w, _ in lattice_points_in_box(ring, (bound,) * len(ring.sigma_rays))]
