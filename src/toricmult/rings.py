"""Normal toric rings presented by the cone of their monomial exponents, and their lattice walk.

A ring is the semigroup algebra of M ∩ C, for C a full-dimensional pointed
rational cone, the dual of sigma. The primitive generators of sigma are the
facet normals of C, and pairing against them is the grading used everywhere
else in the package. A ring derives its canonical point (ToricRing.q_gorenstein,
in integers by canonical_pair) and its Hermite data (ToricRing.sigma_lattice)
from C on first use. Lattice points are walked as Hermite runs (cut_runs) from
a region's floors on every cone, each run narrowed by its facet tests, both
read off a polyhedron and an integer shift (region_tests, run_interval):
lattice_points_in_box and box_point_count list and count a box with no tests,
region_generators reads a region's minimal points, on two sigma rays row by
row from the walk's first point, with one dominance pass (antichain)
otherwise, and run_points expands runs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, le, lt, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, NotInSemigroup, NotQGorenstein, TooLarge
from .geometry import LatticePoint, NewtonPolyhedron, PolyCone, RatPoint, as_lattice_point, cached_property
from .linalg import dot, hermite_normal_form, independent_rows, kernel_basis, primitivize, vscale, vsub


class _Ring(NamedTuple):
    cone: PolyCone


class ToricRing(_Ring):
    """Semigroup ring of the lattice points of a cone, which is all it holds.

    dual_rays generate the cone (the dual of sigma); sigma_rays are the
    primitive generators of sigma itself. Every other value is derived once
    per ring object, on first use, so a ring used only for closures never
    solves for u0. A ring is the one-field tuple (cone,), so two rings are
    equal when their cones are.
    """

    @cached_property
    def dim(self) -> int:
        return self.cone.dim

    @cached_property
    def dual_rays(self) -> tuple[LatticePoint, ...]:
        return self.cone.rays

    @cached_property
    def sigma_rays(self) -> tuple[LatticePoint, ...]:
        return self.cone.facet_normals

    @cached_property
    def q_gorenstein(self) -> tuple[LatticePoint, int] | None:
        """(w0, r) with <w0, n> = r for every sigma ray n, w0 primitive and r >= 1 minimal, or
        None when no such lattice point exists. In the plane w0 is the primitive quarter turn
        of n1 - n2, with no elimination; otherwise it spans the kernel of the differences n - n0,
        a line at most."""
        ns = self.sigma_rays
        if self.dim == 2:
            (a, b), (c, d) = ns
            w0 = primitivize((d - b, a - c))  # the quarter turn of n1 - n2 pairs equally with both
        else:
            basis = kernel_basis([vsub(n, ns[0]) for n in ns[1:]] or [(0,) * self.dim])
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

    def gorenstein_point(self) -> LatticePoint | None:
        """The lattice point pairing to 1 with every sigma ray, if it exists."""
        q = self.q_gorenstein
        return q[0] if q is not None and q[1] == 1 else None

    def canonical_pair(self) -> tuple[LatticePoint, int]:
        """q_gorenstein's (w0, r), u0 = w0 / r in integers; NotQGorenstein if there is none, the
        one place that raises it, so every multiplier-ideal operation refuses the same way."""
        if self.q_gorenstein is None:
            raise NotQGorenstein("ring has no canonical point; multiplier ideals are undefined")
        return self.q_gorenstein

    def canonical_shift(self) -> RatPoint:
        """u0 = w0 / r (canonical_pair) in Fractions, built on each call, for the callers that report it."""
        w0, r = self.canonical_pair()
        return tuple(Fraction(a, r) for a in w0)

    @cached_property
    def sigma_lattice(self) -> tuple[tuple[int, ...], tuple, tuple]:
        """(basis, H, U) for the lattice of sigma-pairing vectors.

        basis indexes d sigma rays, facet first: greedily, d - 1 rays of the facet
        orthogonal to the dual ray r0 with the least list of orthogonal ray indices
        (ray 0 is on a facet, so it leads), then the first ray off it; rays 0..d-1 on
        simplicial sigma, taken with no rank test. With N their matrix, H is the column
        Hermite normal form of N and U = N^-1 H: the pairing vectors N w of lattice w are
        H k, w = U k, k integer.
        """
        ns = self.sigma_rays
        if len(ns) == self.dim:
            basis = tuple(range(self.dim))
        else:
            facet = min([i for i, n in enumerate(ns) if not dot(r, n)] for r in self.dual_rays)
            order = facet + [i for i in range(len(ns)) if i not in facet]
            basis = tuple(order[i] for i in independent_rows([ns[i] for i in order]))
        hnf, uni = hermite_normal_form([ns[i] for i in basis])
        return basis, hnf, uni

    @cached_property
    def run_step(self) -> tuple[LatticePoint, tuple[int, ...]]:
        """(u, ut): the step u of every run of cut_runs and its sigma pairings ut,
        0 on the basis facet, h > 0 on the last basis ray: u is k r0, k > 0, in the semigroup."""
        u = tuple(row[-1] for row in self.sigma_lattice[2])
        return u, self.pairings(u)

    @cached_property
    def dual_ray_pairings(self) -> tuple[int, ...]:
        """The sum of <r, n> over the dual rays r, per sigma ray n: how far past its vertices a
        region's minimal generators can reach (ideals.region_minimal_generators)."""
        return self.pairings(tuple(map(sum, zip(*self.dual_rays))))

    @cached_property
    def walk_plan(self) -> tuple:
        """(step, levels, i0, s0, clip): what cut_runs reads, on the joined vector t + w of a
        point's sigma pairings t and the point w, so that t_i is entry i. A run steps by
        step = ut + u (run_step). levels holds (i, h, ct + c) per coordinate k_j walked before the
        runs, j < d - 1: basis ray i = basis[j], the diagonal entry h = H_jj, and column c of U
        after its sigma pairings ct. A run is bounded by the last basis ray i0, paired s0 = ut[i0] > 0,
        and clipped by each ray i outside the basis, (i, s) in clip with s = ut[i] >= 0."""
        basis, hnf, uni = self.sigma_lattice
        u, ut = self.run_step
        columns = zip(*(row[:-1] for row in uni))
        levels = tuple((basis[j], hnf[j][j], self.pairings(c) + c) for j, c in enumerate(columns))
        clip = tuple((i, s) for i, s in enumerate(ut) if i not in basis)
        return ut + u, levels, basis[-1], ut[basis[-1]], clip

    def pairings(self, w: Sequence) -> tuple:
        return tuple([sum(map(mul, w, n)) for n in self.sigma_rays])


# Entries kept by each memo of a computed value, in every module; see its cache_info().
CACHE_SIZE = 1024


def ring_from_dual_rays(rays: Iterable[Sequence[int]]) -> ToricRing:
    """Build the ring whose exponent cone is generated by the given rays.

    Raises NotFullDimensional / NotPointed when the cone is degenerate.
    Rings are memoized on the tuple of rays (see cache_info()); errors are
    not, so invalid rays raise on every call.
    """
    return _ring_from_rays(tuple(as_lattice_point(r) for r in rays))


@lru_cache(maxsize=CACHE_SIZE)
def _ring_from_rays(rays: tuple[LatticePoint, ...]) -> ToricRing:
    return ToricRing(PolyCone.from_rays(rays))


ring_from_dual_rays.cache_info = _ring_from_rays.cache_info


def exponent_pairings(ring: ToricRing, w: Sequence[int]) -> tuple[LatticePoint, tuple[int, ...]]:
    """(p, t): w as a lattice point p of the ring and its sigma pairings t, each computed once.
    DimensionMismatch when w lives in another dimension; NotInSemigroup names the first
    sigma ray that p pairs negatively with."""
    p = as_lattice_point(w)
    if len(p) != ring.dim:
        raise DimensionMismatch(f"point of dimension {len(p)} in ring of dimension {ring.dim}")
    t = ring.pairings(p)
    if min(t) < 0:
        x, n = next((x, n) for x, n in zip(t, ring.sigma_rays) if x < 0)
        raise NotInSemigroup(f"{p} pairs {x} with sigma ray {n}")
    return p, t


# ---------------------------------------------------------------------------
# Lattice enumeration in sigma-coordinates
# ---------------------------------------------------------------------------

Run = tuple[LatticePoint, tuple[int, ...], int]  # (w, t, n): w + k u for 0 <= k < n, t the pairings of w


def lattice_points_in_box(ring: ToricRing, bounds: Sequence[int]) -> Iterator[tuple[LatticePoint, tuple[int, ...]]]:
    """(w, pairings) per lattice w with 0 <= <w, n_i> <= bounds[i] for every sigma ray n_i: in
    walk order (cut_runs) on simplicial sigma, and otherwise sorted by w, all at once."""
    points = run_points(ring, cut_runs(ring, bounds, (0,) * len(bounds), ()))
    yield from points if len(ring.sigma_rays) == ring.dim else sorted(points)


@lru_cache(maxsize=CACHE_SIZE)
def box_point_count(ring: ToricRing, bounds: tuple[int, ...]) -> int:
    """The number of lattice w with 0 <= <w, n_i> <= bounds[i] for every sigma ray n_i: the
    lengths of the box's Hermite runs from zero floors, summed, with no point enumerated.
    Memoized, as refutations share their reported boxes."""
    return sum(n for _, _, n in cut_runs(ring, bounds, (0,) * len(bounds), ()))


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


def cut_runs(ring: ToricRing, bounds: Sequence[int], floors: Sequence[int], tests: Sequence) -> Iterator[Run]:
    """(w, t, n) per nonempty run w + k u, 0 <= k < n, of the lattice points with
    floors[i] <= <w, n_i> <= bounds[i] for every sigma ray n_i and <w, f> >= m for every facet
    test (f, m, s) in tests, s = <u, f> (region_tests); t pairs w with every sigma ray, in
    sigma-ray order. floors is any sequence, no memo key; a bound below its floor yields no run.

    Column j of U pairs to H_ij with sigma ray basis[i] (N U = H), H lower
    triangular with a positive diagonal: once k_0..k_{j-1} are fixed, the
    pairing with basis[j] bounds k_j to a range, so k and the basis pairings
    are walked in the same lexicographic order, t + w adding column j after
    its pairings per step of k_j. So the pairing with basis[0], sigma ray 0,
    never decreases from one run to the next, and on simplicial sigma the
    points come in lexicographic order of t. The prefix k_0..k_{d-2} is one
    odometer, holding per level its t + w and steps left, so the walk stays
    lazy and keeps no generator per level. The last coordinate is walked as
    runs, one per prefix, clipped by the last basis ray and every ray outside
    the basis: n_i pairs to t_i + k s along a run, s = <u, n_i> >= 0
    (ToricRing.walk_plan). The facet tests then narrow that same interval of k
    (run_interval), and the run is moved once, to its first passing point.
    """
    if len(bounds) != len(ring.sigma_rays):
        raise ValueError("one bound per sigma ray is required")
    if any(map(lt, bounds, floors)):
        return
    step, levels, i0, s0, clip = ring.walk_plan
    rays, depth = len(bounds), len(levels)
    tws, left = [()] * depth, [0] * depth  # per prefix level: its t + w, and the steps left after it
    tw, j = (0,) * len(step), 0
    while True:
        while j < depth:  # set levels j.. at their first k_j
            i, h, c = levels[j]
            k = -((tw[i] - floors[i]) // h)
            if k:
                tw = _moved(tw, k, c)
            n = (bounds[i] - tw[i]) // h
            if n < 0:
                break
            tws[j], left[j] = tw, n
            j += 1
        else:
            lo, hi = -((tw[i0] - floors[i0]) // s0), (bounds[i0] - tw[i0]) // s0
            for i, s in clip:
                if s:  # floors[i] <= t[i] + k s <= bounds[i]
                    lo, hi = max(lo, -((tw[i] - floors[i]) // s)), min(hi, (bounds[i] - tw[i]) // s)
                elif not floors[i] <= tw[i] <= bounds[i]:
                    hi = lo - 1
            if tests and lo <= hi:  # box walks pass no tests
                lo, hi = run_interval(tw[rays:], lo, hi, tests)
            if lo <= hi:
                run = _moved(tw, lo, step) if lo else tw
                yield run[rays:], run[:rays], hi - lo + 1
        j -= 1  # the deepest level set; step the deepest one with steps left
        while j >= 0 and not left[j]:
            j -= 1
        if j < 0:
            return
        tw = tws[j] = tuple(map(add, tws[j], levels[j][2]))
        left[j] -= 1
        j += 1


def _moved(w: Sequence[int], k: int, step: Sequence[int]) -> tuple[int, ...]:
    """w + k step, k != 0 (every caller skips a zero count), with no Python-level loop per entry."""
    return tuple(map(add, w, map(mul, step, repeat(k))))


def region_tests(ring: ToricRing, poly: NewtonPolyhedron, shift: tuple[Sequence[int], int] | None) -> tuple[tuple[int, ...], tuple]:
    """(floors, tests) for cut_runs of the lattice w in poly = P + C, shift None, or of the w with
    w + num / D interior to poly, shift (num, D) in integers, D >= 1 (canonical_pair for u0).
    Facet (f, offset) asks <w, f> >= m: m is the offset, or with a shift the least integer above
    offset - <f, num> / D, (offset D - <f, num>) // D + 1. Every sigma ray n_i is a facet normal of
    P + C, as it is of C, with the least pairing of a point of P as its offset; its m is floors[i],
    the floor of the walk on n_i, so the walk starts there on every cone. Every other facet becomes
    a test (f, m, <u, f>), in facet order, u the run step, which narrows each clipped run of the
    walk (run_interval)."""
    sigma, u = ring.sigma_rays, ring.run_step[0]
    num, den = shift or ((), 1)
    floors, tests = [None] * len(sigma), []
    for f, m in poly.facets:
        if shift is not None:
            m = (m * den - dot(f, num)) // den + 1
        if f in sigma:
            floors[sigma.index(f)] = m
        else:
            tests.append((f, m, dot(u, f)))
    return tuple(floors), tuple(tests)


def region_generators(ring: ToricRing, bounds: Sequence[int], floors: Sequence[int], tests: Sequence) -> tuple[LatticePoint, ...]:
    """The minimal points, lex-sorted, of the upward-closed region that cut_runs walks, in one
    pass with no candidate list or sort of candidates. The run step lies in the semigroup, so a
    run's first member divides the rest of its run and is its one candidate. The pairing with
    sigma ray 0 never decreases along the walk, so a candidate on the floor of every later sigma
    ray divides every later one, and the walk stops there. A bound below its floor gives no point.

    On three or more sigma rays a divisor's basis pairings are lexicographically at most its
    multiple's, so it is walked first (cut_runs), and antichain keeps candidates as they come.
    On two the minimal points are a staircase: g divides w exactly when t(g) <= t(w) entrywise,
    the rows of the cut box (read through lattice_points_in_box) come in increasing t0, and a
    row's first member is minimal exactly when its t1 is below the last kept t1. The box starts
    at the walk's first point, as no earlier row meets the region, or one run step below it, with
    the floor of sigma ray 1 as one more test, when that point lies above that floor. Each row is
    cut at the staircase, its run ending one below the last kept t1, and a row starting at or
    above it is skipped untested."""
    if len(ring.sigma_rays) != 2:

        def candidates():
            for w, t, _ in cut_runs(ring, bounds, floors, tests):
                yield w, t
                if t[1:] == floors[1:]:
                    return

        return antichain(candidates(), staircase=False)
    first = next(cut_runs(ring, bounds, floors, ()), None)
    if first is None:
        return ()
    (p0, p1), tp, _ = first
    (u0, u1), (_, s) = ring.run_step
    if tp[1] > floors[1]:  # so that every row reaches down to the floor
        p0, p1, tp = p0 - u0, p1 - u1, (tp[0], tp[1] - s)
        tests = (*tests, (ring.sigma_rays[1], floors[1], s))
    top, gens = bounds[1] - tp[1], []  # top: the cut rows' last t1 - tp[1]
    for (w0, w1), (_, t1) in lattice_points_in_box(ring, (bounds[0] - tp[0], min(top, s - 1))):
        if t1 > top:
            continue
        lo, hi = run_interval((w0 + p0, w1 + p1), 0, (top - t1) // s, tests)
        if lo <= hi:
            gens.append((w0 + p0 + lo * u0, w1 + p1 + lo * u1))
            top = t1 + lo * s - 1
            if top + tp[1] < floors[1]:
                break
    return tuple(sorted(gens))


def antichain(points: Iterable[tuple[LatticePoint, tuple[int, ...]]], staircase: bool) -> tuple[LatticePoint, ...]:
    """Minimal points, lex-sorted, of (w, sigma pairings) pairs that come with every divisor
    before its multiples, in one pass: a divisor's pairings are componentwise <= its multiple's,
    so a point is minimal exactly when no point kept before it divides it. With staircase the
    points come on two sigma rays in lexicographic order of pairings, and the test is a
    staircase: t is minimal when t[1] is below the least second pairing kept, the last one's.
    Pairings are injective, so equal pairings are equal points; a point equal to the one before
    it is skipped untested: the first met was kept, or a kept point divides both."""
    gens, gen_ts, last = [], [], None
    for w, t in points:
        if t == last:
            continue
        last = t
        if staircase:
            minimal = not gen_ts or t[1] < gen_ts[-1][1]
        else:
            minimal = not any(all(map(le, g, t)) for g in gen_ts)
        if minimal:
            gens.append(w)
            gen_ts.append(t)
    return tuple(sorted(gens))


def run_interval(w: LatticePoint, lo: int, hi: int, tests) -> tuple[int, int]:
    """(lo, hi) narrowed: exactly the k of the given lo <= k <= hi, which may start below 0,
    with <w + k u, f> >= m for every (f, m, s) in tests, none when lo > hi. s = <u, f> is the
    facet's step along the run, computed once per region by region_tests: s > 0 bounds k
    below, s < 0 bounds it above, and 0 passes every k or none."""
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
