"""Monomial ideals of toric rings: closure under the Newton polyhedron.

Minimal generating sets are lex-sorted antichains under divisibility (w
divides w' when no sigma pairing of w exceeds that of w'), all reduced by one
routine. Integral closures and multiplier ideals share one enumeration engine
over a sigma-coordinate box around the Newton polyhedron's vertices, on the
facet thresholds of geometry.lattice_thresholds: one candidate per Hermite
run on simplicial sigma (rings.run_starts), else every box point that passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import RingMismatch, ZeroIdeal
from .geometry import LatticePoint, NewtonPolyhedron, RatPoint, hull_plus_cone, lattice_thresholds
from .linalg import dot, vadd, vscale
from .rings import ToricRing, first_in_run, lattice_points_in_box, require_exponent, run_starts

# Entries kept by each memoized ideal operation (newton_polyhedron,
# integral_closure, multiplier.multiplier_ideal); see their cache_info().
CACHE_SIZE = 1024


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal monomial exponents.

    gens is a lex-sorted antichain; the empty tuple is the zero ideal and
    the single origin generator is the unit ideal.
    """

    ring: ToricRing
    gens: tuple[LatticePoint, ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens


def monomial_ideal(ring: ToricRing, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Ideal generated by the given exponents, reduced to minimal generators."""
    pts = [require_exponent(ring, g) for g in gens]
    return MonomialIdeal(ring, minimalize(ring, pts))


def minimalize(ring: ToricRing, gens: Sequence[LatticePoint]) -> tuple[LatticePoint, ...]:
    """Drop generators divisible by another one; sort the survivors."""
    return _antichain((g, ring.pairings(g)) for g in gens)


def _antichain(points: Iterable[tuple[LatticePoint, tuple[int, ...]]]) -> tuple[LatticePoint, ...]:
    """Minimal points of (w, sigma pairings) pairs, lex-sorted.

    The pairing sum strictly increases along divisibility (the sigma rays
    span), so taken in order of pairing sum, a point is minimal exactly when
    no point kept before it divides it; a repeat is divided by its first copy.
    """
    gens: list[LatticePoint] = []
    gen_ts: list[tuple[int, ...]] = []
    for w, t in sorted(points, key=lambda wt: (sum(wt[1]), wt[1])):
        if not any(all(a <= b for a, b in zip(gt, t)) for gt in gen_ts):
            gens.append(w)
            gen_ts.append(t)
    return tuple(sorted(gens))


def _same_ring(a: MonomialIdeal, b: MonomialIdeal) -> ToricRing:
    if a.ring != b.ring:
        raise RingMismatch("ideals live in different rings")
    return a.ring


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    ring = _same_ring(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal(ring, ())
    sums = [vadd(g, h) for g in a.gens for h in b.gens]
    return MonomialIdeal(ring, minimalize(ring, sums))


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    ring = _same_ring(a, b)
    return MonomialIdeal(ring, minimalize(ring, list(a.gens) + list(b.gens)))


def contains_monomial(a: MonomialIdeal, w: Sequence[int]) -> bool:
    """Does x^w lie in the ideal, i.e. does some generator divide w?"""
    ring = a.ring
    t = ring.pairings(require_exponent(ring, w))
    return any(all(dot(g, n) <= s for n, s in zip(ring.sigma_rays, t)) for g in a.gens)


@lru_cache(maxsize=CACHE_SIZE)
def newton_polyhedron(a: MonomialIdeal) -> NewtonPolyhedron:
    """conv(generators) + exponent cone. Undefined for the zero ideal."""
    if a.is_zero:
        raise ZeroIdeal("the zero ideal has no Newton polyhedron")
    return hull_plus_cone(a.gens, a.ring.cone)


@lru_cache(maxsize=CACHE_SIZE)
def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Lattice points of the Newton polyhedron, as an ideal."""
    if a.is_zero:
        return a
    gens = region_minimal_generators(a.ring, newton_polyhedron(a), shift=None)
    return MonomialIdeal(a.ring, gens)


# ---------------------------------------------------------------------------
# Shared enumeration engine (integral closure and multiplier ideals)
# ---------------------------------------------------------------------------

def region_minimal_generators(
    ring: ToricRing,
    poly: NewtonPolyhedron,
    shift: RatPoint | None,
) -> tuple[LatticePoint, ...]:
    """Minimal generators of an upward-closed lattice region.

    With shift=None the region is {w in the semigroup : w in poly}; with
    shift=u0 it is {w : w + u0 interior to poly}. Candidates pair with each
    sigma ray n to at most the largest vertex pairing plus the sum of <r, n>
    over the dual rays r (minus 1 with the shift): beyond, w (+ u0) = p + sum
    c_r r with p in the vertex hull has some c_r > 1, so w - r divides w in
    the region. On simplicial sigma a run w + k u climbs every facet, so it
    enters the region at first_in_run, its only member that can be minimal.
    """
    off = 0 if shift is None else 1
    bounds = tuple(
        max(dot(v, n) for v in poly.vertices) + sum(dot(r, n) for r in ring.dual_rays) - off
        for n in ring.sigma_rays
    )
    tests = lattice_thresholds(poly, shift)
    if ring.run_step is None:
        points = lattice_points_in_box(ring, bounds)
        return _antichain((w, t) for w, t in points if all(dot(w, f) >= m for f, m in tests))
    u, h = ring.run_step
    firsts = ((w, t, first_in_run(w, u, n, tests)) for w, t, n in run_starts(ring, bounds))
    return _antichain((vadd(w, vscale(k, u)), (*t[:-1], t[-1] + k * h)) for w, t, k in firsts if k is not None)
