"""Monomial ideals of toric rings: closure under the Newton polyhedron.

Minimal generating sets are lex-sorted antichains under divisibility (w
divides w' when no sigma pairing of w exceeds that of w'), all reduced by one
routine. Integral closures and multiplier ideals share one enumeration
engine: it walks the lattice points of a sigma-coordinate box around the
Newton polyhedron's vertices (rings.lattice_points_in_box) and keeps those
that pass the integer facet thresholds of geometry.lattice_thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import RingMismatch, ZeroIdeal
from .geometry import LatticePoint, NewtonPolyhedron, RatPoint, hull_plus_cone, lattice_thresholds
from .linalg import dot, vadd, vsub
from .rings import ToricRing, lattice_points_in_box, require_exponent


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

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.ring.dim,)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return product(self, other)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)


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
    p = require_exponent(a.ring, w)
    return any(a.ring.cone.contains(vsub(p, g)) for g in a.gens)


@lru_cache(maxsize=None)
def newton_polyhedron(a: MonomialIdeal) -> NewtonPolyhedron:
    """conv(generators) + exponent cone. Undefined for the zero ideal."""
    if a.is_zero:
        raise ZeroIdeal("the zero ideal has no Newton polyhedron")
    return hull_plus_cone(a.gens, a.ring.cone)


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

    With shift=None the region is {w in the semigroup : w in poly}; with a
    shift u0 it is {w : w + u0 interior to poly}, where u0 pairs to exactly 1
    with every sigma ray. Candidates pair with each sigma ray n to at most
    the largest vertex pairing plus the slack sum of <r, n> over the dual
    rays r (minus 1 with the shift). That suffices: write w (or w + u0) as
    p + sum c_r r, p in the vertex hull, c_r >= 0 (> 0 if interior); beyond
    the bound some c_r > 1, so w - r is in the region and divides w.
    """
    off = 0 if shift is None else 1
    bounds = tuple(
        max(dot(v, n) for v in poly.vertices) + sum(dot(r, n) for r in ring.dual_rays) - off
        for n in ring.sigma_rays
    )
    tests = lattice_thresholds(poly, shift)
    return _antichain(
        (w, t) for w, t in lattice_points_in_box(ring, bounds)
        if all(dot(w, f) >= m for f, m in tests)
    )
