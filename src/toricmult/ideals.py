"""Monomial ideals of toric rings: closure under the Newton polyhedron.

Minimal generating sets are kept as lex-sorted antichains under divisibility
(w divides w' when w' - w stays in the exponent cone). Integral closures and
multiplier ideals are produced by one shared enumeration engine: it takes
the lattice points of a sigma-coordinate box around the Newton polyhedron's
vertices from rings.lattice_points_in_box, which walks the lattice itself
rather than the whole box, keeps those in the region and reduces them to
minimal generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor
from typing import Iterable, Sequence

from .errors import RingMismatch, ZeroIdeal
from .geometry import LatticePoint, NewtonPolyhedron, RatPoint, hull_plus_cone
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
    unique = sorted(set(gens))
    kept = []
    for g in unique:
        divisible = any(
            other != g and ring.cone.contains(vsub(g, other)) for other in unique
        )
        if not divisible:
            kept.append(g)
    return tuple(kept)


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
    with every sigma ray. Candidates are enumerated in a box bounded by the
    vertex pairings plus a slack; the slack starts at the sum of the dual-ray
    pairings, which a descent argument proves sufficient, and doubles if the
    frontier verification ever fails.
    """
    ns = ring.sigma_rays
    maxvert = [max(dot(v, n) for v in poly.vertices) for n in ns]
    slack = [sum(dot(r, n) for r in ring.dual_rays) for n in ns]

    # integer thresholds: facet offsets are integral (every facet holds a
    # lattice vertex), so membership tests reduce to integer comparisons
    tests = []
    for h in poly.facets:
        if shift is None:
            assert h.offset.denominator == 1
            tests.append((h.normal, h.offset.numerator))
        else:
            bar = h.offset - Fraction(dot(h.normal, shift))
            tests.append((h.normal, floor(bar) + 1))

    for _ in range(8):
        off = 0 if shift is None else 1
        bounds = tuple(mv + s - off for mv, s in zip(maxvert, slack))
        members = []
        for w, t in lattice_points_in_box(ring, bounds):
            if all(dot(w, f) >= m for f, m in tests):
                members.append((w, t))
        members.sort(key=lambda wt: (sum(wt[1]), wt[1]))
        gens: list[LatticePoint] = []
        gen_ts: list[tuple[int, ...]] = []
        for w, t in members:
            if not any(all(a <= b for a, b in zip(gt, t)) for gt in gen_ts):
                gens.append(w)
                gen_ts.append(t)
        frontier_ok = all(
            any(all(a <= b for a, b in zip(gt, t)) for gt in gen_ts)
            for _, t in members
            if any(ti == bi for ti, bi in zip(t, bounds))
        )
        if frontier_ok:
            return tuple(sorted(gens))
        slack = [2 * s for s in slack]
    raise AssertionError("enumeration box failed to stabilize")
