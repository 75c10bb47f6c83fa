"""Monomial ideals of toric rings: generators, products, Newton polyhedra and closures.

An ideal is its minimal generators, kept by one dominance pass
(rings.antichain) over sorted points (minimalize). newton_polyhedron and
integral_closure are computed once per translation class
(per_translation_class). A closure's generators are read off its region of
N(a) as a multiplier ideal's are (region_minimal_generators), only where
needed: a point is in closure(a) iff in N(a).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from operator import add, itemgetter, le, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import RingMismatch, ZeroIdeal
from .geometry import LatticePoint, NewtonPolyhedron, cached_property, hull_plus_cone
from .linalg import dot, vadd
from .rings import CACHE_SIZE, ToricRing, antichain, exponent_pairings, region_generators, region_tests


class _Ideal(NamedTuple):
    ring: ToricRing
    gens: tuple[LatticePoint, ...]


class MonomialIdeal(_Ideal):
    """Monomial ideal given by its minimal monomial exponents.

    gens is a lex-sorted antichain; the empty tuple is the zero ideal and
    the single origin generator is the unit ideal. An ideal is the tuple
    (ring, gens), equal to another with the same ring and generators. Its
    pairings are derived, not a field, so they are not compared, hashed or
    carried over by _replace.
    """

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @cached_property
    def pairings(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's sigma pairings, computed once for the ideal's divisibility tests."""
        return tuple(map(self.ring.pairings, self.gens))

    def moved(self, c: LatticePoint) -> "MonomialIdeal":
        """c + a: every generator moved by c, which keeps them a lex-sorted antichain."""
        return MonomialIdeal(self.ring, tuple(tuple(map(add, g, c)) for g in self.gens))


def per_translation_class(compute):
    """Memoize compute, with f(c + a) = c + f(a), once per translation class.

    It serves newton_polyhedron, integral_closure and multiplier.multiplier_ideal: for a
    lattice vector c, N(c + a) = c + N(a), and translation keeps divisibility and fixes u0,
    so closure(c + a) = c + closure(a) and J(c + a) = c + J(a).

    Each ideal asked for is a key of one memo. On a miss, the cell of its class, keyed on
    (ring, gens - g0) for g0 the lex-first generator, holds the answer of the first member
    met, computed as it is, with that member's g0; a member with lex-first generator g0' gets
    it moved by g0' - g0. So compute only ever sees an ideal that was asked for, called directly
    rather than through the memo or a module-level name, and no memo holds an ideal of its own
    making: the N(a) built for J(a) is the entry that decompose_2d and refutations read.
    An error leaves the cell empty. cache_clear empties the cells (.classes) too, and
    __wrapped__ is compute.
    """

    @lru_cache(maxsize=CACHE_SIZE)
    def classes(ring: ToricRing, gens: tuple[LatticePoint, ...]) -> list:
        return []

    @lru_cache(maxsize=CACHE_SIZE)
    def memo(a: MonomialIdeal):
        if not a.gens:
            return compute(a)
        g0 = a.gens[0]
        cell = classes(a.ring, tuple(tuple(map(sub, g, g0)) for g in a.gens))
        if cell:
            first, answer = cell
            return answer.moved(tuple(map(sub, g0, first)))
        answer = compute(a)
        cell[:] = g0, answer
        return answer

    clear_members = memo.cache_clear

    def cache_clear() -> None:
        clear_members()
        classes.cache_clear()

    memo.cache_clear, memo.classes = cache_clear, classes
    return wraps(compute)(memo)


def monomial_ideal(ring: ToricRing, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Ideal generated by the given exponents, reduced to minimal generators."""
    return MonomialIdeal(ring, minimalize(ring, [exponent_pairings(ring, g) for g in gens]))


def minimalize(ring: ToricRing, points: Iterable[tuple[LatticePoint, tuple[int, ...]]]) -> tuple[LatticePoint, ...]:
    """Minimal points of (w, sigma pairings) pairs, lex-sorted: rings.antichain over them sorted by pairings."""
    return antichain(sorted(points, key=itemgetter(1)), len(ring.sigma_rays) == 2)


def _same_ring(a: MonomialIdeal, b: MonomialIdeal) -> ToricRing:
    if a.ring != b.ring:
        raise RingMismatch("ideals live in different rings")
    return a.ring


@lru_cache(maxsize=CACHE_SIZE)
def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """a·b, minimalized from every sum g + h of a generator of a and one of b, whose
    pairings are those of g plus those of h; memoized, as a construction and the check
    of its pair both multiply the pair. The factors' pairings are computed here, not read
    from a.pairings: that would compute and keep them on ideals that never test divisibility."""
    ring = _same_ring(a, b)
    gs = [(g, ring.pairings(g)) for g in a.gens]
    hs = [(h, ring.pairings(h)) for h in b.gens]
    sums = [(vadd(g, h), vadd(tg, th)) for g, tg in gs for h, th in hs]
    return MonomialIdeal(ring, minimalize(ring, sums))


@lru_cache(maxsize=CACHE_SIZE)
def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """a + b, minimalized; memoized, as a search sums each generator pair once for its gap
    points and again for every construction lifted from it."""
    ring = _same_ring(a, b)
    return MonomialIdeal(ring, minimalize(ring, [(g, ring.pairings(g)) for g in a.gens + b.gens]))


def contains_monomial(a: MonomialIdeal, w: Sequence[int]) -> bool:
    """Does x^w lie in the ideal, i.e. does some generator divide w?"""
    _, t = exponent_pairings(a.ring, w)
    return any(all(map(le, g, t)) for g in a.pairings)


@per_translation_class
def newton_polyhedron(a: MonomialIdeal) -> NewtonPolyhedron:
    """conv(generators) + exponent cone, once per translation class. ZeroIdeal for the zero ideal."""
    if a.is_zero:
        raise ZeroIdeal("the zero ideal has no Newton polyhedron")
    return hull_plus_cone(a.gens, a.ring.cone)


@per_translation_class
def integral_closure(a: MonomialIdeal) -> MonomialIdeal:
    """Lattice points of N(a), as an ideal. A principal ideal ⟨g⟩ is its own
    closure: the ring is normal, so (g + cone) ∩ M = g + semigroup. Once per translation class."""
    if len(a.gens) <= 1:
        return a
    return MonomialIdeal(a.ring, region_minimal_generators(a, None))


# ---------------------------------------------------------------------------
# Shared enumeration engine (integral closure and multiplier ideals)
# ---------------------------------------------------------------------------

def region_minimal_generators(a: MonomialIdeal, shift: tuple[Sequence[int], int] | None) -> tuple[LatticePoint, ...]:
    """Minimal generators of an upward-closed lattice region of N = N(a), read by
    rings.region_generators from the floors and tests of its thresholds (rings.region_tests).

    With shift=None the region is {w in the semigroup : w in N}; with a shift
    (num, D) it is {w : w + s interior to N}, s = num / D, and (w0, r) for J (canonical_pair).
    Minimal generators pair with each sigma ray n to at most its floor plus
    the vertex pairings' spread and the sum of <r, n> over the dual rays r,
    less 1 with a shift: the largest vertex pairing plus that sum, less
    ⌈<s, n>⌉. Beyond, w + s = p + Σ c_r r with p in the vertex hull has some
    c_r > 1, so w - r divides w in the region, as w - r + s lies on the
    segment from w + s to w + s - c_r r, a point of N.
    """
    ring, poly = a.ring, newton_polyhedron(a)
    floors, tests = region_tests(ring, poly, shift)
    bounds = []
    for n, floor, reach in zip(ring.sigma_rays, floors, ring.dual_ray_pairings):
        # the bound less the floor: the vertex pairings' spread and the reach, less 1 with a shift
        pairings = [dot(v, n) for v in poly.vertices]
        bounds.append(floor + max(pairings) - min(pairings) + reach - (shift is not None))
    return region_generators(ring, bounds, floors, tests)
