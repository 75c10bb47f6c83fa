"""Multiplier ideals of monomial ideals on Q-Gorenstein toric rings.

J(a) is generated by the monomials x^w with w + u0 interior to N(a), for u0
the canonical point; multiplier_ideal lists them, from u0 in integers
(ToricRing.canonical_pair), and multiplier_membership tests one.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ZeroIdeal
from .geometry import MembershipReport, membership
from .ideals import MonomialIdeal, newton_polyhedron, per_translation_class, region_minimal_generators
from .linalg import vadd
from .rings import exponent_pairings


@per_translation_class
def multiplier_ideal(a: MonomialIdeal) -> MonomialIdeal:
    """The multiplier ideal J(a), walked as the region of N(a) shifted by u0, once per translation
    class. NotQGorenstein on a ring with no u0, ZeroIdeal for the zero ideal.

    A principal ideal is its own multiplier ideal, with no walk: N(⟨g⟩) = g + σ^∨, and as
    ⟨u0, n⟩ = 1 on every sigma ray n, ⟨w − g + u0, n⟩ > 0 iff ⟨w − g, n⟩ ≥ 0 for a lattice
    point w, so J(⟨g⟩) = ⟨g⟩.
    """
    pair = a.ring.canonical_pair()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    if len(a.gens) == 1:
        return a
    return MonomialIdeal(a.ring, region_minimal_generators(a, pair))


def multiplier_membership(a: MonomialIdeal, w: Sequence[int]) -> MembershipReport:
    """Does x^w belong to J(a)? Reports the exact pairing against every facet."""
    u0 = a.ring.canonical_shift()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    p, _ = exponent_pairings(a.ring, w)
    return membership(newton_polyhedron(a), vadd(p, u0), relative_interior=True)
