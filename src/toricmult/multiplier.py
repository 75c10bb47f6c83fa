"""Multiplier ideals of monomial ideals on Q-Gorenstein toric rings.

J(a) is generated by the monomials whose exponent, shifted by the canonical
point u0, lands in the interior of the Newton polyhedron of a. The shift u0
pairs to exactly 1 with every sigma ray, integrally so on Gorenstein rings.
For a lattice vector c, J(c + a) = c + J(a): u0 is fixed and N(c + a) = c + N(a),
so ideals.per_translation_class memoizes J once per translation class.
A principal ideal needs no walk: N(⟨g⟩) = g + σ^∨, and as ⟨u0, n⟩ = 1 on every
sigma ray n, ⟨w − g + u0, n⟩ > 0 iff ⟨w − g, n⟩ ≥ 0 for a lattice point w, so
J(⟨g⟩) = ⟨g⟩. So a pair with a principal factor is subadditive, as
J(g + b) = g + J(b) = J(⟨g⟩)·J(b), and check_subadditivity says so untested.
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
    """The multiplier ideal J(a), by enumeration of the shifted interior region of N(a).
    A principal ideal is its own multiplier ideal: J(⟨g⟩) = ⟨g⟩."""
    u0 = a.ring.canonical_shift()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    if len(a.gens) == 1:
        return a
    return MonomialIdeal(a.ring, region_minimal_generators(a, u0))


def multiplier_membership(a: MonomialIdeal, w: Sequence[int]) -> MembershipReport:
    """Does x^w belong to J(a)? Reports the exact pairing against every facet."""
    u0 = a.ring.canonical_shift()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    p, _ = exponent_pairings(a.ring, w)
    return membership(newton_polyhedron(a), vadd(p, u0), relative_interior=True)
