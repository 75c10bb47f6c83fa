"""Multiplier ideals of monomial ideals on Q-Gorenstein toric rings.

J(a) is generated by the monomials whose exponent, shifted by the canonical
point u0, lands in the interior of the Newton polyhedron of a. The shift u0
pairs to exactly 1 with every sigma ray, integrally so on Gorenstein rings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import ZeroIdeal
from .geometry import MembershipReport, membership
from .ideals import CACHE_SIZE, MonomialIdeal, newton_polyhedron, region_minimal_generators
from .linalg import vadd
from .rings import require_exponent


@lru_cache(maxsize=CACHE_SIZE)
def multiplier_ideal(a: MonomialIdeal) -> MonomialIdeal:
    """The multiplier ideal J(a), by enumeration of the shifted interior region."""
    u0 = a.ring.canonical_shift()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    gens = region_minimal_generators(a, u0)
    return MonomialIdeal(a.ring, gens)


def multiplier_membership(a: MonomialIdeal, w: Sequence[int]) -> MembershipReport:
    """Does x^w belong to J(a)? Reports the exact pairing against every facet."""
    u0 = a.ring.canonical_shift()
    if a.is_zero:
        raise ZeroIdeal("the multiplier ideal of the zero ideal is undefined")
    p = require_exponent(a.ring, w)
    return membership(newton_polyhedron(a), vadd(p, u0), relative_interior=True)
