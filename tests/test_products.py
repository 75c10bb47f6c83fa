"""Products of rings: the closure and the multiplier ideal of a product ideal
are the products of the factors' ones, in every dimension up to 6.

Rings X and Y with dual cones C and C′ have the product ring with dual cone
C × C′, whose dual rays are (r, 0) and (0, r′). For ideals a on X and b on Y,
a⊠b is generated by the points (g, h). N(a⊠b) = N(a) × N(b), whose interior
is the product of the interiors, and u0 = (u0_X, u0_Y), so

    J(a⊠b) = J(a)⊠J(b)    and    closure(a⊠b) = closure(a)⊠closure(b).

This follows from the formula the package uses, so it checks the engine on
block cones of dimension 4 to 6 (the walk, the region bound, minimalize), not
the formula. Scope: two seeded ideal pairs per ordered pair of pool rings,
each checked for both identities. Mutations caught, each checked in a copy of
the library: the region bound of ideals.region_minimal_generators one lower,
and the clip of the last basis ray in rings._hermite_walk one lower.

A violation lifts: the paper's pair ⊠ the unit ideal on the paper's ring × 𝔸²
fails subadditivity with the paper's witnesses, padded with zeros.
"""

import random

import pytest

from instances import pool_rings, random_ideal

from toricmult.builtin_example import A_GENS, B_GENS, RING_DUAL_RAYS
from toricmult.ideals import integral_closure, monomial_ideal
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays
from toricmult.subadditivity import check_subadditivity


def product_ring(x, y):
    """The ring whose dual cone is the product of x's and y's."""
    zx, zy = (0,) * x.dim, (0,) * y.dim
    return ring_from_dual_rays([r + zy for r in x.dual_rays] + [zx + r for r in y.dual_rays])


def boxed(ring, a, b):
    """a⊠b on the product ring: the ideal of the points (g, h)."""
    return monomial_ideal(ring, [g + h for g in a.gens for h in b.gens])


def _cases():
    """(ids, a, b) for two seeded ideal pairs per ordered pair of pool rings."""
    rng = random.Random(1811)
    rings = pool_rings()
    for name_x, x in rings:
        for name_y, y in rings:
            for k in range(2):
                a = random_ideal(rng, x, max_gens=3, pairing_bound=4)
                b = random_ideal(rng, y, max_gens=3, pairing_bound=4)
                yield f"{name_x}*{name_y}-{k}", a, b


CASES = list(_cases())


@pytest.mark.parametrize("a, b", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_closure_and_multiplier_ideal_of_a_product_are_the_products(a, b):
    ring = product_ring(a.ring, b.ring)
    assert 4 <= ring.dim <= 6
    ab = boxed(ring, a, b)
    assert multiplier_ideal(ab) == boxed(ring, multiplier_ideal(a), multiplier_ideal(b))
    assert integral_closure(ab) == boxed(ring, integral_closure(a), integral_closure(b))


def test_the_paper_violation_lifts_to_the_paper_ring_times_the_plane():
    paper, plane = ring_from_dual_rays(RING_DUAL_RAYS), ring_from_dual_rays(((1, 0), (0, 1)))
    ring = product_ring(paper, plane)
    unit = monomial_ideal(plane, [(0, 0)])
    a = boxed(ring, monomial_ideal(paper, A_GENS), unit)
    b = boxed(ring, monomial_ideal(paper, B_GENS), unit)
    verdict = check_subadditivity(a, b)
    assert not verdict.holds
    assert verdict.witnesses == ((13, 10, 0, 0, 0), (17, 11, 1, 0, 0))
