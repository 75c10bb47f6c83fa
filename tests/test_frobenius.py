"""Multiplier ideals against the test ideal by Frobenius, a second definition.

oracles.frobenius_test_ideal reads τ_q(a) off the sigma pairings of sums of q
generators of a, with no Newton polyhedron, no canonical point u0 and no
library threshold, so it shares no code with rings.region_tests. At q = 64,
J(a) from multiplier_ideal and τ_64(a) hold the same points of the box of
sigma pairings at most 10, for seeded pool ideals of up to three generators,
as computed here. The paper's witnesses lie in τ_32(ab) and outside J(a)·J(b).
A multiplier_ideal that walks the closure region, with no shift, or that
doubles u0, disagrees with it on some of these ideals.
"""

import random

import pytest

import oracles
from instances import pool_rings, random_ideal
from toricmult.builtin_example import instance
from toricmult.ideals import product
from toricmult.multiplier import multiplier_ideal

BOX = 10


def _box(ring):
    return [tuple(m) for m in oracles.box_points(ring.sigma_rays, [BOX] * len(ring.sigma_rays))]


@pytest.mark.parametrize("name, ring", pool_rings(), ids=[name for name, _ in pool_rings()])
def test_multiplier_ideals_are_the_frobenius_test_ideals_on_a_box(name, ring):
    rng = random.Random(f"{name}-frobenius")
    box = _box(ring)
    for _ in range(4):
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
        j = multiplier_ideal(a)
        in_j = [m for m in box if oracles.in_ideal(j.gens, m, ring.sigma_rays)]
        assert oracles.frobenius_test_ideal(a.gens, ring.sigma_rays, 64, box) == in_j, a.gens


def test_the_paper_witnesses_lie_in_the_frobenius_test_ideal_of_ab():
    """(13, 10, 0) and (17, 11, 1) lie in τ_32(ab) and outside J(a)·J(b)."""
    ring, a, b = instance()
    witnesses = [(13, 10, 0), (17, 11, 1)]
    assert oracles.frobenius_test_ideal(product(a, b).gens, ring.sigma_rays, 32, witnesses) == witnesses
    j_product = product(multiplier_ideal(a), multiplier_ideal(b))
    assert not any(oracles.in_ideal(j_product.gens, w, ring.sigma_rays) for w in witnesses)
