"""Multiplier ideals against the test ideal by Frobenius, a second definition.

oracles.frobenius_test_ideal reads τ_q(a) off the sigma pairings of sums of q
generators of a, with no Newton polyhedron, no canonical point u0 and no
library threshold, so it shares no code with rings.region_tests. As computed
here, J(a) from multiplier_ideal and τ_q(a) hold the same points of a box of
sigma pairings:
- at q = 64, for seeded pool ideals of up to three generators (box 10);
- at q = 64 and q = 81, for seeded ideals of up to two generators on the
  Q-Gorenstein rings of instances.principal_check_rings (2D and 3D, simplicial
  and not; box 8), on two 4D product rings, one of index r = 3 (box 6), and on
  two Gorenstein cones over lattice polygons (box 7).
Three generators in general position leave every one of the C(q + 2, 2) sums
on the oracle's antichain, seconds per ideal at q = 81, hence two off the pool.
The paper's witnesses lie in τ_32(ab), and the square-cone violation's witness
in τ_q(ab) at q = 16, 27, 32, 64 and 81, each outside J(a)·J(b). A multiplier_ideal that
walks the closure region, with no shift, or that doubles u0, disagrees with
it on some of these ideals.
"""

import random
from pathlib import Path

import pytest

import oracles
from instances import pool_rings, principal_check_rings, random_ideal
from test_products import product_ring
from toricmult.builtin_example import instance
from toricmult.geometry import PolyCone
from toricmult.ideals import product
from toricmult.multiplier import multiplier_ideal
from toricmult.problemio import load_problem
from toricmult.rings import ring_from_dual_rays

BOX = 10


def _box(ring, bound=BOX):
    return [tuple(m) for m in oracles.box_points(ring.sigma_rays, [bound] * len(ring.sigma_rays))]


def polygon_ring(vertices):
    """The Gorenstein ring whose sigma is the cone over a lattice polygon at height 1: its
    dual rays are the facet normals of the cone on the points (p, 1), p a vertex, and
    (0, 0, 1) pairs to 1 with every sigma ray."""
    return ring_from_dual_rays(PolyCone.from_rays([(*p, 1) for p in vertices]).facet_normals)


POOL_RINGS = dict(pool_rings())
# (name, ring, box bound)
RINGS = [(f"check-{k}", ring, 8) for k, ring in enumerate(principal_check_rings()) if ring.q_gorenstein]
RINGS += [
    ("index-three*plane-cusp", product_ring(POOL_RINGS["index-three-2d"], POOL_RINGS["plane-cusp-2d"]), 6),
    ("plane-cusp*orthant", product_ring(POOL_RINGS["plane-cusp-2d"], POOL_RINGS["orthant-2d"]), 6),
    ("suspended-pinch-point", polygon_ring([(0, 0), (2, 0), (1, 1), (0, 1)]), 7),
    ("hexagon", polygon_ring([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]), 7),
]


@pytest.mark.parametrize("name, ring", pool_rings(), ids=[name for name, _ in pool_rings()])
def test_multiplier_ideals_are_the_frobenius_test_ideals_on_a_box(name, ring):
    rng = random.Random(f"{name}-frobenius")
    box = _box(ring)
    for _ in range(4):
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
        j = multiplier_ideal(a)
        in_j = [m for m in box if oracles.in_ideal(j.gens, m, ring.sigma_rays)]
        assert oracles.frobenius_test_ideal(a.gens, ring.sigma_rays, 64, box) == in_j, a.gens


def test_the_rings_are_the_ones_named():
    shapes = {name: (ring.dim, len(ring.sigma_rays), ring.canonical_pair()) for name, ring, _ in RINGS}
    assert len(principal_check_rings()) == 17 and len(shapes) == 17
    assert sorted(dim for dim, _, _ in shapes.values()) == [2] * 7 + [3] * 8 + [4] * 2
    assert sum(rays > dim for dim, rays, _ in shapes.values()) == 3
    assert shapes["index-three*plane-cusp"] == (4, 4, ((2, 3, 3, 3), 3))
    assert shapes["plane-cusp*orthant"] == (4, 4, ((1, 1, 1, 1), 1))
    pinch, hexagon = (ring for _, ring, _ in RINGS[-2:])
    assert pinch.sigma_rays == ((0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 1))
    assert len(hexagon.sigma_rays) == 6 and all(s[2] == 1 for s in hexagon.sigma_rays)
    assert shapes["suspended-pinch-point"][2] == shapes["hexagon"][2] == ((0, 0, 1), 1)


@pytest.mark.parametrize("name, ring, bound", RINGS, ids=[name for name, _, _ in RINGS])
def test_multiplier_ideals_are_the_frobenius_test_ideals_at_q_64_and_81(name, ring, bound):
    rng = random.Random(f"{name}-frobenius")
    box = _box(ring, bound)
    for _ in range(3):
        a = random_ideal(rng, ring, max_gens=2, pairing_bound=6)
        j = multiplier_ideal(a)
        in_j = [m for m in box if oracles.in_ideal(j.gens, m, ring.sigma_rays)]
        for q in (64, 81):
            assert oracles.frobenius_test_ideal(a.gens, ring.sigma_rays, q, box) == in_j, (a.gens, q)


def test_the_paper_witnesses_lie_in_the_frobenius_test_ideal_of_ab():
    """(13, 10, 0) and (17, 11, 1) lie in τ_32(ab) and outside J(a)·J(b)."""
    ring, a, b = instance()
    witnesses = [(13, 10, 0), (17, 11, 1)]
    assert oracles.frobenius_test_ideal(product(a, b).gens, ring.sigma_rays, 32, witnesses) == witnesses
    j_product = product(multiplier_ideal(a), multiplier_ideal(b))
    assert not any(oracles.in_ideal(j_product.gens, w, ring.sigma_rays) for w in witnesses)


def test_the_square_cone_witness_lies_in_the_frobenius_test_ideal_of_ab():
    """(-1, 0, 2) lies in τ_q(ab) at q = 16, 27, 32, 64, 81 and outside J(a)·J(b).

    Every sum of q generators of a two-generator part of ab is a sum of q generators
    of ab, so τ_q grows with the ideal; the sums of ab's four generators are thousands
    of incomparable pairing vectors at q = 64, so only q = 16 reads them all."""
    problem = load_problem(str(Path(__file__).with_name("square_cone_violation.json")))
    a, b, sigma = problem.ideal("a"), problem.ideal("b"), problem.ring.sigma_rays
    ab, part, witness = product(a, b).gens, [(-1, -1, 2), (-1, 1, 2)], [(-1, 0, 2)]
    assert set(part) < set(ab)
    assert oracles.frobenius_test_ideal(ab, sigma, 16, witness) == witness
    for q in (16, 27, 32, 64, 81):
        assert oracles.frobenius_test_ideal(part, sigma, q, witness) == witness, q
    assert not oracles.in_ideal(product(multiplier_ideal(a), multiplier_ideal(b)).gens, witness[0], sigma)
