"""Shared ring pool and seeded instance samplers for the property suites.

The pool spans the shapes the library claims to handle: smooth orthants, the
two documented singular rings, a Q-Gorenstein ring of index 3 (fractional
canonical point), and a non-simplicial cone over a square.  Expected sigma
rays and canonical points are frozen here from hand computation; the ring
tests assert them before the property suites lean on the pool.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import det
from toricmult.errors import NotFullDimensional
from toricmult.ideals import monomial_ideal
from toricmult.rings import ring_from_dual_rays, semigroup_points

# (name, dual cone rays, expected sigma rays, expected canonical point)
POOL = (
    ("orthant-2d", ((1, 0), (0, 1)), ((0, 1), (1, 0)), (1, 1)),
    ("orthant-3d", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (1, 1, 1)),
    (
        "counterexample-3d",
        ((2, 1, 0), (1, 2, 0), (0, 0, 1)),
        ((-1, 2, 0), (0, 0, 1), (2, -1, 0)),
        (1, 1, 1),
    ),
    ("plane-cusp-2d", ((2, 1), (1, 2)), ((-1, 2), (2, -1)), (1, 1)),
    ("index-three-2d", ((1, 0), (1, 3)), ((0, 1), (3, -1)), (Fraction(2, 3), 1)),
    (
        "square-cone-3d",
        ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
        ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)),
        (0, 0, 1),
    ),
)

# Dual rays of a cone whose facet normals admit no common canonical point:
# the pairing system <u0, n> = 1 over n in {(1,0,1), (-1,0,2), (0,1,1),
# (0,-1,3)} is inconsistent, so multiplier ideals must be refused here.
NOT_Q_GORENSTEIN_DUAL_RAYS = ((-1, -1, 1), (-1, 3, 1), (2, -1, 1), (2, 3, 1))


def pool_rings():
    return [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]


def random_non_simplicial_rings(seed: int, dim: int, ray_counts: tuple[int, int], count: int):
    """Cones on random rays with last coordinate >= 1 (so pointed) that have
    more facets than dimensions, and sigma rays small enough for a box scan."""
    rng = random.Random(seed)
    rings = []
    while len(rings) < count:
        rays = [
            (*(rng.randint(-3, 3) for _ in range(dim - 1)), rng.randint(1, 3))
            for _ in range(rng.randint(*ray_counts))
        ]
        try:
            ring = ring_from_dual_rays(rays)
        except NotFullDimensional:
            continue
        if len(ring.sigma_rays) > ring.dim and max(max(map(abs, n)) for n in ring.sigma_rays) <= 12:
            rings.append(ring)
    return rings


# Sigma rays (-2, 2, 1), (-1, -1, 0), (-1, 0, 0), (2, 0, 1). The greedy basis,
# the first three, had the run step u = (-1, 1, -4), and the last ray paired to
# -6 with it, which only a few random cones do. The facet-first basis (0, 2, 1)
# spans the facet of the dual ray (0, -1, 2), which is the run step.
STEPPING_DOWN = ring_from_dual_rays(((-1, -2, 2), (-1, 1, 2), (0, -1, 2), (0, 0, 1)))


def random_2d_dual_rays(rng: random.Random, bound: int = 7):
    """Two primitive, linearly independent rays with entries bounded by `bound`."""
    from math import gcd

    while True:
        r1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        r2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if r1 == (0, 0) or r2 == (0, 0):
            continue
        if r1[0] * r2[1] - r1[1] * r2[0] == 0:
            continue
        r1 = tuple(c // gcd(abs(r1[0]), abs(r1[1])) for c in r1)
        r2 = tuple(c // gcd(abs(r2[0]), abs(r2[1])) for c in r2)
        return r1, r2


def random_2d_ring(rng: random.Random, bound: int = 7):
    return ring_from_dual_rays(random_2d_dual_rays(rng, bound))


def random_3d_ring(rng: random.Random):
    """A simplicial cone on three independent rays with small entries."""
    while True:
        rays = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if 0 < abs(det(rays)) <= 5:
            return ring_from_dual_rays(rays)


def random_ideal(rng: random.Random, ring, max_gens: int = 4, pairing_bound: int = 30):
    """A nonzero monomial ideal with bounded sigma-pairings."""
    candidates = [w for w in semigroup_points(ring, pairing_bound) if any(w)]
    count = rng.randint(1, min(max_gens, len(candidates)))
    return monomial_ideal(ring, rng.sample(candidates, count))
