"""Multiplier ideals on plane rings against their definition on a log resolution.

Every J the package computes rests on one formula: x^w lies in J(a) iff
w + u0 is interior to N(a). oracles.multiplier_scan re-derives N(a) by
Fourier-Motzkin but applies the same formula. oracles.multiplier_resolution
does not: it builds a smooth fan refining the normal fan of N(a), from the
sigma rays, N(a)'s facet normals and the Hirzebruch-Jung points between
consecutive ones, and keeps x^w when <w + u0, v> > min_g <g, v> on every ray
v, <u0, v> being the log discrepancy of v's divisor (Lazarsfeld, Positivity
II, ch. 9; Cox-Little-Schenck, Toric Varieties, section 11.1). Here it must
give multiplier_ideal's generators on the plane rings of the pool and on
seeded random plane rings, for seeded ideals of one to four generators.
"""

import random

from instances import POOL, random_2d_ring, random_ideal
import oracles
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays


def _cases():
    """(ring, ideal) per seeded ideal: eight on each plane ring of the pool, five on each of
    forty seeded random plane rings."""
    rng = random.Random(6151)
    rings = [ring_from_dual_rays(dual) for _, dual, _, _ in POOL if len(dual[0]) == 2]
    cases = [(ring, random_ideal(rng, ring, 4, 12)) for ring in rings for _ in range(8)]
    for _ in range(40):
        ring = random_2d_ring(rng, bound=5)
        cases += [(ring, random_ideal(rng, ring, 4, 12)) for _ in range(5)]
    return cases


def test_the_hirzebruch_jung_points_of_the_index_three_cone():
    """The pool's index-three ring, dual to cone((1, 0), (1, 3)), has the sigma cone
    cone((3, -1), (0, 1)) of determinant 3: one point (1, 0) resolves it, a (-3)-curve.
    cone((1, 0), (1, 5)) is the A4 cone: four points, four (-2)-curves."""
    assert oracles.hirzebruch_jung((3, -1), (0, 1)) == [(3, -1), (1, 0), (0, 1)]
    assert oracles.hirzebruch_jung((1, 0), (1, 5)) == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]


def test_the_resolution_of_x2_y3_on_the_plane():
    """N(<x^2, y^3>) adds the normal (3, 2), of order 6; the fan is subdivided at (2, 1) and
    (1, 1), and J = <x, y>: 1 + u0 pairs 5 with (3, 2), while x + u0 pairs 8 and y + u0 7."""
    plane = ((1, 0), (0, 1))
    assert oracles.resolution_rays([(2, 0), (0, 3)], plane) == [(1, 0), (2, 1), (3, 2), (1, 1), (0, 1)]
    assert oracles.multiplier_resolution([(2, 0), (0, 3)], plane) == ((0, 1), (1, 0))


def test_multiplier_ideals_match_the_log_resolution():
    rays, exceptional = [], 0
    for ring, a in _cases():
        assert multiplier_ideal(a).gens == oracles.multiplier_resolution(a.gens, ring.dual_rays), (ring, a.gens)
        fan = oracles.resolution_rays(a.gens, ring.dual_rays)
        rays.append(len(fan))
        exceptional += len(fan) > 2
    assert len(rays) == 224 and max(rays) >= 100 and exceptional >= 180
