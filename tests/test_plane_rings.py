"""Plane rings in closed form against the references.

Two independent rays in the plane need no elimination: PolyCone.from_rays
returns their quarter turns, each signed to face the other ray, and
ToricRing.q_gorenstein takes w0 as the primitive quarter turn of n1 - n2.
Each is checked here against the cold double description
(oracles.cold_extreme_rays), the rotation of oracles.sigma_rays_2d, the
basis solve of oracles.q_gorenstein and oracles.facet_first_basis, on seeded
ray pairs with entries up to 250 in both orientations and on the 2D rings of
the pool and of the seeded samplers. A spy on linalg._echelon shows that
setting up such a ring runs no elimination, while three plane rays still
take the double description.
"""

import random

import pytest

import oracles
from instances import POOL, random_2d_dual_rays
from toricmult import linalg
from toricmult.errors import NotFullDimensional
from toricmult.geometry import PolyCone
from toricmult.linalg import primitivize
from toricmult.rings import ToricRing


def _pairs():
    """Seeded independent pairs with entries up to 250, some not primitive, the pool's
    2D rings and the seeded 2D sampler's rays, each pair also in the other order."""
    rng = random.Random(4507)
    pairs = [dual for _, dual, _, _ in POOL if len(dual[0]) == 2]
    pairs += [random_2d_dual_rays(rng) for _ in range(40)]
    while len(pairs) < 400:
        r1, r2 = ((rng.randint(-250, 250), rng.randint(-250, 250)) for _ in range(2))
        if r1[0] * r2[1] != r1[1] * r2[0]:
            pairs.append((r1, r2))
    return pairs + [(r2, r1) for r1, r2 in pairs]


PAIRS = _pairs()


def test_the_pairs_reach_both_orientations_and_large_determinants():
    dets = [r1[0] * r2[1] - r1[1] * r2[0] for r1, r2 in PAIRS]
    assert min(dets) < -10_000 and max(dets) > 10_000
    assert any(primitivize(r) != r for pair in PAIRS for r in pair)


def test_a_plane_cone_is_the_cold_double_description():
    for pair in PAIRS:
        prim = [primitivize(r) for r in pair]
        cone = PolyCone.from_rays(pair)
        assert cone.rays == tuple(sorted(prim)), pair
        assert cone.facet_normals == tuple(oracles.cold_extreme_rays(prim, 2)) == oracles.sigma_rays_2d(*prim), pair
        # an interior third ray takes the double description to the same cone
        assert PolyCone.from_rays([*pair, tuple(map(sum, zip(*prim)))]) == cone, pair


def test_a_plane_ring_has_the_canonical_point_and_basis_of_the_references():
    for pair in PAIRS:
        ring = ToricRing(PolyCone.from_rays(pair))
        assert ring.q_gorenstein == oracles.q_gorenstein(ring.sigma_rays), pair
        assert ring.sigma_lattice[0] == oracles.facet_first_basis(ring.sigma_rays, ring.dual_rays) == (0, 1), pair


def _eliminations(monkeypatch):
    calls = []
    echelon = linalg._echelon

    def spy(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", spy)
    return calls


def test_setting_up_a_plane_ring_runs_no_elimination(monkeypatch):
    calls = _eliminations(monkeypatch)
    for pair in PAIRS:
        ring = ToricRing(PolyCone.from_rays(pair))
        assert ring.canonical_shift() and ring.walk_plan
    assert calls == []
    PolyCone.from_rays([(1, 0), (1, 1), (0, 1)])
    assert calls, "three plane rays take the double description"
    calls.clear()
    ToricRing(PolyCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 1)])).canonical_shift()
    assert calls, "a 3D ring eliminates"


@pytest.mark.parametrize("rays", [((1, 0), (2, 0)), ((1, 2), (-1, -2)), ((3, 6), (-2, -4)), ((0, -5), (0, 7))])
def test_parallel_and_opposite_rays_are_refused_as_the_double_description_refuses_them(rays):
    prim = list(dict.fromkeys(map(primitivize, rays)))
    with pytest.raises(NotFullDimensional) as expected:
        oracles.cold_extreme_rays(prim, 2)
    with pytest.raises(NotFullDimensional) as refused:
        PolyCone.from_rays(rays)
    assert str(refused.value) == str(expected.value) == "cone spans only 1 of 2 dimensions"
