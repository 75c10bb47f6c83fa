"""Plane rings in closed form against the references.

Two independent rays in the plane need no elimination: PolyCone.from_rays
returns their quarter turns, each signed to face the other ray, and
ToricRing.q_gorenstein takes w0 as the primitive quarter turn of n1 - n2.
Each is checked here against the cold double description
(oracles.cold_extreme_rays), the rotation of oracles.sigma_rays_2d, the
basis solve of oracles.q_gorenstein and oracles.facet_first_basis, on seeded
ray pairs with entries up to 250 in both orientations and on the 2D rings of
the pool and of the seeded samplers. A plane Newton polygon is the lower
convex chain of its points' staircase, checked against the cold double
description of oracles.cold_hull_plus_cone on seeded point sets over those
pairs. Spies on linalg._echelon and geometry._insert_rows show that setting
up such a ring, and the Newton polygons, closures, multiplier ideals,
subadditivity checks and splits of its ideals, run no elimination, while
three plane rays and a 3D ring still take both.
"""

import random

import pytest

import oracles
from instances import POOL, random_2d_dual_rays, random_ideal
from toricmult import geometry, linalg
from toricmult.errors import NotFullDimensional
from toricmult.geometry import PolyCone, hull_plus_cone
from toricmult.ideals import integral_closure, newton_polyhedron
from toricmult.linalg import dot, primitivize
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ToricRing, ring_from_dual_rays
from toricmult.subadditivity import _edge_regions, check_subadditivity, decompose_2d


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


def ring_det(pair):
    """The determinant of the pair's primitive rays, in their order: the index of the lattice
    of sigma pairings, with the pair's orientation as its sign."""
    (a, b), (c, d) = map(primitivize, pair)
    return a * d - b * c


def test_the_pairs_reach_both_orientations_and_large_determinants():
    """Measured on the rings' primitive rays, not the raw rays, 284 of the 800 pairs pass
    |det| 10,000, half of them in each orientation."""
    dets = [ring_det(pair) for pair in PAIRS]
    assert min(dets) < -10_000 and max(dets) > 10_000
    assert sum(d > 10_000 for d in dets) == sum(d < -10_000 for d in dets) == 142
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


def _point_sets():
    """(cone, points) per seeded set over PAIRS, each pair in turn: a single point, a collinear
    run alone or among other points, and random points with repeats and points dominated
    along the cone's rays, coordinates up to 40."""
    rng = random.Random(4621)
    sets = []
    for i in range(2400):
        cone = PolyCone.from_rays(PAIRS[i % len(PAIRS)])
        pts = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(rng.randint(1, 6))]
        kind = i % 4
        if kind == 0:
            pts = pts[:1]
        elif kind in (1, 2):
            step = (rng.randint(-5, 5), rng.randint(-5, 5))
            run = [tuple(p + k * s for p, s in zip(pts[0], step)) for k in range(rng.randint(2, 6))]
            pts = run if kind == 1 else run + pts[1:]
        else:
            pts += [rng.choice(pts) for _ in range(2)]
            pts += [tuple(p + rng.randint(0, 3) * r + rng.randint(0, 3) * s for p, r, s in zip(rng.choice(pts), *cone.rays))]
        rng.shuffle(pts)
        sets.append((cone, pts))
    return sets


def test_a_plane_polygon_is_the_cold_double_description():
    orientations, on_an_edge, dominated = set(), 0, 0
    for cone, pts in _point_sets():
        polygon = hull_plus_cone(pts, cone)
        assert polygon == oracles.cold_hull_plus_cone(pts, cone), (cone, pts)
        (a, b), (c, d) = cone.rays
        orientations.add(a * d > b * c)
        bounded = [h for h in polygon.facets if h.normal not in cone.facet_normals]
        others = set(pts) - set(polygon.vertices)
        on_an_edge += any(dot(h.normal, p) == h.offset for h in bounded for p in others)
        dominated += bool(others)
    assert orientations == {True, False} and on_an_edge >= 100 and dominated >= 500


def _spies(monkeypatch):
    """The names of linalg._echelon, every elimination's one loop, and geometry._insert_rows,
    the double description's, one per call."""
    calls = []
    for module, name in ((linalg, "_echelon"), (geometry, "_insert_rows")):

        def spy(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_setting_up_a_plane_ring_runs_no_elimination(monkeypatch):
    calls = _spies(monkeypatch)
    for pair in PAIRS:
        ring = ToricRing(PolyCone.from_rays(pair))
        assert ring.canonical_shift() and ring.walk_plan
    assert calls == []
    PolyCone.from_rays([(1, 0), (1, 1), (0, 1)])
    assert set(calls) == {"_echelon", "_insert_rows"}, "three plane rays take the double description"
    calls.clear()
    ring = ToricRing(PolyCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
    assert set(calls) == {"_echelon", "_insert_rows"}, "a 3D cone eliminates"
    calls.clear()
    ring.canonical_shift()
    newton_polyhedron.cache_clear()
    newton_polyhedron(random_ideal(random.Random(4625), ring, max_gens=3, pairing_bound=6))
    assert set(calls) == {"_echelon", "_insert_rows"}, "a 3D ring and its Newton polyhedron eliminate"


def test_the_ideals_of_a_plane_ring_run_no_elimination(monkeypatch):
    """N, J and the closure of each ideal, the subadditivity check of each pair and the split
    of every generator of J(ab), on memos emptied first, over the pool's and the sampler's rings."""
    for layer in (newton_polyhedron, integral_closure, multiplier_ideal, check_subadditivity, _edge_regions):
        layer.cache_clear()
    rng = random.Random(4627)
    pairs = []
    for dual in PAIRS[:43]:  # the pool's 2D rings and the sampler's, with room for small ideals
        ring = ring_from_dual_rays(dual)
        pairs.append(tuple(random_ideal(rng, ring, max_gens=4, pairing_bound=20) for _ in range(2)))
    calls = _spies(monkeypatch)
    splits = 0
    for a, b in pairs:
        assert newton_polyhedron(a) and multiplier_ideal(a) and integral_closure(a)
        verdict = check_subadditivity(a, b)
        assert verdict.holds
        for g in verdict.j_ab.gens:
            splits += decompose_2d(g, a, b).remainder_check.contained
    assert calls == [] and splits >= 100


@pytest.mark.parametrize("rays", [((1, 0), (2, 0)), ((1, 2), (-1, -2)), ((3, 6), (-2, -4)), ((0, -5), (0, 7))])
def test_parallel_and_opposite_rays_are_refused_as_the_double_description_refuses_them(rays):
    prim = list(dict.fromkeys(map(primitivize, rays)))
    with pytest.raises(NotFullDimensional) as expected:
        oracles.cold_extreme_rays(prim, 2)
    with pytest.raises(NotFullDimensional) as refused:
        PolyCone.from_rays(rays)
    assert str(refused.value) == str(expected.value) == "cone spans only 1 of 2 dimensions"
