"""The double description against its cold-start reference.

`hull_plus_cone` starts warm from the recession cone and the first point, and
`PolyCone.from_rays` cold from a greedy basis; both run the one bitset
insertion loop once and read their vertices or extreme rays off the zero sets
it returns. `oracles.cold_extreme_rays` and `oracles.cold_hull_plus_cone` are
the points-first double description with `frozenset` zero sets that the loop
replaced: the vertices there are the points whose tight normals have full
rank, and `_cold_cone` below runs a second double description over the facet
normals for the extreme rays. Each case here must give the same rays, facets
and vertices.
"""

import random

import pytest

from instances import POOL, STEPPING_DOWN, random_2d_ring, random_non_simplicial_rings
from oracles import cold_extreme_rays, cold_hull_plus_cone

from toricmult.errors import NotFullDimensional, NotPointed
from toricmult.geometry import PolyCone, hull_plus_cone
from toricmult.linalg import primitivize
from toricmult.rings import ring_from_dual_rays


def _ring_groups():
    rng = random.Random(307)
    return {
        "pool": [ring_from_dual_rays(dual) for _, dual, _, _ in POOL],
        "random-2d": [random_2d_ring(rng) for _ in range(40)],
        "non-simplicial": (
            random_non_simplicial_rings(71, 3, (4, 6), 30) + random_non_simplicial_rings(73, 4, (5, 6), 12)
        ),
        "stepping-down": [STEPPING_DOWN],
    }


RING_GROUPS = _ring_groups()


def _scaled(k, v):
    return tuple(k * a for a in v)


def _point_sets(ring, rng):
    """Random point sets, with the degenerate shapes the warm start seeds on."""
    d = ring.dim
    ray = ring.cone.rays[0]
    p = tuple(rng.randint(-4, 4) for _ in range(d))
    q = tuple(rng.randint(-4, 4) for _ in range(d))
    sets = [
        [p],  # one point
        [p, q, p, q, p],  # duplicated points
        [(0,) * d],  # the origin
        [(0,) * d, p, q],
        [_scaled(k, ray) for k in (3, 0, 1, 5)],  # on one recession ray
        [tuple(a + b for a, b in zip(p, _scaled(k, ray))) for k in (2, 0, 4)],
        [p, q, tuple(2 * b - a for a, b in zip(p, q))],  # a segment: q is tight on its faces, never a vertex
    ]
    for _ in range(12):
        sets.append([tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(1, 9))])
    return sets


@pytest.mark.parametrize("group", sorted(RING_GROUPS))
def test_hull_plus_cone_equals_the_cold_start(group):
    rng = random.Random(group)
    for ring in RING_GROUPS[group]:
        for pts in _point_sets(ring, rng):
            assert hull_plus_cone(pts, ring.cone) == cold_hull_plus_cone(pts, ring.cone), (ring.dual_rays, pts)


def _cold_cone(rows):
    """(rays, facet normals) of cone(rows) by the reference, or the error class."""
    prim = []
    for r in rows:
        p = primitivize(r)
        if p not in prim:
            prim.append(p)
    dim = len(rows[0])
    try:
        normals = cold_extreme_rays(prim, dim)
    except NotFullDimensional:
        return NotFullDimensional
    try:
        return tuple(cold_extreme_rays(normals, dim)), tuple(normals)
    except NotFullDimensional:
        return NotPointed


def test_polycone_from_rays_equals_the_cold_start():
    rng = random.Random(409)
    outcomes = {NotFullDimensional: 0, NotPointed: 0, "cone": 0}
    for _ in range(3000):
        dim = rng.randint(2, 4)
        count, rows = rng.randint(1, dim + 4), []
        while len(rows) < count:
            r = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(r):
                rows.append(r)
        expected = _cold_cone(rows)
        try:
            cone = PolyCone.from_rays(rows)
        except (NotFullDimensional, NotPointed) as exc:
            assert type(exc) is expected, rows
            outcomes[expected] += 1
            continue
        assert (cone.rays, cone.facet_normals) == expected, rows
        outcomes["cone"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_polycone_from_rays_keeps_only_the_extreme_rays():
    # the square cone's rays, (1, 1, 2) on the facet through (1, 0, 1) and
    # (0, 1, 1), and (0, 0, 1) in the interior; the greedy basis skips
    # (1, 1, 2), so the rows are not inserted in input order
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    cone = PolyCone.from_rays(square[:2] + [(1, 1, 2), (0, 0, 1)] + square[2:])
    assert cone.rays == tuple(sorted(square))
    normals = ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))
    assert cone.facet_normals == PolyCone.from_rays(square).facet_normals == normals


def _rotations_and_shuffles(pts, rng):
    yield from (pts[i:] + pts[:i] for i in range(len(pts)))
    for _ in range(6):
        yield rng.sample(pts, len(pts))


@pytest.mark.parametrize("group", sorted(RING_GROUPS))
def test_newton_polyhedron_does_not_depend_on_point_order(group):
    # the warm start seeds on the first point; callers such as the edge
    # regions of decompose_2d pass points in no particular order
    rng = random.Random(f"order-{group}")
    for ring in RING_GROUPS[group]:
        for _ in range(3):
            d = ring.dim
            pts = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(3, 8))]
            pts.append(tuple(a + b for a, b in zip(pts[0], ring.cone.rays[-1])))
            expected = hull_plus_cone(sorted(pts), ring.cone)
            for order in _rotations_and_shuffles(pts, rng):
                assert hull_plus_cone(order, ring.cone) == expected, (ring.dual_rays, order)

