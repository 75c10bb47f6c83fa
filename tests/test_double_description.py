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
from toricmult.geometry import PolyCone, _extreme_generators, _insert_rows, hull_plus_cone
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



def _orthant_duals(rng, count):
    """(dual, rows) for cones in the orthant: the unit rows first, then random
    nonnegative rows, distinct and primitive, cut in as PolyCone.from_rays cuts them."""
    for _ in range(count):
        dim = rng.randint(2, 4)
        rows = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        for _ in range(rng.randint(0, 6)):
            r = tuple(rng.randint(0, 3) for _ in range(dim))
            if any(r) and primitivize(r) not in rows:
                rows.append(primitivize(r))
        seed = [(rows[j], (1 << dim) - 1 - (1 << j)) for j in range(dim)]
        yield _insert_rows(seed, rows[dim:], dim, dim), rows


def test_extreme_generators_asked_of_a_subset_are_the_full_answer_restricted():
    rng = random.Random(419)
    inner = 0
    for dual, rows in _orthant_duals(rng, 300):
        count = len(rows)
        full = _extreme_generators(dual, count, range(count))
        inner += count - len(full)
        assert sorted(rows[k] for k in full) == list(PolyCone.from_rays(rows).rays), rows
        for _ in range(4):
            asked = rng.sample(range(count), rng.randint(0, count))
            assert _extreme_generators(dual, count, asked) == [k for k in asked if k in full], (rows, asked)
    assert inner > 300


def test_newton_vertices_are_asked_only_of_the_points(monkeypatch):
    """hull_plus_cone asks for bit 0 (the first point) and the bits past the
    recession rays, never a recession ray, on the square cone's four rays."""
    square = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))).cone
    asked_of = []

    def recorded(dual, count, asked):
        asked_of.append((count, list(asked)))
        return _extreme_generators(dual, count, asked_of[-1][1])

    monkeypatch.setattr("toricmult.geometry._extreme_generators", recorded)
    poly = hull_plus_cone([(1, 0, 1), (0, 1, 1), (1, 0, 1), (5, 0, 5)], square)
    assert asked_of == [(7, [0, 5, 6])]
    assert poly.vertices == ((0, 1, 1), (1, 0, 1))


@pytest.mark.parametrize("group", sorted(RING_GROUPS))
def test_a_cone_holds_the_rays_each_facet_normal_is_tight_on(group):
    """Bit k of facet_ray_bits[i] is set exactly when normal i pairs to 0 with ray k;
    a facet holds at least dim - 1 rays. The bits are built once and are no
    field: equality and hash of the cone are those of a fresh one."""
    for ring in RING_GROUPS[group]:
        cone = ring.cone
        fresh = PolyCone(cone.dim, cone.rays, cone.facet_normals)
        tight = [
            {k for k, r in enumerate(cone.rays) if sum(a * b for a, b in zip(n, r)) == 0} for n in cone.facet_normals
        ]
        assert [{k for k in range(len(cone.rays)) if bits >> k & 1} for bits in cone.facet_ray_bits] == tight
        assert all(len(ks) >= cone.dim - 1 for ks in tight)
        assert cone.facet_ray_bits is cone.facet_ray_bits
        assert "facet_ray_bits" not in vars(fresh) and cone == fresh and hash(cone) == hash(fresh)
