"""Run-start enumeration against the per-point scans it replaced.

On a simplicial sigma the lattice walk is a sequence of runs w + k u, and the
library's region and refutation scans visit one start per run and place the
run's passing points by integer division. oracles.region_minimal_generators
and oracles.exhaustive_refute test every point of the same walk instead; the
two must agree exactly: the same generators, and the same refutation report
(bounds, scanned count, decompositions in order). Rings cover the pool (the
non-simplicial square cone keeps the per-point path) and seeded random
simplicial rings in two and three dimensions.
"""

import itertools
import random

import pytest

import oracles
from instances import POOL, random_2d_ring, random_ideal
from oracles import det
from toricmult.geometry import lattice_thresholds
from toricmult.ideals import newton_polyhedron, product, region_minimal_generators
from toricmult.linalg import dot, vadd, vscale
from toricmult.rings import first_in_run, lattice_points_in_box, ring_from_dual_rays, run_starts, semigroup_points
from toricmult.subadditivity import exhaustive_refute


def _random_3d_ring(rng):
    """A simplicial cone on three independent rays with small entries."""
    while True:
        rays = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if 0 < abs(det(rays)) <= 5:
            return ring_from_dual_rays(rays)


def _rings():
    rng = random.Random(83)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 5)) for i in range(8)]
    rings += [(f"random-3d-{i}", _random_3d_ring(rng)) for i in range(5)]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]
SIMPLICIAL = [(name, ring) for name, ring in RINGS if ring.run_step is not None]


def _ideals(name, ring, count):
    rng = random.Random(name)
    bound = 8 if ring.dim == 2 else 3
    return [random_ideal(rng, ring, 3, bound) for _ in range(count)]


def test_the_rings_include_non_gorenstein_and_non_simplicial_ones():
    rings = dict(RINGS)
    assert not rings["index-three-2d"].is_gorenstein
    assert rings["square-cone-3d"].run_step is None
    assert len(SIMPLICIAL) == len(RINGS) - 1
    assert sum(ring.dim == 3 for _, ring in SIMPLICIAL) == 7


@pytest.mark.parametrize("name, ring", SIMPLICIAL, ids=[name for name, _ in SIMPLICIAL])
def test_runs_expand_to_the_walk(name, ring):
    u, h = ring.run_step
    assert ring.pairings(u) == (0,) * (ring.dim - 1) + (h,)
    for bounds in itertools.product(range(0, 7, 3), repeat=ring.dim):
        expanded = [
            (vadd(w, vscale(k, u)), (*t[:-1], t[-1] + k * h))
            for w, t, n in run_starts(ring, bounds)
            for k in range(n)
        ]
        assert expanded == list(lattice_points_in_box(ring, bounds)), bounds


@pytest.mark.parametrize("name, ring", SIMPLICIAL, ids=[name for name, _ in SIMPLICIAL])
def test_first_in_run_is_where_the_run_enters_the_region(name, ring):
    u, _ = ring.run_step
    for a in _ideals(name, ring, 2):
        for shift in (None, ring.canonical_shift()):
            tests = lattice_thresholds(newton_polyhedron(a), shift)
            for w in semigroup_points(ring, 2):
                passing = [j for j in range(12) if all(dot(vadd(w, vscale(j, u)), f) >= m for f, m in tests)]
                for n in range(13):
                    k = first_in_run(w, u, n, tests)
                    assert [j for j in passing if j < n] == ([] if k is None else list(range(k, n))), (w, n)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_region_generators_match_the_per_point_scan(name, ring):
    for a in _ideals(name, ring, 4):
        poly = newton_polyhedron(a)
        for shift in (None, ring.canonical_shift()):
            assert region_minimal_generators(ring, poly, shift) == oracles.region_minimal_generators(ring, poly, shift)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_refutation_reports_match_the_per_point_scan(name, ring):
    """Targets are product generators plus small monomials, so many split."""
    a, b, c = _ideals(name, ring, 3)
    rng = random.Random(name + "-targets")
    points = semigroup_points(ring, 4 if ring.dim == 2 else 3)
    split = 0
    for x, y in ((a, b), (b, a), (a, c)):
        for v in [vadd(g, p) for g in product(x, y).gens[:2] for p in rng.sample(points, min(4, len(points)))]:
            report = exhaustive_refute(v, x, y)
            assert report == oracles.exhaustive_refute(v, x, y), v
            split += bool(report.decompositions)
    assert split >= 2
