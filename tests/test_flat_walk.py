"""The Hermite walk as one lazy odometer against the recursive walk it replaced.

rings._hermite_walk walks the prefix k_0..k_{d-2} of the Hermite coordinates
as one odometer over the walk plan the ring holds (ToricRing.walk_plan),
where it used one nested generator per level and rebuilt its steps per
call. oracles.recursive_hermite_walk is that recursive walk; the two must
yield the same runs (w, t, n) in the same order on the pool rings, on the
line, and on seeded random simplicial and non-simplicial cones in two, three
and four dimensions, for random floors and bounds, empty boxes and a bound
below its floor among them. The walk must stay lazy: its first run costs
memory for one prefix, not for the prefixes of its box.
"""

import random
import tracemalloc

import pytest

import oracles
from instances import POOL, random_2d_ring, random_3d_ring, random_non_simplicial_rings
from toricmult.errors import NotFullDimensional
from toricmult.rings import _hermite_walk, cut_runs, ring_from_dual_rays


def _random_4d_rings(seed, count):
    """Simplicial cones on four independent rays with small entries."""
    rng = random.Random(seed)
    rings = []
    while len(rings) < count:
        rays = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4)]
        if not 0 < abs(oracles.det(rays)) <= 6:
            continue
        try:
            rings.append(ring_from_dual_rays(rays))
        except NotFullDimensional:
            continue
    return rings


def _rings():
    rng = random.Random(6007)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings.append(("line-1d", ring_from_dual_rays([(1,)])))
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 7)) for i in range(8)]
    rings += [(f"random-3d-{i}", random_3d_ring(rng)) for i in range(6)]
    rings += [(f"random-4d-{i}", ring) for i, ring in enumerate(_random_4d_rings(6011, 4))]
    cones = random_non_simplicial_rings(6013, 3, (4, 6), 8) + random_non_simplicial_rings(6017, 4, (5, 6), 4)
    rings += [(f"non-simplicial-{ring.dim}d-{i}", ring) for i, ring in enumerate(cones)]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]


def _cases(name, ring):
    """(bounds, floors): random floors under random bounds, a few floors below zero,
    boxes too thin to hold a point, and one bound below its floor per ray."""
    rng = random.Random(name + "-flat")
    rays = len(ring.sigma_rays)
    side = 14 if ring.dim <= 2 else 6 if ring.dim == 3 else 4
    for _ in range(16):
        bounds = tuple(rng.randint(0, side) for _ in range(rays))
        yield bounds, tuple(rng.randint(0, b) for b in bounds)
    for _ in range(4):
        bounds = tuple(rng.randint(0, side) for _ in range(rays))
        yield bounds, tuple(rng.randint(-2, b) for b in bounds)
    for _ in range(4):
        floors = tuple(rng.randint(0, side) for _ in range(rays))
        yield floors, floors
    yield (0,) * rays, (0,) * rays
    for i in range(rays):
        floors = tuple(rng.randint(1, side) for _ in range(rays))
        yield tuple(f - (j == i) for j, f in enumerate(floors)), floors


def test_the_rings_cover_every_dimension_and_both_kinds_of_cone():
    kinds = {(ring.dim, len(ring.sigma_rays) > ring.dim) for _, ring in RINGS}
    assert kinds == {(1, False), (2, False), (3, False), (3, True), (4, False), (4, True)}


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_the_walk_yields_the_runs_of_the_recursive_walk_in_order(name, ring):
    for bounds, floors in _cases(name, ring):
        walked = list(_hermite_walk(ring, bounds, floors))
        assert walked == list(oracles.recursive_hermite_walk(ring, bounds, floors)), (bounds, floors)
        assert all(t == ring.pairings(w) and n > 0 for w, t, n in walked)


def test_the_cases_reach_empty_one_run_and_many_run_walks():
    """Empty walks both from a bound below its floor and from a box that holds no lattice point."""
    kinds = set()
    for name, ring in RINGS:
        for bounds, floors in _cases(name, ring):
            runs = len(list(_hermite_walk(ring, bounds, floors)))
            below = any(b < f for b, f in zip(bounds, floors))
            kinds.add("below" if below else min(runs, 2))
    assert kinds == {"below", 0, 1, 2}


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_bound_list_of_the_wrong_length_is_refused_like_the_recursive_walk(name, ring):
    bounds = (3,) * (len(ring.sigma_rays) + 1)
    for walk in (_hermite_walk, oracles.recursive_hermite_walk):
        with pytest.raises(ValueError, match="one bound per sigma ray is required"):
            next(walk(ring, bounds, (0,) * len(bounds)))


# Boxes of about 10^5 prefixes: 317^2 on the orthant's k_0, k_1, 47^3 on the
# four-dimensional orthant's, each with one point per run, and 321^2 on the
# square cone's (H has the diagonal 1, 2, 2 there), whose runs its fourth
# sigma ray clips.
BIG = [
    ("orthant-3d", ring_from_dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1))), (316, 316, 0)),
    ("orthant-4d", ring_from_dual_rays(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), (46, 46, 46, 0)),
    ("square-cone-3d", ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))), (320, 640, 0, 0)),
]


def _first_run_peak(walk):
    tracemalloc.start()
    try:
        first = next(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return first, peak


@pytest.mark.parametrize("name, ring, bounds", BIG, ids=[name for name, _, _ in BIG])
def test_the_first_run_of_a_large_box_costs_one_prefix(name, ring, bounds):
    """Taking the first run of a box of about 10^5 prefixes stays under 1 MB of traced
    memory, through the walk and through cut_runs; the walk plan is built first."""
    basis, hnf, _ = ring.sigma_lattice
    prefixes = 1
    for j, i in enumerate(basis[:-1]):
        prefixes *= bounds[i] // hnf[j][j] + 1
    assert 10**5 <= prefixes <= 2 * 10**5
    ring.walk_plan
    floors = (0,) * len(bounds)
    expected = next(oracles.recursive_hermite_walk(ring, bounds, floors))
    assert expected == ((0,) * ring.dim, floors, 1)
    for walk in (_hermite_walk(ring, bounds, floors), cut_runs(ring, bounds, floors, ())):
        first, peak = _first_run_peak(walk)
        assert first == expected
        assert peak < 2**20, peak
