"""The region walk from its floors against the walk of the whole box.

N(a) = conv(a) + σ^∨, so every sigma ray n is a facet normal of N(a), with
offset the least pairing <g, n> of a generator g; that offset is the
facet's threshold with or without the shift u0 (<u0, n> = 1), and the
region's floor on n: no region point pairs below it. This is checked on
every ring below and on one without a canonical point.
region_minimal_generators reads its floors and tests off those thresholds
(rings.region_tests) and passes them to rings.cut_runs, which starts every
run on or above the floors, on every cone, and cuts every run to the tests.
oracles.region_minimal_generators tests every point of the box from the
origin instead; the two must give the same generators. The walk carries
every sigma pairing of its runs; oracles.hermite_walk, the walk that kept
the basis pairings apart, must give the same runs in the same order.
"""

import itertools
import random

import pytest

import oracles
from instances import (
    NOT_Q_GORENSTEIN_DUAL_RAYS,
    POOL,
    random_2d_ring,
    random_3d_ring,
    random_ideal,
    random_non_simplicial_rings,
)
from toricmult.geometry import lattice_thresholds
from toricmult.ideals import monomial_ideal, newton_polyhedron, region_minimal_generators
from toricmult.linalg import dot, vadd, vscale
from toricmult.rings import _hermite_walk, cut_runs, lattice_points_in_box, ring_from_dual_rays, semigroup_points


def _rings():
    rng = random.Random(5527)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 7)) for i in range(12)]
    rings += [(f"random-3d-{i}", random_3d_ring(rng)) for i in range(4)]
    cones = random_non_simplicial_rings(5503, 3, (4, 6), 8) + random_non_simplicial_rings(5507, 4, (5, 6), 3)
    rings += [(f"non-simplicial-{ring.dim}d-{i}", ring) for i, ring in enumerate(cones)]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]


def _simplicial(ring):
    return len(ring.sigma_rays) == ring.dim


def test_the_rings_reach_large_determinants_and_every_kind_of_cone():
    dets = [abs(oracles.det(ring.dual_rays)) for _, ring in RINGS if ring.dim == 2]
    assert 40 < max(dets) <= 62
    assert {ring.dim for _, ring in RINGS if not _simplicial(ring)} == {3, 4}


def _passes(t, floors):
    return all(map(int.__ge__, t, floors))


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_runs_from_the_floors_cover_the_box_above_them(name, ring):
    """The run points are the box points pairing at least the floors, in walk
    order, on every cone: no run starts below a floor, with or without
    thresholds. With the integer facet thresholds of random ideals, with and
    without u0, the runs are cut to them: each is nonempty, every run point
    passes, and the points are the box points above the floors that pass
    every threshold."""
    rng = random.Random(name)
    u, ut = ring.run_step
    rays = len(ring.sigma_rays)
    side = 12 if ring.dim == 2 else 5
    shifts = (None, ring.canonical_shift()) if ring.q_gorenstein else (None,)
    bound = next(b for b in itertools.count(side // 2) if len(semigroup_points(ring, b)) > 4)
    ideals = [random_ideal(rng, ring, 3, bound) for _ in range(2)]
    cuts = [()] + [lattice_thresholds(newton_polyhedron(a), shift) for a in ideals for shift in shifts]
    for _ in range(12):
        bounds = tuple(rng.randint(0, side) for _ in range(rays))
        floors = tuple(rng.randint(0, b + 1) for b in bounds)
        box = [(w, t) for w, t in lattice_points_in_box(ring, bounds) if _passes(t, floors)]
        for thresholds in cuts:
            runs = list(cut_runs(ring, bounds, floors, [(f, m, dot(u, f)) for f, m in thresholds]))
            points = [
                (vadd(w, vscale(k, u)), tuple(a + k * s for a, s in zip(t, ut))) for w, t, n in runs for k in range(n)
            ]
            assert all(n > 0 for _, _, n in runs)
            assert all(t == ring.pairings(w) and all(map(int.__le__, t, bounds)) for w, t in points)
            assert all(_passes(t, floors) for _, t in points), (bounds, floors, thresholds)
            assert all(dot(w, f) >= m for w, _ in points for f, m in thresholds)
            passing = [(w, t) for w, t in box if all(dot(w, f) >= m for f, m in thresholds)]
            assert (points if _simplicial(ring) else sorted(points)) == passing, (bounds, floors, thresholds)


def test_runs_start_on_the_floors_of_the_paper_ring():
    """The Hermite point rounding the floors (1, 0, 0) down pairs -2 with the
    sigma ray (2, -1, 0); the walk from it reads no run below that floor."""
    ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
    assert ring.sigma_rays == ((-1, 2, 0), (0, 0, 1), (2, -1, 0))
    assert list(cut_runs(ring, (1, 0, 0), (1, 0, 0), ())) == []
    runs = list(cut_runs(ring, (2, 2, 2), (1, 0, 0), ()))
    assert [w for w, _, _ in runs] == [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 2, 0), (2, 2, 1), (2, 2, 2)]
    assert all(n == 1 and min(t) >= 0 for _, t, n in runs)


# The walk's rings and a ring of dimension one, whose walk is a single run.
WALK_RINGS = RINGS + [("line-1d", ring_from_dual_rays([(1,)]))]


def _walk_cases(name, ring):
    """Random floors <= bounds; one box with bounds below the floors on one ray."""
    rng = random.Random(name + "-walk")
    rays = len(ring.sigma_rays)
    side = 12 if ring.dim <= 2 else 5
    for _ in range(12):
        bounds = tuple(rng.randint(0, side) for _ in range(rays))
        yield bounds, tuple(rng.randint(0, b) for b in bounds)
    i = rng.randrange(rays)
    yield bounds, tuple(b + (j == i) for j, b in enumerate(bounds))


@pytest.mark.parametrize("name, ring", WALK_RINGS, ids=[name for name, _ in WALK_RINGS])
def test_the_walk_matches_the_walk_it_replaced(name, ring):
    """The same runs (w, t, n), in the same order, as the walk that kept the basis
    pairings apart and permuted the others in (oracles.hermite_walk)."""
    for bounds, floors in _walk_cases(name, ring):
        assert list(_hermite_walk(ring, bounds, floors)) == list(oracles.hermite_walk(ring, bounds, floors))


def test_the_walk_cases_reach_every_kind_of_clip():
    """Rays outside the basis with step 0 and with a positive step, empty boxes and one-run walks."""
    steps, kinds = set(), set()
    for name, ring in WALK_RINGS:
        basis = ring.sigma_lattice[0]
        steps.update(s > 0 for i, s in enumerate(ring.run_step[1]) if i not in basis)
        for bounds, floors in _walk_cases(name, ring):
            kinds.add(min(len(list(_hermite_walk(ring, bounds, floors))), 2))
    assert steps == {False, True}
    assert kinds == {0, 1, 2}


def _moved_ideals(name, ring, moves):
    """Small random ideals moved away from the origin by multiples m of the sum of the dual rays."""
    rng = random.Random(name + "-far")
    c = tuple(map(sum, zip(*ring.dual_rays)))
    bound = next(b for b in itertools.count(12 if ring.dim == 2 else 2) if len(semigroup_points(ring, b)) > 4)
    points = [w for w in semigroup_points(ring, bound) if any(w)]
    for m in moves:
        gens = rng.sample(points, min(3, len(points)))
        yield monomial_ideal(ring, [vadd(g, vscale(m, c)) for g in gens])


# The rings above, with the ring that has no canonical point.
FACET_RINGS = RINGS + [("not-q-gorenstein-3d", ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS))]


@pytest.mark.parametrize("name, ring", FACET_RINGS, ids=[name for name, _ in FACET_RINGS])
def test_every_sigma_ray_is_a_facet_normal_at_the_least_generator_pairing(name, ring):
    """N(a) = conv(a) + σ^∨, so each sigma ray n is a facet normal of N(a) with
    offset min <g, n> over the generators g, the region's floor on n. As
    <u0, n> = 1, the shifted threshold of that facet is the offset too."""
    for a in _moved_ideals(name, ring, (0, 1, 3) if ring.dim == 2 else (0, 1)):
        floors = [min(oracles.dot(g, n) for g in a.gens) for n in ring.sigma_rays]
        poly = newton_polyhedron(a)
        offsets = {h.normal: h.offset for h in poly.facets}
        assert [offsets.get(n) for n in ring.sigma_rays] == floors, a.gens
        for shift in (None, ring.canonical_shift()) if ring.q_gorenstein else (None,):
            thresholds = dict(lattice_thresholds(poly, shift))
            assert [thresholds[n] for n in ring.sigma_rays] == floors, (a.gens, shift)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_regions_far_from_the_origin_match_the_per_point_scan(name, ring):
    """Closures on every ring; multiplier regions where u0 exists."""
    for a in _moved_ideals(name, ring, (1, 3) if ring.dim == 2 else (1,)):
        poly = newton_polyhedron(a)
        for shift in (None, ring.canonical_shift()) if ring.q_gorenstein else (None,):
            assert region_minimal_generators(a, shift) == oracles.region_minimal_generators(ring, poly, shift)


def _read_runs(monkeypatch):
    """The list to which each run that region_minimal_generators reads, cut to its thresholds, is appended."""
    read = []

    def recorded(ring, bounds, floors, tests):
        for run in cut_runs(ring, bounds, floors, tests):
            read.append(run)
            yield run

    monkeypatch.setattr("toricmult.ideals.cut_runs", recorded)
    return read


def _paper_ideal(k):
    """a = <(6k+2, 6k+4, 3k), (6k+4, 6k+2, 3k), (6k, 6k, 3k+3)> on the paper's ring."""
    ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
    gens = [(6 * k + 2, 6 * k + 4, 3 * k), (6 * k + 4, 6 * k + 2, 3 * k), (6 * k, 6 * k, 3 * k + 3)]
    return monomial_ideal(ring, gens)


def test_the_walk_from_the_floors_does_not_grow_with_the_distance(monkeypatch):
    """The paper's ideal moved k steps out is x^(6k, 6k, 3k) times the ideal at
    k = 0, and so are its closure and multiplier regions; they match the
    per-point scan at k = 2 and read as many runs at k = 200 as at k = 2,
    where the walk from the origin read about k^2 more."""
    read = _read_runs(monkeypatch)
    runs, base = {}, {}
    for k in (0, 2, 200):
        a = _paper_ideal(k)
        ring, poly = a.ring, newton_polyhedron(a)
        for shift in (None, ring.canonical_shift()):
            read.clear()
            gens = region_minimal_generators(a, shift)
            runs[k, shift is None] = len(read)
            base.setdefault(shift is None, gens)
            assert gens == tuple(vadd(g, vscale(k, (6, 6, 3))) for g in base[shift is None])
            if k == 2:
                assert gens == oracles.region_minimal_generators(ring, poly, shift)
    assert runs[2, True] == runs[200, True] and runs[2, False] == runs[200, False]
