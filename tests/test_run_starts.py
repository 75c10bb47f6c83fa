"""Run intervals against the per-point scans they replaced.

The lattice walk is a sequence of runs w + k u (rings.run_starts), and along
a run every facet test is a half-line in k, so the library's region and
refutation scans place a run's passing points by integer division
(rings.run_interval). oracles.region_minimal_generators and
oracles.exhaustive_refute test every point of the same walk instead; the two
must agree exactly: the same generators, and the same refutation report
(bounds, scanned count, decompositions in order). Rings cover the pool,
seeded random simplicial rings in two and three dimensions, the seeded random
non-simplicial cones in three and four dimensions of test_clipped_walk, and
a Gorenstein cone whose run step leaves the exponent cone, so that a
refutation meets runs whose later members are not multiples of the first.
"""

import itertools
import random

import pytest

import oracles
from instances import POOL, STEPPING_DOWN, random_2d_ring, random_3d_ring, random_ideal, random_non_simplicial_rings
from toricmult.geometry import lattice_thresholds
from toricmult.ideals import monomial_ideal, newton_polyhedron, product, region_minimal_generators
from toricmult.linalg import dot, vadd, vscale, vsub
from toricmult.rings import (
    lattice_points_in_box,
    ring_from_dual_rays,
    run_interval,
    run_starts,
    semigroup_contains,
    semigroup_points,
)
from toricmult.subadditivity import exhaustive_refute


# The cone over a lattice polytope at height 1, so Gorenstein with u0 = e_4;
# its run step (1, 2, 4, -1) pairs to -2 with the last sigma ray.
GORENSTEIN_STEPPING_DOWN = ring_from_dual_rays(
    ((-1, -4, -2, 3), (-1, 0, 0, 1), (-1, 2, 0, 1), (0, 1, 1, 0), (1, -2, -4, 3), (1, 1, 2, 0))
)


def _rings():
    rng = random.Random(83)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 5)) for i in range(8)]
    rings += [(f"random-3d-{i}", random_3d_ring(rng)) for i in range(5)]
    cones = random_non_simplicial_rings(71, 3, (4, 6), 30) + random_non_simplicial_rings(73, 4, (5, 6), 12)
    rings += [(f"non-simplicial-{ring.dim}d-{i}", ring) for i, ring in enumerate(cones)]
    rings += [("stepping-down-3d", STEPPING_DOWN), ("gorenstein-stepping-down-4d", GORENSTEIN_STEPPING_DOWN)]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]
Q_GORENSTEIN = [(name, ring) for name, ring in RINGS if ring.q_gorenstein is not None]


def _simplicial(ring):
    return len(ring.sigma_rays) == ring.dim


def _climbs(ring):
    return min(ring.run_step[1]) >= 0


def _ideals(name, ring, count):
    """Ideals on generators of small pairing: the least bound with a few points."""
    rng = random.Random(name)
    bound = next(b for b in itertools.count(8 if ring.dim == 2 else 3) if len(semigroup_points(ring, b)) > 4)
    return [random_ideal(rng, ring, 3, bound) for _ in range(count)]


def test_the_rings_reach_every_kind_of_run():
    rings = dict(RINGS)
    assert not rings["index-three-2d"].is_gorenstein
    assert sum(_simplicial(ring) for ring in rings.values()) == 18
    assert {ring.dim for ring in rings.values() if not _simplicial(ring)} == {3, 4}
    assert sum(not _climbs(ring) for ring in rings.values()) == 4
    assert {name for name, ring in Q_GORENSTEIN if not _simplicial(ring)} == {
        "square-cone-3d",
        "non-simplicial-3d-11",
        "non-simplicial-3d-28",
        "gorenstein-stepping-down-4d",
    }
    assert not _climbs(rings["gorenstein-stepping-down-4d"])


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_runs_expand_to_the_walk(name, ring):
    """In walk order on simplicial sigma; the walk sorts the points otherwise."""
    u, ut = ring.run_step
    assert ring.pairings(u) == ut
    if _simplicial(ring):
        assert ut[:-1] == (0,) * (ring.dim - 1) and ut[-1] > 0
    for bounds in itertools.product(range(0, 7, 3), repeat=len(ut)) if ring.dim < 4 else [(4,) * len(ut)]:
        expanded = [
            (vadd(w, vscale(k, u)), tuple(a + k * s for a, s in zip(t, ut)))
            for w, t, n in run_starts(ring, bounds)
            for k in range(n)
        ]
        assert all(t == ring.pairings(w) for w, t in expanded)
        assert (expanded if _simplicial(ring) else sorted(expanded)) == list(lattice_points_in_box(ring, bounds)), bounds


def _scan(w, u, n, tests):
    return [k for k in range(n) if all(dot(vadd(w, vscale(k, u)), f) >= m for f, m in tests)]


def _random_runs(rng, count):
    """(w, u, n, tests) with n <= 12 and up to four tests in one to four dimensions."""
    for _ in range(count):
        dim = rng.randint(1, 4)
        w, u = ([rng.randint(-6, 6) for _ in range(dim)] for _ in range(2))
        tests = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-12, 12))
            for _ in range(rng.randint(0, 4))
        ]
        yield w, u, rng.randint(0, 12), tests


def test_run_interval_matches_the_per_point_scan():
    """Empty runs (n = 0) on which no test has a gap come first, then random runs."""
    empty = [((0,), (1,), 0, tests) for tests in ([], [((1,), -5)], [((0,), 0)], [((1,), 3), ((-1,), -9)])]
    steps, shapes = set(), set()
    for w, u, n, tests in itertools.chain(empty, _random_runs(random.Random(97), 3000)):
        steps.update((s > 0) - (s < 0) for s in (dot(u, f) for f, _ in tests))
        lo, hi = run_interval(w, u, n, tests)
        passing = _scan(w, u, n, tests)
        assert list(range(lo, hi + 1)) == passing, (w, u, n, tests)
        if not passing:
            assert lo > hi, (w, u, n, tests)
        shapes.add("empty" if not passing else "full" if len(passing) == n else "part")
    assert steps == {1, 0, -1}
    assert shapes == {"empty", "full", "part"}


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_run_interval_is_where_the_run_meets_the_region(name, ring):
    u, _ = ring.run_step
    for a in _ideals(name, ring, 2):
        for shift in (None, ring.canonical_shift()) if ring.q_gorenstein else (None,):
            tests = lattice_thresholds(newton_polyhedron(a), shift)
            for w in semigroup_points(ring, 2):
                passing = _scan(w, u, 12, tests)
                for n in range(13):
                    lo, hi = run_interval(w, u, n, tests)
                    assert list(range(lo, hi + 1)) == [j for j in passing if j < n], (w, n)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_region_generators_match_the_per_point_scan(name, ring):
    """Closures on every ring; multiplier regions where u0 exists."""
    for a in _ideals(name, ring, 4):
        poly = newton_polyhedron(a)
        for shift in (None, ring.canonical_shift()) if ring.q_gorenstein else (None,):
            assert region_minimal_generators(ring, poly, shift) == oracles.region_minimal_generators(ring, poly, shift)


def test_later_members_of_a_run_can_be_minimal():
    """The run step of STEPPING_DOWN leaves the exponent cone, so the first
    region member of a run need not divide the others: four of the five
    closure generators here follow another region member of their run."""
    a = monomial_ideal(STEPPING_DOWN, [(-2, -3, 4), (0, -1, 4)])
    poly = newton_polyhedron(a)
    gens = region_minimal_generators(STEPPING_DOWN, poly, None)
    assert gens == oracles.closure_scan(a.gens, STEPPING_DOWN.dual_rays, STEPPING_DOWN.sigma_rays)
    tests = lattice_thresholds(poly, None)
    before = [vsub(g, STEPPING_DOWN.run_step[0]) for g in gens]
    assert sum(semigroup_contains(STEPPING_DOWN, p) and all(dot(p, f) >= m for f, m in tests) for p in before) == 4


@pytest.mark.parametrize("name, ring", Q_GORENSTEIN, ids=[name for name, _ in Q_GORENSTEIN])
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
