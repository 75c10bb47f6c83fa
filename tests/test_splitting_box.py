"""Refutation walks only the splitting box, and counts the reported box once.

Every sigma ray n bounds N(a) and N(b) below at their least generator
pairings floor_a(n) and floor_b(n), and <u0, n> = 1, so a splitting
v = alpha + beta, alpha interior to N(a) and beta + u0 interior to N(b), has
floor_a(n) + 1 <= <alpha, n> <= <v, n> - floor_b(n). exhaustive_refute walks
the Hermite runs of that box only; its report keeps the box
0 <= <alpha, n> <= <v, n> + 1 of every candidate, whose lattice points are
counted once per distinct box (subadditivity._box_size). The reports must
equal oracles.exhaustive_refute, which tests every point of the reported box
from the origin: on every pool ring (the index-three ring's u0 is
fractional), on split, unsplit and empty-box targets. The box count must
equal the number of points lattice_points_in_box yields, and the walk is
pinned on the paper's target.
"""

import itertools
import random
from collections import Counter

import pytest

import oracles
from instances import POOL, random_ideal, random_non_simplicial_rings
from toricmult.builtin_example import TARGET, instance
from toricmult.errors import DimensionMismatch, NotInSemigroup
from toricmult.ideals import monomial_ideal, product
from toricmult.linalg import dot, vadd, vscale
from toricmult.rings import (
    cut_runs,
    exponent_pairings,
    lattice_points_in_box,
    ring_from_dual_rays,
    semigroup_points,
)
from toricmult.subadditivity import _box_size, exhaustive_refute

RINGS = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
IDS = [name for name, _ in RINGS]


def _splitting_box(v, a, b):
    """(floors, ceilings) of the splitting box, from the generators' pairings."""
    ring = a.ring
    floor_a = [min(dot(g, n) for g in a.gens) for n in ring.sigma_rays]
    floor_b = [min(dot(g, n) for g in b.gens) for n in ring.sigma_rays]
    floors = tuple(m + 1 for m in floor_a)
    ceilings = tuple(dot(v, n) - m for n, m in zip(ring.sigma_rays, floor_b))
    return floors, ceilings


def _walks(monkeypatch):
    """The (bounds, floors, runs, points) of every cut_runs walk exhaustive_refute makes,
    counted without its facet tests; the runs read are cut to them. Splitting walks have
    floors >= 1; the count of the reported box walks from floors 0 (_box_size)."""
    walks = []

    def counted(ring, bounds, floors, tests):
        runs = list(cut_runs(ring, bounds, floors, ()))
        walks.append((tuple(bounds), floors, len(runs), sum(n for _, _, n in runs)))
        yield from cut_runs(ring, bounds, floors, tests)

    monkeypatch.setattr("toricmult.subadditivity.cut_runs", counted)
    return walks


def _corners(a, b):
    """Up to three targets pairing floor_a(n) + 1 + floor_b(n) or one more with every
    sigma ray n: their splitting boxes hold a point or a few, each at a floor of N(a)."""
    floors, ceilings = _splitting_box((0,) * a.ring.dim, a, b)
    low = [f - c for f, c in zip(floors, ceilings)]
    box = lattice_points_in_box(a.ring, [m + 1 for m in low])
    return [w for w, t in box if all(x >= m for x, m in zip(t, low))][:3]


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_refutation_reports_match_the_point_scan_from_the_origin(name, ring):
    """Random ideals and <d r> over the dual rays r, d the dimension, whose
    Newton polyhedron cuts the corner at the origin. Targets are product
    generators plus small monomials, which mostly split, corner targets, which
    split only where N(a) reaches its floors, small semigroup points and the
    origin, whose splitting boxes are mostly empty; every kind is met on every
    ring."""
    rng = random.Random(f"splitting-{name}")
    bound = 6 if ring.dim == 2 else 3
    points = semigroup_points(ring, bound)
    ideals = [random_ideal(rng, ring, 3, bound) for _ in range(3)]
    ideals.append(monomial_ideal(ring, [vscale(ring.dim, r) for r in ring.dual_rays]))
    kinds = Counter()
    for a, b in itertools.permutations(ideals, 2):
        targets = [vadd(g, p) for g in product(a, b).gens[:2] for p in rng.sample(points, min(3, len(points)))]
        targets += _corners(a, b) + rng.sample(points, min(3, len(points))) + [(0,) * ring.dim]
        for v in targets:
            report = exhaustive_refute(v, a, b)
            assert report == oracles.exhaustive_refute(v, a, b), v
            floors, ceilings = _splitting_box(v, a, b)
            empty = any(c < f for f, c in zip(floors, ceilings))
            kinds["empty" if empty else "split" if report.decompositions else "unsplit"] += 1
            for alpha, _ in report.decompositions:
                assert all(f <= dot(alpha, n) <= c for f, c, n in zip(floors, ceilings, ring.sigma_rays))
    assert set(kinds) == {"empty", "split", "unsplit"}, kinds


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_an_empty_splitting_box_walks_nothing(monkeypatch, name, ring):
    """The origin splits under no pair of nonzero ideals: the box's floors are >= 1
    and its ceilings <= 0, so cut_runs returns before its first run."""
    a = random_ideal(random.Random(name), ring, 3, 4)
    walks = _walks(monkeypatch)
    origin = (0,) * ring.dim
    report = exhaustive_refute(origin, a, a)
    assert report.decompositions == ()
    assert report.scanned == sum(1 for _ in lattice_points_in_box(ring, report.bounds))
    splitting = [walk for walk in walks if any(walk[1])]
    assert splitting == [(_splitting_box(origin, a, a)[1], _splitting_box(origin, a, a)[0], 0, 0)]


def test_cut_runs_returns_at_once_below_a_floor():
    """A bound just under its floor yields no run, also on the pool rings whose
    Hermite diagonal entries exceed 1, where the cut point of the simplicial
    walk pairs up to a diagonal entry below the floors."""
    for name, ring in RINGS:
        rays = len(ring.sigma_rays)
        for i, floor in itertools.product(range(rays), range(1, 8)):
            floors = tuple(floor if j == i else 0 for j in range(rays))
            bounds = tuple(floor - 1 if j == i else 6 for j in range(rays))
            assert list(cut_runs(ring, bounds, floors, ())) == [], (name, i, floor)


def test_the_box_count_is_the_number_of_box_points():
    """On the pool and on seeded random non-simplicial cones in three and four dimensions."""
    cones = random_non_simplicial_rings(71, 3, (4, 6), 10) + random_non_simplicial_rings(73, 4, (5, 6), 4)
    for ring in [ring for _, ring in RINGS] + cones:
        rays = len(ring.sigma_rays)
        for bounds in itertools.product(range(0, 7, 3), repeat=rays) if ring.dim < 4 else [(4,) * rays, (2,) * rays]:
            assert _box_size(ring, bounds) == sum(1 for _ in lattice_points_in_box(ring, bounds)), bounds


def test_the_paper_target_walks_four_runs(monkeypatch):
    """(18, 12, 2) still reports the box (7, 3, 25) of 280 points and no
    splitting, but the walk reads the 4 runs (14 points, each on or above the
    floors) of the splitting box (3, 1, 1)..(4, 2, 10) where the reported box
    has 32 runs. A second refutation of the same box does not walk the
    reported box again."""
    ring, a, b = instance()
    assert TARGET == (18, 12, 2)
    walks = _walks(monkeypatch)
    for _ in range(2):
        report = exhaustive_refute(TARGET, a, b)
        assert (report.bounds, report.scanned, report.decompositions) == ((7, 3, 25), 280, ())
    assert [walk for walk in walks if any(walk[1])] == [((4, 2, 10), (3, 1, 1), 4, 14)] * 2
    assert [walk for walk in walks if not any(walk[1])] in ([], [((7, 3, 25), (0, 0, 0), 32, 280)])
    full = list(cut_runs(ring, (7, 3, 25), (0, 0, 0), ()))
    assert (len(full), sum(n for _, _, n in full)) == (32, 280)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_point_is_paired_once_with_the_errors_of_the_ray_scan(name, ring):
    """exponent_pairings returns the pairings with the point, and refuses a
    point outside the semigroup naming the first sigma ray it pairs negatively
    with, as the ray-by-ray scan it replaced did."""
    rng = random.Random(name)
    for _ in range(200):
        w = tuple(rng.randint(-4, 4) for _ in range(ring.dim))
        bad = [(dot(w, n), n) for n in ring.sigma_rays if dot(w, n) < 0]
        if bad:
            with pytest.raises(NotInSemigroup) as caught:
                exponent_pairings(ring, w)
            assert str(caught.value) == f"{w} pairs {bad[0][0]} with sigma ray {bad[0][1]}"
        else:
            assert exponent_pairings(ring, list(w)) == (w, ring.pairings(w))
    with pytest.raises(DimensionMismatch, match=f"point of dimension {ring.dim + 1} in ring of dimension {ring.dim}"):
        exponent_pairings(ring, (0,) * (ring.dim + 1))
