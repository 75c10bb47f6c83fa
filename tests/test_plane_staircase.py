"""The two-ray staircase against the list-and-minimalize reference and the box scan.

On a ring with two sigma rays, ideals.region_minimal_generators hands its
region to rings.region_generators, which keeps each row's first member as it
steps below the staircase and stops on the floor of the second sigma ray.
Every region here must give the generators of the reference _generic, which
lists the first members of the runs of rings.cut_runs, up to the first on
every floor after the first (test_cut_runs.listed_candidates), and hands the
list to minimalize, from the same bounds, floors and tests; so must the same
region with its bounds cut short at random, and a bound below its floor
gives no generator on either path. Regions whose box from the origin is
small enough for oracles.region_minimal_generators must give its generators
too, and the same region moved far from the origin gives them moved, as the
box scan of the moved region is out of reach. Rings are the pairs of
test_plane_rings in both orientations, determinants past 10,000 among them;
ideals have one to six generators near the origin, each region is a closure
and a multiplier region of u0. Each row is cut at the staircase, so only the
rows that reach below the last kept t1 pay for an interval test.
"""

import math
import random
from operator import lt

import pytest

import oracles
from test_cut_runs import listed_candidates
from test_plane_rings import PAIRS, ring_det
from toricmult import ideals, rings
from toricmult.ideals import minimalize, monomial_ideal, newton_polyhedron, region_minimal_generators
from toricmult.linalg import dot
from toricmult.rings import lattice_points_in_box, region_generators, ring_from_dual_rays, semigroup_points

# Largest box, in lattice points, on which a region is checked against the box scan;
# the scan of a determinant past 10,000 is made on the two least such rings only.
ORACLE_BOX = 2_500


def _generic(ring, bounds, floors, tests):
    """The list-and-minimalize reference: minimalize over the listed candidates of cut_runs."""
    return minimalize(ring, listed_candidates(ring, bounds, floors, tests))


def _cases():
    """(pair, generators, far) per seeded case: every pair with |det| <= 100, then a seeded
    sample of the rest; far is a semigroup point on the rays, hundreds of steps out."""
    rng = random.Random(5051)
    small = [pair for pair in PAIRS if abs(ring_det(pair)) <= 100]
    large = rng.sample([pair for pair in PAIRS if abs(ring_det(pair)) > 100], 60)
    cases = []
    for pair in small + large:
        ring = ring_from_dual_rays(pair)
        bound, points = 3 * math.isqrt(abs(ring_det(pair))) + 8, []
        while len(points) < 6:
            points, bound = [w for w in semigroup_points(ring, bound) if any(w)], 2 * bound
        gens = rng.sample(points, rng.randint(1, min(6, len(points))))
        r1, r2 = ring.dual_rays
        k1, k2 = rng.randint(100, 900), rng.randint(0, 900)
        cases.append((pair, gens, tuple(k1 * x + k2 * y for x, y in zip(r1, r2))))
    return cases


CASES = _cases()


def test_the_cases_reach_both_orientations_large_determinants_and_every_size():
    dets = [ring_det(pair) for pair, _, _ in CASES]
    assert min(dets) < -10_000 and max(dets) > 10_000
    assert {len(gens) for _, gens, _ in CASES} == set(range(1, 7))


@pytest.fixture
def staircase_calls(monkeypatch):
    """The (ring, bounds, floors, tests) of every region_generators call the region walk makes."""
    calls = []

    def spy(*args):
        calls.append(args)
        return region_generators(*args)

    monkeypatch.setattr(ideals, "region_generators", spy)
    return calls


def _scan_size(ring, poly, shift):
    """The lattice points, roughly, of the box that oracles.region_minimal_generators scans from
    the origin: its area over the index of the lattice of sigma pairings."""
    sides = [
        max(dot(v, n) for v in poly.vertices) + reach - (0 if shift is None else math.ceil(dot(shift, n))) + 1
        for n, reach in zip(ring.sigma_rays, ring.dual_ray_pairings)
    ]
    return sides[0] * sides[1] // abs(ring_det(ring.sigma_rays))


def test_the_staircase_is_the_generic_walk_and_the_box_scan(staircase_calls):
    rng = random.Random(5077)
    large = sorted(CASES, key=lambda case: (abs(ring_det(case[0])) <= 10_000, abs(ring_det(case[0]))))[:2]
    scanned, scanned_large, below = 0, 0, []
    for pair, gens, far in CASES:
        ring = ring_from_dual_rays(pair)
        a = monomial_ideal(ring, gens)
        for shift in (None, ring.canonical_shift()):
            near, moved = (region_minimal_generators(ideal, shift) for ideal in (a, a.moved(far)))
            assert moved == tuple(sorted(tuple(map(sum, zip(g, far))) for g in near)), (pair, gens, shift)
            for (_, bounds, floors, tests), gens_ in zip(staircase_calls[-2:], (near, moved)):
                assert gens_ == _generic(ring, bounds, floors, tests), (pair, gens, shift)
                short = tuple(rng.randint(f - 2, b) for f, b in zip(floors, bounds))
                assert region_generators(ring, short, floors, tests) == _generic(ring, short, floors, tests)
                below.append(any(map(lt, short, floors)))
            poly = newton_polyhedron(a)
            if _scan_size(ring, poly, shift) <= ORACLE_BOX or (pair, gens, far) in large:
                assert near == oracles.region_minimal_generators(ring, poly, shift), (pair, gens, shift)
                scanned += 1
                scanned_large += abs(ring_det(pair)) > 10_000
    assert len(staircase_calls) == len(below) == 4 * len(CASES) and 0 < sum(below) < len(below)
    assert scanned >= 200 and scanned_large == 4


def test_a_bound_below_its_floor_gives_no_generator(staircase_calls):
    ring = ring_from_dual_rays(((2, 1), (1, 2)))
    region_minimal_generators(monomial_ideal(ring, [(4, 2), (2, 4), (3, 3)]), ring.canonical_shift())
    (_, bounds, floors, tests), = staircase_calls
    assert region_generators(ring, bounds, floors, tests)
    for i in range(2):
        below = tuple(f - 1 if j == i else b for j, (f, b) in enumerate(zip(floors, bounds)))
        assert region_generators(ring, below, floors, tests) == () == _generic(ring, below, floors, tests)


def _rows(ring, bounds, floors, gens):
    """(reaching, walked) for region_generators' cut box: the rows that start below the last kept
    t1, which the row cut tests, and every row walked up to the one whose generator lies on the
    floor of the second sigma ray, each of which an uncut row pays a test for. A row is its
    start's t0 and t1 - tp[1], less a multiple of s, the step of a run in t1."""
    _, tp, _ = rings._cut_point(ring, floors)
    s = ring.run_step[1][1]
    steps = {(t0 - tp[0], (t1 - tp[1]) % s): t1 for t0, t1 in map(ring.pairings, gens)}
    last, reaching, walked = bounds[1] + 1, 0, 0
    for _, row in lattice_points_in_box(ring, (bounds[0] - tp[0], min(bounds[1] - tp[1], s - 1))):
        walked += 1
        reaching += row[1] + tp[1] < last
        last = steps.get(row, last)
        if last == floors[1]:
            break
    return reaching, walked


def test_only_rows_reaching_below_the_staircase_are_tested(staircase_calls, monkeypatch):
    """Every region of the cases past determinant 10,000, and <x, x^20 y^3999> on the ring of
    tests/skewed_pair_multiplier.json (determinant 200), whose staircase runs within one run step
    of the floor for 4,000 rows: the cut skips about 45% of them, where the uncut rows tested all."""
    calls = []

    def spy(*args):
        calls.append(args)
        return run_interval(*args)

    run_interval = rings.run_interval
    monkeypatch.setattr(rings, "run_interval", spy)
    skewed = ring_from_dual_rays(((1, 0), (1, 200)))
    cases = [monomial_ideal(ring_from_dual_rays(pair), gens) for pair, gens, _ in CASES if abs(ring_det(pair)) > 10_000]
    tested, walked = [], []
    for ideal in cases + [monomial_ideal(skewed, [(1, 0), (20, 3999)])]:
        for shift in (None, ideal.ring.canonical_shift()):
            region_minimal_generators(ideal, shift)
            (ring, bounds, floors, tests), = staircase_calls
            staircase_calls.clear()
            calls.clear()
            reaching, rows = _rows(ring, bounds, floors, region_generators(ring, bounds, floors, tests))
            assert len(calls) == reaching <= rows, (ring.dual_rays, ideal.gens, shift)
            tested.append(reaching)
            walked.append(rows)
    assert sum(tested[:-2]) < sum(walked[:-2])
    assert walked[-2:] == [4000, 4000] and max(tested[-2:]) < 0.6 * 4000
