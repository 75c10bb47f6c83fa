"""The non-simplicial lattice walk against the independent parallelepiped scan.

On a non-simplicial sigma, lattice_points_in_box walks the Hermite runs
w + k u of a basis of sigma rays and clips each run, by integer division, to
the bounds of every other sigma ray n: along the run <w + k u, n> = a + k s.
The walk must yield exactly oracles.box_points, in the same (lexicographic)
order, with each point's full pairing vector. The rings are seeded random
non-simplicial cones in three and four dimensions, with bounds from 0 to 6,
and one fixed cone whose extra sigma ray pairs negatively with u, which only
a few random cones do (the basis rays u is orthogonal to must cut sigma
rather than span one of its faces).

The run structure is recomputed here from the oracle alone, so the suite
can assert that it reaches every kind of clipping step: s > 0, s < 0 and
s = 0, and runs that the other rays empty altogether.
"""

import random
from collections import defaultdict

import pytest

from instances import STEPPING_DOWN, random_non_simplicial_rings
from oracles import box_points, dot

from toricmult.rings import lattice_points_in_box


def _cases():
    rng = random.Random(131)
    rings = random_non_simplicial_rings(71, 3, (4, 6), 30) + random_non_simplicial_rings(73, 4, (5, 6), 12)
    rings.append(STEPPING_DOWN)
    cases = []
    for ring in rings:
        basis = ring.sigma_lattice[0]
        others = [j for j in range(len(ring.sigma_rays)) if j not in basis]
        for _ in range(2):
            bounds = [rng.randint(0, 6) for _ in ring.sigma_rays]
            cases.append((ring, tuple(bounds)))
        bounds[rng.choice(others)] = 0
        cases.append((ring, tuple(bounds)))
    return cases


CASES = _cases()


def _run_steps(ring, bounds):
    """(s per non-basis sigma ray, number of runs that those rays empty).

    The runs of the basis box are its points grouped by their pairings with
    every basis ray but the last, along which the walk steps by u.
    """
    basis, _, uni = ring.sigma_lattice
    ns = ring.sigma_rays
    u = tuple(row[-1] for row in uni)
    others = [j for j in range(len(ns)) if j not in basis]
    runs = defaultdict(list)
    for w in box_points([ns[i] for i in basis], [bounds[i] for i in basis]):
        runs[tuple(dot(w, ns[i]) for i in basis[:-1])].append(w)
    emptied = sum(
        not any(all(0 <= dot(w, ns[j]) <= bounds[j] for j in others) for w in run)
        for run in runs.values()
    )
    return [dot(u, ns[j]) for j in others], emptied


@pytest.mark.parametrize("index", range(len(CASES)))
def test_walk_matches_the_parallelepiped_scan_in_order(index):
    ring, bounds = CASES[index]
    walked = list(lattice_points_in_box(ring, bounds))
    assert walked == [(w, ring.pairings(w)) for w in box_points(ring.sigma_rays, bounds)]


def test_cases_reach_every_kind_of_clipping_step():
    steps, emptied = set(), 0
    for ring, bounds in CASES:
        s, e = _run_steps(ring, bounds)
        steps.update((x > 0) - (x < 0) for x in s)
        emptied += e
    assert steps == {1, 0, -1}
    assert emptied > 0
    assert {ring.dim for ring, _ in CASES} == {3, 4}
    assert any(
        bounds[j] == 0 for ring, bounds in CASES for j in range(len(bounds)) if j not in ring.sigma_lattice[0]
    )
