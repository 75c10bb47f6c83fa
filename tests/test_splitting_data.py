"""Refutation reads each ideal pair's splitting data once.

subadditivity._splitting_data keeps, per (a, b), the thresholds of N(a)'s
interior and of N(b)'s u0-shifted interior (negated), and the floors of the
splitting box; exhaustive_refute computes only the per-target offsets and
ceilings. The thresholds the walk already makes are left out: N(b)'s
sigma-ray facets are the box's ceilings on every cone, and on non-simplicial
sigma N(a)'s sigma-ray facets are its floors. Reports must equal
oracles.exhaustive_refute, which tests every point of the reported box on
every facet, in any order of targets and pairs, also after the memo has
evicted a pair; and every other facet must stay: dropping any one of them
makes some report differ from the oracle's.
"""

import itertools
import random

import pytest

import oracles
from instances import POOL, random_ideal, random_non_simplicial_rings
from toricmult.builtin_example import instance
from toricmult.geometry import lattice_thresholds
from toricmult.ideals import monomial_ideal, newton_polyhedron, product
from toricmult.linalg import vadd, vscale
from toricmult.rings import ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import SPLITTING_CACHE_SIZE, _splitting_data, exhaustive_refute

SQUARE_CONE = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))


def _rings():
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    cones = [
        ring
        for ring in random_non_simplicial_rings(71, 3, (4, 6), 40)
        if ring.q_gorenstein is not None and len(semigroup_points(ring, 3)) > 3
    ]
    return rings + [(f"non-simplicial-{i}", ring) for i, ring in enumerate(cones)]


RINGS = _rings()


def _jobs(name, ring):
    """(target, a, b) for three random ideal pairs on the ring: product generators
    plus small semigroup points, and small semigroup points alone."""
    rng = random.Random(f"pair-data-{name}")
    bound = 5 if ring.dim == 2 else 3
    points = semigroup_points(ring, bound)
    ideals = [random_ideal(rng, ring, 3, bound) for _ in range(3)]
    jobs = []
    for a, b in itertools.permutations(ideals, 2):
        targets = [vadd(g, p) for g in product(a, b).gens[:2] for p in rng.sample(points, min(2, len(points)))]
        jobs += [(v, a, b) for v in targets + rng.sample(points, min(2, len(points)))]
    return jobs


def test_the_rings_cover_both_walks():
    assert len(RINGS) > len(POOL)
    assert {len(ring.sigma_rays) > ring.dim for _, ring in RINGS} == {False, True}


def test_shuffled_and_interleaved_targets_match_the_oracle():
    """Every ring's pairs in one shuffled list, so a pair's targets are met apart
    and the memo, holding fewer pairs than the list has, evicts and rebuilds."""
    jobs = [job for name, ring in RINGS for job in _jobs(name, ring)]
    random.Random(17).shuffle(jobs)
    pairs = {(a, b) for _, a, b in jobs}
    assert len(pairs) > SPLITTING_CACHE_SIZE
    _splitting_data.cache_clear()
    for v, a, b in jobs:
        assert exhaustive_refute(v, a, b) == oracles.exhaustive_refute(v, a, b), (v, a.gens, b.gens)
    assert _splitting_data.cache_info().misses > len(pairs)


@pytest.mark.parametrize("name, ring", RINGS, ids=[name for name, _ in RINGS])
def test_the_data_leaves_out_exactly_the_tests_of_the_box(name, ring):
    """N(b) loses one threshold per sigma ray on every cone, N(a) only on
    non-simplicial sigma; the rest are the polyhedra's own, N(b)'s negated."""
    sigma = set(ring.sigma_rays)
    simplicial = len(sigma) == ring.dim
    for a, b in {(a, b) for _, a, b in _jobs(name, ring)}:
        inside_a, outside_b, floors, floor_b = _splitting_data(a, b)
        shifted_b = lattice_thresholds(newton_polyhedron(b), ring.canonical_shift())
        assert outside_b == tuple((vscale(-1, f), m) for f, m in shifted_b if f not in sigma)
        assert len(outside_b) == len(shifted_b) - len(sigma)
        interior_a = lattice_thresholds(newton_polyhedron(a), (0,) * ring.dim)
        assert inside_a == tuple(test for test in interior_a if simplicial or test[0] not in sigma)
        assert floors == tuple(min(t) + 1 for t in zip(*a.pairings))
        assert floor_b == tuple(map(min, zip(*b.pairings)))


@pytest.mark.parametrize("name, ring", RINGS, ids=[name for name, _ in RINGS])
def test_the_data_is_read_once_per_pair(name, ring):
    """A pair's targets refuted together, in shuffled order within the pair:
    one miss per distinct pair, a hit for every other target."""
    jobs = _jobs(name, ring)
    groups = {}
    for v, a, b in jobs:
        groups.setdefault((a, b), []).append(v)
    rng = random.Random(name)
    _splitting_data.cache_clear()
    for (a, b), targets in groups.items():
        for v in rng.sample(targets, len(targets)):
            exhaustive_refute(v, a, b)
    info = _splitting_data.cache_info()
    assert (info.misses, info.hits) == (len(groups), len(jobs) - len(groups))
    assert info.currsize == min(len(groups), SPLITTING_CACHE_SIZE)


# (ring, a, b) on whose N(a) and N(b) every facet off the sigma rays decides some
# target: the paper's pair on its simplicial ring, and a pair on the square cone.
NEEDED = [
    ("counterexample-3d", *instance(), 4),
    (
        "square-cone-3d",
        SQUARE_CONE,
        monomial_ideal(SQUARE_CONE, ((0, -1, 2), (0, 1, 2), (0, 2, 2))),
        monomial_ideal(SQUARE_CONE, ((0, -1, 1), (1, 1, 2))),
        3,
    ),
]


@pytest.mark.parametrize("name, ring, a, b, bound", NEEDED, ids=[case[0] for case in NEEDED])
def test_dropping_one_more_facet_disagrees_with_the_oracle(monkeypatch, name, ring, a, b, bound):
    """Leave out also one threshold of a facet off the sigma rays, of N(a) or of
    N(b), and some target among the product generators moved by small semigroup
    points gets a report other than the oracle's."""
    sigma = set(ring.sigma_rays)
    inside_a, outside_b, floors, floor_b = _splitting_data(a, b)
    off_sigma_a = [test for test in inside_a if test[0] not in sigma]
    assert off_sigma_a and outside_b
    targets = [vadd(g, p) for g in product(a, b).gens for p in semigroup_points(ring, bound)]
    expected = {}
    drops = [("a", test) for test in off_sigma_a] + [("b", test) for test in outside_b]
    for side, test in drops:
        data = (
            tuple(t for t in inside_a if t != test) if side == "a" else inside_a,
            tuple(t for t in outside_b if t != test) if side == "b" else outside_b,
            floors,
            floor_b,
        )
        monkeypatch.setattr("toricmult.subadditivity._splitting_data", lambda a, b, data=data: data)
        for v in targets:
            if v not in expected:
                expected[v] = oracles.exhaustive_refute(v, a, b)
            if exhaustive_refute(v, a, b) != expected[v]:
                break
        else:
            pytest.fail(f"dropping {test} of N({side}) changed no report")
