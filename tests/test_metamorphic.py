"""Metamorphic invariants: a change of lattice coordinates changes nothing.

A unimodular U maps the lattice M to itself, so the ring with dual rays U·r is
isomorphic to the ring with dual rays r, with x^w corresponding to x^(U·w).
Closures, multiplier ideals and subadditivity verdicts must follow U exactly,
and none of them may depend on the order in which rays or generators are
written. The 2D POOL rings and the paper's 3D ring carry the checks.
"""

import random

import pytest

from instances import POOL, random_ideal
from oracles import det, dot, vadd, vsub

from toricmult.builtin_example import A_GENS, B_GENS, RING_DUAL_RAYS, WITNESS
from toricmult.ideals import integral_closure, monomial_ideal, product
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import Side, check_subadditivity, decompose_2d

RINGS = [(name, dual) for name, dual, _, _ in POOL if len(dual[0]) == 2]
RINGS.append(("paper-3d", RING_DUAL_RAYS))


def random_unimodular(rng: random.Random, d: int, steps: int = 3):
    """A seeded matrix of determinant ±1: row additions, a row shuffle, signs."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    m = [[-x for x in row] if rng.random() < 0.5 else row for row in m]
    assert det(m) in (1, -1)
    return tuple(tuple(row) for row in m)


def apply(u, w):
    return tuple(dot(row, w) for row in u)


def mapped(u, points):
    return tuple(sorted(apply(u, w) for w in points))


def image(u, a):
    """The ideal a carried by u into the ring whose dual rays are u·r."""
    ring = ring_from_dual_rays([apply(u, r) for r in a.ring.dual_rays])
    return monomial_ideal(ring, [apply(u, g) for g in a.gens])


def seeded_cases(seed: int, pairs: int = 3, transforms: int = 2):
    """(ring name, a, b, U) over every ring of RINGS, drawn from the seed."""
    rng = random.Random(seed)
    for name, dual in RINGS:
        ring = ring_from_dual_rays(dual)
        for _ in range(pairs):
            a = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
            b = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
            for _ in range(transforms):
                yield name, a, b, random_unimodular(rng, ring.dim)


def paper_pair():
    ring = ring_from_dual_rays(RING_DUAL_RAYS)
    return monomial_ideal(ring, A_GENS), monomial_ideal(ring, B_GENS)


def test_random_unimodular_matrices_are_not_trivial():
    rng = random.Random(0)
    matrices = {random_unimodular(rng, d) for d in (2, 3) for _ in range(10)}
    assert len(matrices) > 15
    assert any(max(abs(x) for row in m for x in row) > 1 for m in matrices)


def test_canonical_points_map_by_u():
    rng = random.Random(11)
    for name, dual in RINGS:
        ring = ring_from_dual_rays(dual)
        for _ in range(3):
            u = random_unimodular(rng, ring.dim)
            moved = ring_from_dual_rays([apply(u, r) for r in dual])
            assert moved.canonical_shift() == apply(u, ring.canonical_shift()), (name, u)
            assert moved.q_gorenstein[1] == ring.q_gorenstein[1]


def test_closure_and_multiplier_generators_map_by_u():
    for name, a, b, u in seeded_cases(seed=101):
        for x in (a, b, product(a, b)):
            y = image(u, x)
            assert y.gens == mapped(u, x.gens)
            assert integral_closure(y).gens == mapped(u, integral_closure(x).gens), (name, u, x.gens)
            assert multiplier_ideal(y).gens == mapped(u, multiplier_ideal(x).gens), (name, u, x.gens)


def test_subadditivity_verdicts_do_not_change():
    for name, a, b, u in seeded_cases(seed=202):
        before = check_subadditivity(a, b)
        after = check_subadditivity(image(u, a), image(u, b))
        assert after.holds == before.holds, (name, u, a.gens, b.gens)
        assert after.witnesses == mapped(u, before.witnesses)
        assert after.j_ab.gens == mapped(u, before.j_ab.gens)


def test_failing_verdicts_on_the_paper_ring_do_not_change():
    # a and b share a generator, as the paper's do, which makes failures common
    rng = random.Random(7)
    ring = ring_from_dual_rays(RING_DUAL_RAYS)
    points = [w for w in semigroup_points(ring, 10) if any(w)]
    failures = 0
    for _ in range(20):
        shared = rng.choice(points)
        a = monomial_ideal(ring, rng.sample(points, 2) + [shared])
        b = monomial_ideal(ring, rng.sample(points, 2) + [shared])
        u = random_unimodular(rng, 3)
        before = check_subadditivity(a, b)
        after = check_subadditivity(image(u, a), image(u, b))
        assert after.holds == before.holds, (u, a.gens, b.gens)
        assert after.witnesses == mapped(u, before.witnesses)
        failures += not before.holds
    assert failures >= 2


@pytest.mark.parametrize("seed", range(3))
def test_the_paper_counterexample_survives_a_change_of_coordinates(seed):
    a, b = paper_pair()
    u = random_unimodular(random.Random(seed), 3)
    verdict = check_subadditivity(image(u, a), image(u, b))
    assert not verdict.holds
    assert apply(u, WITNESS) in verdict.witnesses
    assert verdict.witnesses == mapped(u, check_subadditivity(a, b).witnesses)


def test_reordering_rays_and_generators_changes_nothing():
    rng = random.Random(303)
    cases = list(seeded_cases(seed=303, pairs=2, transforms=1))
    cases.append(("paper-3d", *paper_pair(), random_unimodular(rng, 3)))
    for name, a, b, u in cases:
        for x, y in ((a, b), (image(u, a), image(u, b))):
            rays = list(x.ring.dual_rays)
            rng.shuffle(rays)
            ring = ring_from_dual_rays(rays)
            assert ring == x.ring, name
            shuffled = []
            for ideal in (x, y):
                gens = list(ideal.gens)
                rng.shuffle(gens)
                shuffled.append(monomial_ideal(ring, gens))
            assert shuffled == [x, y]
            assert check_subadditivity(*shuffled) == check_subadditivity(x, y)
            assert check_subadditivity(*reversed(shuffled)).holds == check_subadditivity(x, y).holds


def test_decompositions_recompose_on_the_image():
    count = 0
    for name, a, b, u in seeded_cases(seed=404, pairs=4):
        if a.ring.dim != 2:
            continue
        x, y = image(u, a), image(u, b)
        u0 = x.ring.canonical_shift()
        for g in multiplier_ideal(product(x, y)).gens:
            d = decompose_2d(g, x, y)
            source = x if d.side is Side.FROM_A else y
            assert d.witness in source.gens, (name, u, g)
            assert d.remainder_check.contained and d.remainder_check.strict
            assert vsub(vadd(d.witness, d.remainder), u0) == g
            count += 1
    assert count > 50
