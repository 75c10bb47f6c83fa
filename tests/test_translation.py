"""Newton polyhedra, closures and multiplier ideals of translates.

For a lattice vector c, N(c + a) = c + N(a); divisibility and the canonical
point u0 do not move, so closure(c + a) = c + closure(a) and
J(c + a) = c + J(a). The library (ideals.per_translation_class) answers an
ideal whose lex-first generator g0 is not the origin from its representative
a - g0, moved back by g0. Here
the answers for translates c + a, c a random semigroup point, are checked
field by field against the translated answers for a, against a fresh double
description and a walk of c + a itself, and against the grid scans of
oracles. The representative's points may pair negatively with sigma rays, so
its region walk starts on negative floors; it must find the box scan's
generators of the region of a, moved by -g0.
"""

import itertools
import random
from dataclasses import fields

import pytest

import oracles
from instances import POOL, STEPPING_DOWN, random_2d_ring, random_3d_ring, random_ideal, random_non_simplicial_rings

from toricmult.geometry import hull_plus_cone
from toricmult.ideals import integral_closure, newton_polyhedron, region_minimal_generators
from toricmult.linalg import vscale, vsub
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays, semigroup_points


def _rings():
    rng = random.Random(3001)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings.append(("stepping-down-3d", STEPPING_DOWN))
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 5)) for i in range(6)]
    rings += [(f"random-3d-{i}", random_3d_ring(rng)) for i in range(2)]
    rings += [(f"non-simplicial-3d-{i}", r) for i, r in enumerate(random_non_simplicial_rings(3011, 3, (4, 4), 2))]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]
Q_GORENSTEIN = [(name, ring) for name, ring in RINGS if ring.q_gorenstein]


def _translates(name, ring):
    """(a, c) for three seeded ideals a of the ring and two nonzero semigroup points c each."""
    rng = random.Random(name)
    bound = next(b for b in itertools.count(5 if ring.dim == 2 else 3) if len(semigroup_points(ring, b)) > 4)
    shifts = [c for c in semigroup_points(ring, bound) if any(c)]
    for _ in range(3):
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=bound)
        for c in rng.sample(shifts, 2):
            yield a, c


def _shifts(ring):
    return (None, ring.canonical_shift()) if ring.q_gorenstein else (None,)


def _fields(x):
    return [getattr(x, f.name) for f in fields(x)]


def test_the_rings_reach_every_kind_of_cone():
    names = set(IDS)
    assert {"index-three-2d", "square-cone-3d", "stepping-down-3d"} <= names
    assert any(len(ring.sigma_rays) > ring.dim for _, ring in RINGS[len(POOL) + 1 :])


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_translate_has_the_translated_newton_polyhedron(name, ring):
    for a, c in _translates(name, ring):
        moved = a.moved(c)
        poly = newton_polyhedron(moved)
        assert _fields(poly) == _fields(hull_plus_cone(moved.gens, ring.cone)), (a, c)
        assert _fields(poly) == _fields(newton_polyhedron(a).moved(c)), (a, c)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_translate_has_the_translated_closure(name, ring):
    for a, c in _translates(name, ring):
        moved = a.moved(c)
        closure = integral_closure(moved)
        assert _fields(closure) == _fields(integral_closure(a).moved(c)), (a, c)
        assert closure.gens == oracles.closure_scan(moved.gens, ring.dual_rays, ring.sigma_rays), (a, c)
        if len(moved.gens) > 1:
            assert closure.gens == region_minimal_generators(moved, None), (a, c)


@pytest.mark.parametrize("name, ring", Q_GORENSTEIN, ids=[name for name, _ in Q_GORENSTEIN])
def test_a_translate_has_the_translated_multiplier_ideal(name, ring):
    u0 = ring.canonical_shift()
    for a, c in _translates(name, ring):
        moved = a.moved(c)
        j = multiplier_ideal(moved)
        assert _fields(j) == _fields(multiplier_ideal(a).moved(c)), (a, c)
        assert j.gens == oracles.multiplier_scan(moved.gens, ring.dual_rays, ring.sigma_rays, u0), (a, c)
        assert j.gens == region_minimal_generators(moved, u0), (a, c)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_the_representative_walks_from_negative_floors(name, ring):
    """a - g0 has the origin as its lex-first generator, and every other generator pairs
    below g0 with some sigma ray, so some floor is negative."""
    for a, c in _translates(name, ring):
        for x in (a, a.moved(c)):
            g0 = x.gens[0]
            rep = x.moved(vscale(-1, g0))
            assert rep.gens[0] == (0,) * ring.dim and rep.moved(g0) == x
            if len(x.gens) > 1:
                assert min(map(min, rep.pairings)) < 0, x
            poly = newton_polyhedron(x)
            assert _fields(newton_polyhedron(rep)) == _fields(hull_plus_cone(rep.gens, ring.cone)), x
            assert _fields(newton_polyhedron(rep)) == _fields(poly.moved(vscale(-1, g0))), x
            for shift in _shifts(ring):
                expected = oracles.region_minimal_generators(ring, poly, shift)
                assert region_minimal_generators(rep, shift) == tuple(vsub(w, g0) for w in expected), (x, shift)
