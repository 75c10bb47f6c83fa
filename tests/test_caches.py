"""Memoized layers: bounded caches that return what a fresh computation returns.

Rings, Newton polyhedra, integral closures, multiplier ideals, the 2D edge
regions of an ideal pair, and the two search stages (the skeleton space of a
config's bounds and the gap points of a generator pair) are pure functions
of frozen values, so each is memoized by value; a ring's canonical point and
sigma lattice are computed once and held by the ring itself. The checks here
pin that every cache is bounded, that a cached answer equals the undecorated
function's, that configs differing only in seed or cap share one skeleton
space, and that errors are raised again rather than remembered.
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import random

import pytest

import oracles
from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, POOL, STEPPING_DOWN, pool_rings, random_ideal

from toricmult.errors import (
    DimensionMismatch,
    NotDimension2,
    NotFullDimensional,
    NotInMultiplierIdeal,
    NotPointed,
    NotQGorenstein,
)
from toricmult.ideals import integral_closure, monomial_ideal, newton_polyhedron
from toricmult.linalg import hermite_normal_form
from toricmult.multiplier import multiplier_ideal
from toricmult.problemio import load_search_config
from toricmult.rings import ring_from_dual_rays
from toricmult.subadditivity import (
    SearchConfig,
    _edge_regions,
    _gap_generators,
    _skeleton_space,
    _skeletons,
    _space_bounds,
    decompose_2d,
)

MEMOIZED = (
    ring_from_dual_rays,
    newton_polyhedron,
    integral_closure,
    multiplier_ideal,
    _edge_regions,
    _skeleton_space,
    _gap_generators,
)

TESTS = Path(__file__).parent
SEARCH_CONFIGS = {
    "default": SearchConfig(),
    "small-hits": load_search_config(str(TESTS / "small_hits_search.json")),
    "singular": load_search_config(str(TESTS / "singular_bases_search.json")),
}


@pytest.mark.parametrize("layer", MEMOIZED, ids=lambda f: f.__name__)
def test_every_cache_is_bounded(layer):
    maxsize = layer.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


def pool_ideals():
    rng = random.Random(23)
    for name, ring in pool_rings():
        for _ in range(6):
            yield name, random_ideal(rng, ring, max_gens=3, pairing_bound=6)


@pytest.mark.parametrize("layer", (newton_polyhedron, integral_closure), ids=lambda f: f.__name__)
def test_cached_ideal_results_equal_fresh_ones(layer):
    for _, a in pool_ideals():
        assert layer(a) == layer.__wrapped__(a)
        assert layer(a) is layer(a)


def test_cached_multiplier_ideals_equal_fresh_ones():
    for name, a in pool_ideals():
        assert multiplier_ideal(a) == multiplier_ideal.__wrapped__(a), name
        hits = multiplier_ideal.cache_info().hits
        assert multiplier_ideal(a) is multiplier_ideal(a)
        assert multiplier_ideal.cache_info().hits == hits + 2


@pytest.mark.parametrize("name, dual", [(name, dual) for name, dual, _, _ in POOL])
def test_list_and_tuple_rays_give_one_ring(name, dual):
    from_tuples = ring_from_dual_rays(dual)
    from_lists = ring_from_dual_rays([list(r) for r in dual])
    from_generator = ring_from_dual_rays(tuple(r) for r in dual)
    assert from_tuples == from_lists == from_generator
    assert from_tuples is from_lists is from_generator


def test_equal_ideals_of_equal_rings_share_cached_results():
    first = monomial_ideal(ring_from_dual_rays([[2, 1], [1, 2]]), [(2, 4), (12, 7)])
    second = monomial_ideal(ring_from_dual_rays(((2, 1), (1, 2))), [[12, 7], [2, 4]])
    assert first == second
    assert integral_closure(first) is integral_closure(second)


@pytest.mark.parametrize(
    "rays, error",
    [
        ([(1, 0), (-1, 0), (0, 1)], NotPointed),
        ([(1, 0, 0), (0, 1, 0)], NotFullDimensional),
        ([(1, 0), (0, 1, 0)], DimensionMismatch),
        ([(1, 0), (0, 0)], ValueError),
        ([(1, 0), (0.5, 1)], ValueError),
        ([], ValueError),
    ],
)
def test_invalid_rays_raise_on_every_call(rays, error):
    for _ in range(2):
        with pytest.raises(error):
            ring_from_dual_rays(rays)


def test_refused_multiplier_ideals_are_refused_again():
    ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
    a = monomial_ideal(ring, [(0, 0, 1)])
    for _ in range(2):
        with pytest.raises(NotQGorenstein):
            multiplier_ideal(a)


def test_cached_sigma_lattices_equal_fresh_ones():
    for name, ring in [*pool_rings(), ("stepping-down-3d", STEPPING_DOWN)]:
        basis = oracles.facet_first_basis(ring.sigma_rays, ring.dual_rays)
        fresh = (basis, *hermite_normal_form([ring.sigma_rays[i] for i in basis]))
        assert ring.sigma_lattice == fresh, name
        assert ring.sigma_lattice is ring.sigma_lattice


@pytest.mark.parametrize("name, dual, u0", [(name, dual, u0) for name, dual, _, u0 in POOL])
def test_the_canonical_point_is_built_once_per_ring(name, dual, u0):
    ring = ring_from_dual_rays(dual)
    assert ring.canonical_shift() == tuple(Fraction(c) for c in u0)
    assert ring.canonical_shift() is ring.canonical_shift()


def pool_pairs_2d():
    rng = random.Random(31)
    for name, ring in pool_rings():
        if ring.dim == 2:
            for _ in range(4):
                a = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
                yield name, a, random_ideal(rng, ring, max_gens=3, pairing_bound=8)


def test_cached_edge_regions_equal_fresh_ones():
    for name, a, b in pool_pairs_2d():
        for x, y in ((a, b), (b, a)):
            assert _edge_regions(x, y) == _edge_regions.__wrapped__(x, y), name
            hits = _edge_regions.cache_info().hits
            assert _edge_regions(x, y) is _edge_regions(x, y)
            assert _edge_regions.cache_info().hits == hits + 2


def test_refused_decompositions_are_refused_again():
    plane = ring_from_dual_rays([(2, 1), (1, 2)])
    a = monomial_ideal(plane, [(2, 4)])
    b = monomial_ideal(plane, [(12, 7)])
    solid = ring_from_dual_rays([(2, 1, 0), (1, 2, 0), (0, 0, 1)])
    c = monomial_ideal(solid, [(2, 4, 0)])
    for _ in range(2):
        with pytest.raises(NotInMultiplierIdeal):
            decompose_2d((0, 0), a, b)
        with pytest.raises(NotDimension2):
            decompose_2d((17, 11, 1), c, c)
    # the refused point did not poison the pair's cached regions
    d = decompose_2d((14, 11), a, b)
    assert (d.witness, d.region_index) == ((2, 4), 0)


@pytest.mark.parametrize("name", SEARCH_CONFIGS)
def test_cached_search_stages_equal_fresh_ones(name):
    bounds = _space_bounds(SEARCH_CONFIGS[name])
    space = _skeleton_space(*bounds)
    assert space == _skeleton_space.__wrapped__(*bounds)
    assert _skeleton_space(*bounds) is space
    blocks, _ = space
    for ring, gens, _, _ in blocks:
        for i, g1 in enumerate(gens):
            for g2 in gens[i:]:
                gaps = _gap_generators(ring, g1, g2)
                assert gaps == _gap_generators.__wrapped__(ring, g1, g2)
                assert _gap_generators(ring, g1, g2) is gaps


def test_configs_differing_in_seed_or_cap_share_one_skeleton_space():
    config = SearchConfig(max_candidates=16, seed=1)
    next(_skeletons(config))
    for other in (replace(config, seed=2), replace(config, max_candidates=3), replace(config, max_candidates=None)):
        info = _skeleton_space.cache_info()
        next(_skeletons(other))
        assert _skeleton_space.cache_info().hits == info.hits + 1
        assert _skeleton_space.cache_info().currsize == info.currsize
        assert _skeleton_space(*_space_bounds(other)) is _skeleton_space(*_space_bounds(config))
