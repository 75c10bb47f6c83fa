"""Memoized layers: bounded caches that return what a fresh computation returns.

Rings, products and sums of ideals, Newton polyhedra, integral closures,
multiplier ideals, subadditivity verdicts, the 2D edge regions of an ideal
pair, the lattice-point count of a refutation's box, the splitting data of
an ideal pair, the cut point of a simplicial walk from its floors, the lift
of a construction, and the two search stages (the skeleton space of a
config's bounds and the gap points of a generator pair) are pure functions
of frozen values, so each is memoized by value; a ring's canonical point,
sigma lattice, walk plan and dual-ray reach are computed once and held by
the ring itself, as is its hash and an ideal's, and a cone holds which rays
each facet normal is tight on. Newton polyhedra, closures and multiplier
ideals are computed once per translation class: one decorator,
ideals.per_translation_class, gives each of the three one memo of the ideals
asked for and a bounded cell per class that holds the first member met with
its answer, which the later members move; no other ideal is computed, so a
wrapper bound in place of a layer sees one call per public call. The checks
here pin that every
cache is bounded, each by the package's one bound rings.CACHE_SIZE, that a cached answer equals the undecorated function's,
that equal values built apart share one entry, that configs differing only
in seed or cap share one skeleton space, and that errors are raised again
rather than remembered. The bound is also checked by scanning the package's
source for every memo decorator, so a memo missing from MEMOIZED cannot
escape it.
"""

import ast
from functools import cache
from fractions import Fraction
from pathlib import Path

import random
import sys

import pytest

import oracles
from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, POOL, STEPPING_DOWN, pool_rings, random_ideal

import toricmult.ideals
import toricmult.multiplier
from toricmult.errors import (
    DimensionMismatch,
    NotDimension2,
    NotFullDimensional,
    NotInMultiplierIdeal,
    NotPointed,
    NotQGorenstein,
    RecipeInvalid,
    ZeroIdeal,
)
from toricmult.ideals import MonomialIdeal, ideal_sum, integral_closure, monomial_ideal, newton_polyhedron, product
from toricmult.linalg import dot, hermite_normal_form
from toricmult.multiplier import multiplier_ideal
from toricmult.problemio import load_search_config
from toricmult.rings import (
    CACHE_SIZE,
    ToricRing,
    _cut_point,
    _ring_from_rays,
    box_point_count,
    ring_from_dual_rays,
    semigroup_points,
)
from toricmult.subadditivity import (
    ConstructionRecipe,
    SearchConfig,
    _edge_regions,
    _enumerated_recipes,
    _gap_generators,
    _lift,
    _skeleton_space,
    _skeletons,
    _space_bounds,
    _splitting_data,
    check_subadditivity,
    decompose_2d,
    huneke_swanson_construct,
)

MEMOIZED = (
    ring_from_dual_rays,
    product,
    ideal_sum,
    newton_polyhedron,
    integral_closure,
    multiplier_ideal,
    check_subadditivity,
    _edge_regions,
    _skeleton_space,
    _gap_generators,
    box_point_count,
    _splitting_data,
    _cut_point,
    _lift,
)

TESTS = Path(__file__).parent
PACKAGE = sorted((TESTS.parent / "src" / "toricmult").glob("*.py"))
MAX_CACHE_SIZE = 1024
SEARCH_CONFIGS = {
    "default": SearchConfig(),
    "small-hits": load_search_config(str(TESTS / "small_hits_search.json")),
    "singular": load_search_config(str(TESTS / "singular_bases_search.json")),
}


@pytest.mark.parametrize("layer", MEMOIZED, ids=lambda f: f.__name__)
def test_every_cache_is_bounded(layer):
    maxsize = layer.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= MAX_CACHE_SIZE


def test_every_memo_holds_the_one_bound():
    """Every memoized layer, and the class cells of each per_translation_class layer, keeps
    rings.CACHE_SIZE entries, the package's one memo bound, assigned once in its source."""
    per_class = [layer for layer in MEMOIZED if hasattr(layer, "classes")]
    assert per_class == [newton_polyhedron, integral_closure, multiplier_ideal]
    for layer in [*MEMOIZED, *(layer.classes for layer in per_class)]:
        assert layer.cache_info().maxsize == CACHE_SIZE, layer
    assigned = [path.stem for path in PACKAGE for line in path.read_text().splitlines() if "CACHE_SIZE = " in line]
    assert assigned == ["rings"]


@cache
def _int_constants(path):
    """Module-level `NAME = <int>` of the file at path, and those it imports from a file beside it;
    memoized by path, as the package's modules import each other's names many times over."""
    found = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and type(node.value.value) is int:
            found.update((t.id, node.value.value) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            source = _int_constants(path.with_name(node.module + ".py"))
            found.update((a.asname or a.name, source[a.name]) for a in node.names if a.name in source)
    return found


def unbounded_memos(path):
    """(function, line) per functools.cache or lru_cache decorator in the file, at any depth,
    whose maxsize is not given as a literal or module constant in 1..MAX_CACHE_SIZE."""
    constants = _int_constants(path)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        for dec in node.decorator_list if isinstance(node, ast.FunctionDef) else ():
            call = dec if isinstance(dec, ast.Call) else ast.Call(dec, [], [])
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name not in ("cache", "lru_cache"):
                continue
            given = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
            arg = given[0] if name == "lru_cache" and given else None
            size = arg.value if isinstance(arg, ast.Constant) else constants.get(getattr(arg, "id", None))
            if not (type(size) is int and 0 < size <= MAX_CACHE_SIZE):
                found.append((node.name, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_the_scan_sees_an_unbounded_memo(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import functools\nfrom functools import cache, lru_cache\nSIZE = 64\nBIG = 4096\n\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@functools.cache\ndef c(x): pass\n"
        "@cache\ndef d(x): pass\n"
        "@lru_cache(maxsize=BIG)\ndef e(x): pass\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef f(x): pass\n"
        "@lru_cache(32)\ndef g(x): pass\n"
        "def outer():\n    @lru_cache(maxsize=2000)\n    def h(x): pass\n"
    )
    assert unbounded_memos(path) == [("a", 7), ("b", 9), ("c", 11), ("d", 13), ("e", 15), ("h", 22)]


def test_every_memo_in_the_package_source_is_bounded():
    assert [(path.stem, memo) for path in PACKAGE for memo in unbounded_memos(path)] == []


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


def pool_pairs():
    rng = random.Random(29)
    for name, ring in pool_rings():
        for _ in range(4):
            yield name, random_ideal(rng, ring, max_gens=3, pairing_bound=6), random_ideal(rng, ring, 3, 6)


@pytest.mark.parametrize("layer", (product, ideal_sum, check_subadditivity), ids=lambda f: f.__name__)
def test_cached_pair_results_equal_fresh_ones(layer):
    for name, a, b in pool_pairs():
        for x, y in ((a, b), (b, a)):
            assert layer(x, y) == layer.__wrapped__(x, y), name
            hits = layer.cache_info().hits
            assert layer(x, y) is layer(x, y)
            assert layer.cache_info().hits == hits + 2


@pytest.mark.parametrize("name, dual", [(name, dual) for name, dual, _, _ in POOL])
def test_equal_pairs_built_apart_share_one_verdict(name, dual):
    """Ideals rebuilt on a ring built past the ring memo, from generators listed
    in another order, hit the product, the sum and the verdict the first pair made."""
    ring = ring_from_dual_rays(dual)
    rebuilt = _ring_from_rays.__wrapped__(ring.dual_rays)
    rng = random.Random(f"{name}-pairs")
    a, b = (random_ideal(rng, ring, max_gens=3, pairing_bound=6) for _ in "ab")
    verdict, ab, both = check_subadditivity(a, b), product(a, b), ideal_sum(a, b)
    twins = [monomial_ideal(rebuilt, reversed(x.gens)) for x in (a, b)]
    assert twins == [a, b] and twins[0].ring is not a.ring
    for layer, cached in ((product, ab), (ideal_sum, both), (check_subadditivity, verdict)):
        info = layer.cache_info()
        assert layer(*twins) is cached
        assert (layer.cache_info().hits, layer.cache_info().currsize) == (info.hits + 1, info.currsize)


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


@pytest.mark.parametrize("name, dual", [(name, dual) for name, dual, _, _ in POOL])
def test_equal_rings_and_ideals_built_apart_share_one_memo_entry(name, dual):
    """A ring built again past the ring memo, and one built from its cone, hash
    and compare equal to the memoized ring, as do ideals on them; each pair
    hits the entry the other made."""
    ring = ring_from_dual_rays(dual)
    rebuilt = _ring_from_rays.__wrapped__(ring.dual_rays)
    copied = ToricRing(ring.cone)
    for other in (rebuilt, copied):
        assert other is not ring and other == ring and hash(other) == hash(ring)
    a = random_ideal(random.Random(name), ring, max_gens=3, pairing_bound=6)
    poly = newton_polyhedron(a)
    bounds = (3,) * len(ring.sigma_rays)
    count = box_point_count(ring, bounds)
    assert hash(a) == hash((ring, a.gens)) and "_hash" not in repr(a)
    for other in (rebuilt, copied):
        twin = MonomialIdeal(other, a.gens)
        assert twin is not a and twin == a and hash(twin) == hash(a)
        for layer, args, cached in ((newton_polyhedron, (twin,), poly), (box_point_count, (other, bounds), count)):
            info = layer.cache_info()
            assert layer(*args) is cached
            assert (layer.cache_info().hits, layer.cache_info().currsize) == (info.hits + 1, info.currsize)


def test_walk_steps_are_computed_once_per_ring():
    """The walk plan, on the joined vector of a point's sigma pairings and the point:
    the run step, and per column c of U before it, its basis ray, the diagonal entry of H
    and c after its sigma pairings; the last basis ray with its step, and the step of
    every ray outside the basis."""
    for name, ring in [*pool_rings(), ("stepping-down-3d", STEPPING_DOWN)]:
        basis, hnf, uni = ring.sigma_lattice
        u = tuple(row[-1] for row in uni)
        ut = tuple(dot(u, n) for n in ring.sigma_rays)
        assert ring.run_step == (u, ut), name
        levels = tuple(
            (basis[j], hnf[j][j], tuple(dot(c, n) for n in ring.sigma_rays) + c)
            for j, c in enumerate(zip(*(row[: ring.dim - 1] for row in uni)))
        )
        clip = tuple((i, ut[i]) for i in range(len(ring.sigma_rays)) if i not in basis)
        assert ring.walk_plan == (ut + u, levels, basis[-1], ut[basis[-1]], clip), name
        assert len(levels) == ring.dim - 1 and ut[basis[-1]] == hnf[-1][-1] > 0
        assert ring.walk_plan is ring.walk_plan


SIMPLICIAL_RINGS = [(name, ring) for name, ring in pool_rings() if len(ring.sigma_rays) == ring.dim]


def _floors(name, ring):
    rng = random.Random(f"{name}-floors")
    return [tuple(rng.randint(0, 9) for _ in ring.sigma_rays) for _ in range(12)] + [(0,) * ring.dim]


@pytest.mark.parametrize("name, ring", SIMPLICIAL_RINGS, ids=[name for name, _ in SIMPLICIAL_RINGS])
def test_cached_cut_points_equal_fresh_ones_and_equal_rings_share_them(name, ring):
    """The cut point of random floors, and of the origin, equals a fresh one; a ring built
    past the ring memo and one built from its cone hit the entry the ring made. The cut
    point rounds the floors down on the Hermite basis, and its floor tests name exactly
    the floors it falls short of."""
    rebuilt = _ring_from_rays.__wrapped__(ring.dual_rays)
    copied = ToricRing(ring.cone)
    for floors in _floors(name, ring):
        cut = _cut_point(ring, floors)
        assert cut == _cut_point.__wrapped__(ring, floors), floors
        p, tp, below = cut
        assert tp == ring.pairings(p)
        assert all(0 <= f - a < row[i] for i, (row, f, a) in enumerate(zip(ring.sigma_lattice[1], floors, tp)))
        assert below == tuple((n, f, s) for n, f, a, s in zip(ring.sigma_rays, floors, tp, ring.run_step[1]) if a < f)
        for other in (rebuilt, copied):
            info = _cut_point.cache_info()
            assert _cut_point(other, floors) is cut
            assert (_cut_point.cache_info().hits, _cut_point.cache_info().currsize) == (info.hits + 1, info.currsize)


def test_the_dual_ray_reach_is_computed_once_per_ring():
    """sum_r <r, n> over the dual rays r, per sigma ray n: the region walk's bound past its vertices."""
    for name, ring in [*pool_rings(), ("stepping-down-3d", STEPPING_DOWN)]:
        fresh = tuple(sum(dot(r, n) for r in ring.dual_rays) for n in ring.sigma_rays)
        assert ring.dual_ray_pairings == fresh, name
        assert ring.dual_ray_pairings is ring.dual_ray_pairings


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


@pytest.mark.parametrize("name, dual", [(name, dual) for name, dual, _, _ in POOL])
def test_a_ring_used_only_for_closures_solves_for_no_canonical_point(name, dual):
    """A ring derives its Q-Gorenstein datum from its cone on first use: closing an ideal on
    a fresh ring, its Newton polyhedron computed afresh, leaves it and u0 unsolved."""
    ring = _ring_from_rays.__wrapped__(ring_from_dual_rays(dual).dual_rays)
    a = random_ideal(random.Random(f"{name}-closure"), ring, max_gens=3, pairing_bound=6)
    newton_polyhedron.cache_clear()
    integral_closure.cache_clear()
    assert integral_closure(a) == integral_closure.__wrapped__(a)
    assert "q_gorenstein" not in ring.__dict__ and "_u0" not in ring.__dict__
    ring.canonical_shift()
    assert "q_gorenstein" in ring.__dict__


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
    for other in (config._replace(seed=2), config._replace(max_candidates=3), config._replace(max_candidates=None)):
        info = _skeleton_space.cache_info()
        next(_skeletons(other))
        assert _skeleton_space.cache_info().hits == info.hits + 1
        assert _skeleton_space.cache_info().currsize == info.currsize
        assert _skeleton_space(*_space_bounds(other)) is _skeleton_space(*_space_bounds(config))


PAPER_RING = ((2, 1, 0), (1, 2, 0), (0, 0, 1))
PAPER_IDEAL = ((2, 4, 0), (4, 2, 0), (0, 0, 3))


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_translates_cost_one_double_description_and_one_walk_per_class(monkeypatch):
    """N(a), closure(a) and J(a) of the paper's ideal and of its translates by the semigroup
    points pairing at most 2 with every sigma ray: one hull_plus_cone, one closure
    walk and one multiplier walk, all on the paper's ideal, the first member met,
    whose results every other translate moves; each layer's memo holds the
    translates and nothing else, and its class cells the one class."""
    calls = []
    _counting(monkeypatch, toricmult.ideals, "hull_plus_cone", calls)
    for module in (toricmult.ideals, toricmult.multiplier):
        _counting(monkeypatch, module, "region_minimal_generators", calls)
    layers = (newton_polyhedron, integral_closure, multiplier_ideal)
    for layer in layers:
        layer.cache_clear()
    ring = ring_from_dual_rays(PAPER_RING)
    a = monomial_ideal(ring, PAPER_IDEAL)
    shifts = semigroup_points(ring, 2)
    assert len(shifts) > 4 and shifts[0] == (0, 0, 0)
    translates = [a.moved(c) for c in shifts]
    results = [[layer(x) for x in translates] for layer in layers]
    assert sorted(calls) == ["hull_plus_cone", "region_minimal_generators", "region_minimal_generators"]
    for layer, found in zip(layers, results):
        assert layer.cache_info().currsize == len(translates)
        assert layer.classes.cache_info().currsize == 1
        assert all(y == found[0].moved(c) for y, c in zip(found, shifts))
    assert results[2][0].gens == ((0, 0, 2), (1, 1, 1), (1, 2, 0), (2, 1, 0), (2, 2, 0))


def test_a_wrapper_bound_in_place_of_a_layer_sees_one_call_per_public_call(monkeypatch):
    """A counting wrapper bound in place of N, closure and J on every loaded toricmult
    module, as a tracer binds one, records one call when a translate of the paper's ideal
    is asked for on empty memos: the layer computes the translate itself, and calls
    neither its own memo nor its module-level name again."""
    layers = (newton_polyhedron, integral_closure, multiplier_ideal)
    modules = [m for n, m in sys.modules.items() if n == "toricmult" or n.startswith("toricmult.")]
    calls = []
    wrappers = []
    for layer in layers:

        def counted(a, layer=layer):
            calls.append((layer, a))
            return layer(a)

        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is layer:
                    monkeypatch.setattr(module, binding, counted)
        wrappers.append(counted)
        layer.cache_clear()
    assert toricmult.ideals.newton_polyhedron is wrappers[0] and toricmult.multiplier.multiplier_ideal is wrappers[2]
    x = monomial_ideal(ring_from_dual_rays(PAPER_RING), PAPER_IDEAL).moved((3, 3, 1))
    for layer, counted in zip(layers, wrappers):
        calls.clear()
        found = counted(x)
        assert [a for called, a in calls if called is layer] == [x], layer.__name__
        assert found == layer(monomial_ideal(x.ring, PAPER_IDEAL)).moved((3, 3, 1))


def test_refused_translates_are_refused_again():
    """The zero ideal is refused before its first generator is read. A translate on a ring
    with no canonical point is refused when it is computed; neither is remembered, so
    the memo sizes hold."""
    ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
    a = random_ideal(random.Random(37), ring, max_gens=3, pairing_bound=4)
    assert len(a.gens) > 1 and any(a.gens[0])
    zero = MonomialIdeal(ring, ())
    sizes = [layer.cache_info().currsize for layer in (newton_polyhedron, multiplier_ideal)]
    for _ in range(2):
        with pytest.raises(NotQGorenstein):
            multiplier_ideal(a)
        with pytest.raises(ZeroIdeal):
            newton_polyhedron(zero)
    assert [layer.cache_info().currsize for layer in (newton_polyhedron, multiplier_ideal)] == sizes
    assert newton_polyhedron(a).vertices == tuple(sorted(a.gens))


def test_recipes_of_one_skeleton_share_one_lift():
    """Every gap point r of a skeleton lifts the same closures and z: the constructions share
    a and b, and an explicit recipe built apart from an enumerated one hits its lift. A bad
    r is refused on every recipe that carries it, lifted before or not."""
    config = SearchConfig(ray_bound=2, gen_pairing_bound=3, z_pairing_bound=1, z_height_bound=2)
    recipes = list(_enumerated_recipes(config))
    built = {}
    for recipe in recipes:  # enumerated base ideals are principal, so their own closures
        key = (recipe.base_ring, recipe.i_prime, recipe.j_prime, recipe.z_exponent)
        c = huneke_swanson_construct(recipe)
        assert _lift(*key) == _lift.__wrapped__(*key)
        if key in built:
            assert c.a is built[key][0] and c.b is built[key][1]
        built[key] = (c.a, c.b)
    assert len(built) < len(recipes)
    first = recipes[0]
    rebuilt = _ring_from_rays.__wrapped__(first.base_ring.dual_rays)
    explicit = ConstructionRecipe(
        rebuilt,
        MonomialIdeal(rebuilt, first.i_prime.gens),
        MonomialIdeal(rebuilt, first.j_prime.gens),
        first.r,
        list(first.z_exponent),
    )
    info = _lift.cache_info()
    assert huneke_swanson_construct(explicit).a is huneke_swanson_construct(first).a
    assert (_lift.cache_info().hits, _lift.cache_info().currsize) == (info.hits + 2, info.currsize)
    bad = first._replace(r=first.i_prime.gens[0])
    for _ in range(2):
        with pytest.raises(RecipeInvalid):
            huneke_swanson_construct(bad)
