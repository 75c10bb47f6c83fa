"""Newton polyhedra, closures and multiplier ideals of translates.

For a lattice vector c, N(c + a) = c + N(a); divisibility and the canonical
point u0 do not move, so closure(c + a) = c + closure(a) and
J(c + a) = c + J(a). The library (ideals.per_translation_class) computes
the first member of a class that it meets as it is, and answers a later
member with lex-first generator g0' by moving the first one's answer by
g0' - g0. Here the answers for translates c + a, c a random semigroup point,
are checked field by field against the translated answers for a, against a
fresh double description and a walk of c + a itself, and against the grid
scans of oracles. The memo itself must hand its computation only the ideals
asked for, compute a class once however far from the origin it is first met,
serve the Newton polyhedron built for J(a) to N(a) as it is, compute again
after a clear or an eviction, and keep no answer of a refused class. For a
principal a = <g>, a·b = g + b, so J(a·b) is a class hit once J(b) is cached. An
ideal moved by -g0 may leave the semigroup, and its region walk starts on
negative floors; it must still find the box scan's generators of the region
of a, moved by -g0.
"""

import itertools
import random

import pytest

import oracles
from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, POOL, STEPPING_DOWN, random_2d_ring, random_3d_ring, random_ideal, random_non_simplicial_rings

import toricmult.ideals
import toricmult.multiplier
from toricmult.errors import NotQGorenstein, ZeroIdeal
from toricmult.geometry import NewtonPolyhedron, hull_plus_cone
from toricmult.ideals import (
    CACHE_SIZE,
    MonomialIdeal,
    integral_closure,
    monomial_ideal,
    newton_polyhedron,
    per_translation_class,
    product,
    region_minimal_generators,
)
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
    return tuple(x)


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
    """A test of walks from negative floors: the library never computes on a - g0, but
    N(a - g0) and its regions must still be right. a - g0 has the origin as its lex-first
    generator, and every other generator pairs below g0 with some sigma ray, so some floor
    is negative."""
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


LAYERS = (newton_polyhedron, integral_closure, multiplier_ideal)


def _layers(ring):
    return LAYERS if ring.q_gorenstein else LAYERS[:2]


def _class(x):
    """The key of x's class cell: its generators less its lex-first one."""
    return tuple(vsub(g, x.gens[0]) for g in x.gens)


def _direct(layer, x):
    """The layer's answer for x, computed on x itself: a double description or a region walk
    (a principal ideal is its own closure)."""
    if layer is newton_polyhedron:
        return hull_plus_cone(x.gens, x.ring.cone)
    if layer is integral_closure and len(x.gens) <= 1:
        return x
    shift = None if layer is integral_closure else x.ring.canonical_shift()
    return MonomialIdeal(x.ring, region_minimal_generators(x, shift))


def _recorded(monkeypatch, calls):
    """Record (name, argument) of every double description and region walk a layer makes."""
    targets = [(toricmult.ideals, "hull_plus_cone")]
    targets += [(module, "region_minimal_generators") for module in (toricmult.ideals, toricmult.multiplier)]
    for module, name in targets:

        def recorded(x, *rest, original=getattr(module, name), name=name):
            calls.append((name, x))
            return original(x, *rest)

        monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_class_memo_computes_only_the_ideals_asked_for(name, ring):
    """A memo made by per_translation_class around each layer's computation, asked for
    translates c + a, then a, then c + a again, hands the computation only the ideal of
    the call in progress, one member per class, and answers every member as it would
    be computed on that member."""
    for layer in _layers(ring):
        seen = []

        def compute(a, layer=layer):
            seen.append(a)
            return layer.__wrapped__(a)

        memo = per_translation_class(compute)
        asked = set()
        for a, c in _translates(name, ring):
            for x in (a.moved(c), a, a.moved(c)):
                before = len(seen)
                assert _fields(memo(x)) == _fields(_direct(layer, x)), (layer.__name__, x)
                assert all(y is x for y in seen[before:]), (layer.__name__, x)
                asked.add(_class(x))
        assert sorted(map(_class, seen)) == sorted(asked), layer.__name__
        assert memo.classes.cache_info().maxsize == CACHE_SIZE


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_a_class_first_met_off_the_origin_is_computed_once(monkeypatch, name, ring):
    """On empty memos, a layer asked for c + a first, then a and 2c + a, makes one double
    description and one walk at most (none for the closure of a principal ideal), all on
    c + a, whose lex-first generator is not the origin; a and 2c + a get answers equal to
    a direct double description or walk."""
    calls = []
    _recorded(monkeypatch, calls)
    for layer in _layers(ring):
        for a, c in _translates(name, ring):
            first = a.moved(c)
            assert any(first.gens[0])
            for each in LAYERS:
                each.cache_clear()
            calls.clear()
            answers = [layer(x) for x in (first, a, first.moved(c))]
            expected = ["hull_plus_cone", "region_minimal_generators"]
            if layer is newton_polyhedron or layer is integral_closure and len(a.gens) == 1:
                expected = expected[: layer is newton_polyhedron]
            assert sorted(called for called, _ in calls) == expected, (layer.__name__, a, c)
            assert all(x in (first, first.gens) for _, x in calls), (layer.__name__, a, c)
            for x, answer in zip((first, a, first.moved(c)), answers):
                assert _fields(answer) == _fields(_direct(layer, x)), (layer.__name__, x)


@pytest.mark.parametrize("name, ring", Q_GORENSTEIN, ids=[name for name, _ in Q_GORENSTEIN])
def test_the_newton_polyhedron_built_for_j_is_a_hit(monkeypatch, name, ring):
    """N(a) after J(a), on a fresh class, is the polyhedron J(a) built: it makes no double
    description and moves no polyhedron."""
    for a, c in _translates(name, ring):
        x = a.moved(c)
        for layer in LAYERS:
            layer.cache_clear()
        multiplier_ideal(x)
        calls = []
        with monkeypatch.context() as patched:
            _recorded(patched, calls)
            moved = NewtonPolyhedron.moved
            patched.setattr(NewtonPolyhedron, "moved", lambda p, d: calls.append(("moved", d)) or moved(p, d))
            poly = newton_polyhedron(x)
        assert calls == [], x
        assert _fields(poly) == _fields(hull_plus_cone(x.gens, ring.cone)), x


POOL_RINGS = RINGS[: len(POOL)]


@pytest.mark.parametrize("name, ring", POOL_RINGS, ids=[name for name, _ in POOL_RINGS])
def test_a_principal_factor_makes_the_product_a_class_hit(monkeypatch, name, ring):
    """For a = <g>, a·b = g + b. So once J(b) is cached, J(a·b) is one class hit: no double
    description and no region walk, and the answer is J(b) moved by g. A pair with one
    principal factor is how most class hits of random plane pairs arise."""
    rng = random.Random(name)
    shifts = [c for c in semigroup_points(ring, 4) if any(c)]
    for _ in range(4):
        b = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
        g = rng.choice(shifts)
        ab = product(monomial_ideal(ring, [g]), b)
        assert ab == b.moved(g), (b, g)
        multiplier_ideal.cache_clear()
        j_b = multiplier_ideal(b)
        hits = multiplier_ideal.classes.cache_info().hits
        calls = []
        with monkeypatch.context() as patched:
            _recorded(patched, calls)
            j_ab = multiplier_ideal(ab)
        assert calls == [], (b, g)
        assert multiplier_ideal.classes.cache_info().hits == hits + 1, (b, g)
        assert j_ab == j_b.moved(g), (b, g)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_clearing_a_layer_or_its_class_cells_computes_the_same_fields(name, ring):
    """After cache_clear, which empties the class cells too, the member asked for first
    is the one computed and kept in its cell; after only the cells are cleared, a new
    member is computed as it is. Every answer keeps its fields."""
    for layer in _layers(ring):
        for a, c in _translates(name, ring):
            x = a.moved(c)
            kept = [_fields(layer(y)) for y in (x, a)]
            layer.cache_clear()
            assert layer.cache_info().currsize == layer.classes.cache_info().currsize == 0
            assert [_fields(layer(y)) for y in (a, x)] == kept[::-1], (layer.__name__, a, c)
            assert layer.classes(ring, _class(a))[0] == a.gens[0]
            layer.classes.cache_clear()
            z = x.moved(c)
            assert _fields(layer(z)) == _fields(_direct(layer, z)), (layer.__name__, z)
            assert layer.classes(ring, _class(a))[0] == z.gens[0]


def test_an_evicted_class_cell_is_computed_again(monkeypatch):
    """Past CACHE_SIZE other classes, a class's cell is evicted, and its next member is
    computed as it is, with the fields of a direct double description."""
    ring = ring_from_dual_rays(((1, 0), (0, 1)))
    a = monomial_ideal(ring, ((1, 5), (2, 2), (6, 1)))
    newton_polyhedron.cache_clear()
    newton_polyhedron(a.moved((3, 1)))
    others = [monomial_ideal(ring, ((i, 0), (0, j))) for i in range(1, 34) for j in range(1, 34)]
    assert len(others) >= CACHE_SIZE
    for other in others:
        newton_polyhedron(other)
    calls = []
    _recorded(monkeypatch, calls)
    assert _fields(newton_polyhedron(a)) == _fields(hull_plus_cone(a.gens, ring.cone))
    assert calls == [("hull_plus_cone", a.gens)]
    assert newton_polyhedron.classes(ring, _class(a))[0] == a.gens[0]


def test_a_refused_class_leaves_no_answer_behind():
    """The zero ideal is refused with no class cell made. On a ring with no canonical point,
    J of every member of a class is refused, again and again, and its cell stays empty."""
    ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
    a = random_ideal(random.Random(41), ring, max_gens=3, pairing_bound=4)
    c = next(p for p in semigroup_points(ring, 2) if any(p))
    for layer in LAYERS:
        layer.cache_clear()
    for x in (a, a.moved(c), a):
        with pytest.raises(NotQGorenstein):
            multiplier_ideal(x)
    assert multiplier_ideal.cache_info().currsize == 0
    assert multiplier_ideal.classes(ring, _class(a)) == []
    for zero in (MonomialIdeal(ring, ()), MonomialIdeal(ring_from_dual_rays(((1, 0), (0, 1))), ())):
        for layer in (newton_polyhedron, multiplier_ideal)[: 1 + bool(zero.ring.q_gorenstein)]:
            with pytest.raises(ZeroIdeal):
                layer(zero)
    assert newton_polyhedron.cache_info().currsize == newton_polyhedron.classes.cache_info().currsize == 0
