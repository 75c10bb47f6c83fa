"""Every record type of the package is a NamedTuple with value semantics.

Cones, rings, ideals, polyhedra, reports, recipes, constructions, configs,
search hits, parsed problems and checklist entries are tuples of their
fields: two values built apart with equal fields are equal and hash equal,
a field cannot be set, and `_replace` makes a changed copy. Rings and ideals
keep their hash once computed, and it is the tuple's hash, so that equal
values hash equal. The repr of the packaged ring and of the default search
config is pinned byte for byte.
"""

import copy

import pytest

from toricmult import SearchConfig
from toricmult.builtin_example import TARGET, instance, recipe, verification_checklist
from toricmult.geometry import relint_certificate
from toricmult.ideals import newton_polyhedron, product
from toricmult.problemio import parse_problem
from toricmult.subadditivity import (
    SearchHit,
    check_subadditivity,
    decompose_2d,
    exhaustive_refute,
    huneke_swanson_construct,
)


def _records():
    ring, a, b = instance()
    verdict = check_subadditivity(a, b)
    base = recipe()
    built = huneke_swanson_construct(base)
    rays = [list(r) for r in ring.dual_rays]
    problem = parse_problem({"ring": {"dual_cone_rays": rays}, "ideals": {"a": list(a.gens)}})
    return [
        ring.cone,
        verdict.certificates[0],
        relint_certificate(newton_polyhedron(product(a, b)), TARGET),
        newton_polyhedron(a),
        ring,
        a,
        verdict,
        decompose_2d((14, 11), base.i_prime, base.j_prime),
        exhaustive_refute(TARGET, a, b),
        base,
        built,
        SearchConfig(explicit_recipes=(base,)),
        SearchHit(built, check_subadditivity(built.a, built.b)),
        problem,
        verification_checklist()[0],
    ]


RECORDS = _records()


def test_the_records_are_fifteen_types():
    assert len({type(x) for x in RECORDS}) == len(RECORDS) == 15


@pytest.mark.parametrize("x", RECORDS, ids=lambda x: type(x).__name__)
def test_a_record_is_a_tuple_of_its_fields(x):
    twin = type(x)(*copy.deepcopy(tuple(x)))
    assert twin is not x and twin == x and tuple(twin) == tuple(x)
    assert hash(x) == hash(twin) == tuple.__hash__(x)
    name = x._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    assert x._replace(**{name: getattr(x, name)}) == x


def test_the_packaged_ring_and_the_default_config_keep_their_repr():
    assert repr(instance()[0]) == (
        "ToricRing(cone=PolyCone(dim=3, rays=((0, 0, 1), (1, 2, 0), (2, 1, 0)), "
        "facet_normals=((-1, 2, 0), (0, 0, 1), (2, -1, 0))))"
    )
    assert repr(SearchConfig()) == (
        "SearchConfig(dim=2, ray_bound=1, gen_pairing_bound=4, z_pairing_bound=3, "
        "z_height_bound=1, max_candidates=None, seed=0, explicit_recipes=())"
    )
