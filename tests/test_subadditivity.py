"""The subadditivity question: verdicts, 2D decompositions, refutation, search."""

import math
import random

import pytest

from instances import pool_rings, random_2d_ring, random_ideal
from oracles import dot, vadd, vsub

from toricmult.errors import (
    ConfigInvalid,
    NotDimension2,
    NotInMultiplierIdeal,
    RecipeInvalid,
    RingMismatch,
)
from toricmult.geometry import membership
from toricmult.ideals import (
    contains_monomial,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import lattice_points_in_box, ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import (
    ConstructionRecipe,
    SearchConfig,
    Side,
    check_subadditivity,
    decompose_2d,
    exhaustive_refute,
    huneke_swanson_construct,
    search_counterexamples,
)


@pytest.fixture(scope="module")
def ring():
    return ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))


@pytest.fixture(scope="module")
def pair(ring):
    a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
    b = monomial_ideal(ring, ((12, 7, 0), (10, 6, 2)))
    return a, b


@pytest.fixture(scope="module")
def base_recipe():
    base = ring_from_dual_rays(((2, 1), (1, 2)))
    return ConstructionRecipe(
        base,
        monomial_ideal(base, ((2, 4),)),
        monomial_ideal(base, ((12, 7),)),
        (8, 6),
        (10, 6, 2),
    )


class TestVerdict:
    def test_the_three_dimensional_counterexample(self, pair):
        a, b = pair
        verdict = check_subadditivity(a, b)
        assert not verdict.holds
        assert verdict.witnesses == ((13, 10, 0), (17, 11, 1))
        assert verdict.j_ab.gens == multiplier_ideal(product(a, b)).ideal.gens
        assert not contains_monomial(verdict.j_product, (17, 11, 1))

    def test_witness_certificates_re_verify(self, pair):
        a, b = pair
        verdict = check_subadditivity(a, b)
        region = multiplier_ideal(product(a, b)).region
        u0 = a.ring.canonical_shift()
        for w, cert in zip(verdict.witnesses, verdict.certificates):
            assert cert.contained and cert.strict
            shifted = tuple(c + u for c, u in zip(w, u0))
            assert membership(region, shifted, relative_interior=True).contained

    def test_two_dimensional_instances_always_hold(self):
        rng = random.Random(2024)
        for _ in range(25):
            ring = random_2d_ring(rng)
            a = random_ideal(rng, ring, max_gens=4, pairing_bound=20)
            b = random_ideal(rng, ring, max_gens=4, pairing_bound=20)
            verdict = check_subadditivity(a, b)
            assert verdict.holds and not verdict.witnesses

    def test_rings_must_match(self, pair):
        a, _ = pair
        other = monomial_ideal(ring_from_dual_rays(((1, 0), (0, 1))), ((1, 1),))
        with pytest.raises(RingMismatch):
            check_subadditivity(a, other)


class TestDecompose2D:
    def test_the_recipe_base_instance(self, base_recipe):
        d = decompose_2d((14, 11), base_recipe.i_prime, base_recipe.j_prime)
        assert d.side is Side.FROM_A
        assert d.witness == (2, 4)
        assert d.remainder == (13, 8)
        assert d.region_index == 0
        assert d.remainder_check.contained and d.remainder_check.strict

    def test_swapping_the_ideals_swaps_the_witness(self, base_recipe):
        d = decompose_2d((14, 11), base_recipe.j_prime, base_recipe.i_prime)
        assert d.side is Side.FROM_A
        assert d.witness == (12, 7)
        assert d.remainder == (3, 5)

    def test_every_multiplier_generator_decomposes(self):
        rng = random.Random(1718)
        for _ in range(12):
            ring = random_2d_ring(rng, bound=5)
            a = random_ideal(rng, ring, max_gens=3, pairing_bound=14)
            b = random_ideal(rng, ring, max_gens=3, pairing_bound=14)
            j_ab = multiplier_ideal(product(a, b)).ideal
            for g in j_ab.gens:
                d = decompose_2d(g, a, b)
                assert d.remainder_check.contained
                source = a if d.side is Side.FROM_A else b
                assert d.witness in source.gens
                # witness + (remainder - u0) reassembles the generator
                u0 = ring.canonical_shift()
                reassembled = tuple(
                    w + r - u for w, r, u in zip(d.witness, d.remainder, u0)
                )
                assert reassembled == g

    def test_points_outside_the_multiplier_ideal_are_refused(self, base_recipe):
        with pytest.raises(NotInMultiplierIdeal):
            decompose_2d((0, 0), base_recipe.i_prime, base_recipe.j_prime)

    def test_three_dimensional_input_is_refused(self, pair):
        a, b = pair
        with pytest.raises(NotDimension2):
            decompose_2d((17, 11, 1), a, b)


class TestExhaustiveRefutation:
    def test_the_counterexample_target_cannot_be_split(self, pair):
        a, b = pair
        report = exhaustive_refute((18, 12, 2), a, b)
        assert report.target == (18, 12, 2)
        assert report.bounds == (7, 3, 25)
        assert report.scanned == 280
        assert report.decompositions == ()

    def test_unit_ideals_split_their_doubled_canonical_point(self):
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        unit = monomial_ideal(orthant, ((0, 0),))
        report = exhaustive_refute((2, 2), unit, unit)
        assert ((1, 1), (1, 1)) in report.decompositions  # alpha' = u0 works

    def test_agrees_with_decompose_2d_on_positive_instances(self):
        rng = random.Random(55)
        for _ in range(8):
            ring = random_2d_ring(rng, bound=4)
            a = random_ideal(rng, ring, max_gens=2, pairing_bound=10)
            b = random_ideal(rng, ring, max_gens=2, pairing_bound=10)
            u0 = ring.canonical_shift()
            if any(u.denominator != 1 for u in u0):
                continue  # v = p + u0 must stay integral for the scan
            j_ab = multiplier_ideal(product(a, b)).ideal
            for g in j_ab.gens[:2]:
                v = tuple(int(c + u) for c, u in zip(g, u0))
                report = exhaustive_refute(v, a, b)
                assert report.decompositions, (ring.dual_rays, a.gens, b.gens, g)

    def test_matches_a_membership_scan_across_the_pool(self):
        # the pool has the square cone's non-simplicial walk and the
        # index-three ring's fractional u0
        rng = random.Random(8086)
        split = unsplit = 0
        for _, ring in pool_rings():
            u0 = ring.canonical_shift()
            points = [w for w in semigroup_points(ring, 5) if any(w)]
            for _ in range(5):
                a = monomial_ideal(ring, rng.sample(points, 2))
                b = monomial_ideal(ring, rng.sample(points, 2))
                na, nb = newton_polyhedron(a), newton_polyhedron(b)
                v = vadd(vadd(rng.choice(a.gens), rng.choice(b.gens)), rng.choice(points))
                bounds = tuple(math.floor(dot(vadd(v, u0), n)) for n in ring.sigma_rays)
                box = list(lattice_points_in_box(ring, bounds))
                expected = tuple(
                    (alpha, vsub(v, alpha))
                    for alpha, _ in box
                    if membership(na, alpha, relative_interior=True).contained
                    and membership(nb, vadd(vsub(v, alpha), u0), relative_interior=True).contained
                )
                report = exhaustive_refute(v, a, b)
                assert (report.bounds, report.scanned) == (bounds, len(box))
                assert report.decompositions == expected
                split += bool(expected)
                unsplit += not expected
        assert split and unsplit

    def test_soundness_of_every_reported_pair(self, pair):
        # on a target that does split, each reported pair must re-verify
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        a = monomial_ideal(orthant, ((2, 0), (0, 2)))
        report = exhaustive_refute((4, 4), a, a)
        assert report.decompositions
        na = multiplier_ideal(a).region
        for alpha, beta in report.decompositions:
            assert membership(na, alpha, relative_interior=True).contained
            shifted = tuple(b + 1 for b in beta)
            assert membership(na, shifted, relative_interior=True).contained


class TestConstruction:
    def test_the_flagship_recipe_rebuilds_the_counterexample(self, base_recipe, pair):
        a, b = pair
        built = huneke_swanson_construct(base_recipe)
        assert built.ring.dual_rays == ((0, 0, 1), (1, 2, 0), (2, 1, 0))
        assert built.a == a
        assert built.b == b
        assert built.r_z == (18, 12, 2)
        assert contains_monomial(integral_closure(product(built.a, built.b)), (18, 12, 2))

    def test_the_flagship_recipe_reports_its_closure_defects(self, base_recipe):
        # substituting x^10 y^6 z^2 for the fresh variable breaks the clean
        # guarantees of a genuine adjunction: both ideals fail to be closed,
        # and the lifted witness lands inside the product of closures.
        built = huneke_swanson_construct(base_recipe)
        assert not built.a_integrally_closed
        assert not built.b_integrally_closed
        assert built.rz_in_product_of_closures
        assert integral_closure(built.a).gens == (
            (2, 4, 0),
            (5, 5, 1),
            (6, 5, 1),
            (9, 6, 2),
            (10, 6, 2),
        )

    def test_a_genuine_new_variable_keeps_the_classical_guarantees(self):
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        recipe = ConstructionRecipe(
            orthant,
            monomial_ideal(orthant, ((2, 0),)),
            monomial_ideal(orthant, ((0, 2),)),
            (1, 1),
            (0, 0, 1),
        )
        built = huneke_swanson_construct(recipe)
        assert built.a.gens == ((0, 0, 1), (2, 0, 0))
        assert built.b.gens == ((0, 0, 1), (0, 2, 0))
        assert built.r_z == (1, 1, 1)
        assert built.a_integrally_closed and built.b_integrally_closed
        assert not built.rz_in_product_of_closures
        # ...and on the smooth extended ring, subadditivity itself still holds
        assert check_subadditivity(built.a, built.b).holds

    def test_fresh_variable_recipes_stay_closed_on_random_bases(self):
        rng = random.Random(92)
        built_count = 0
        for _ in range(40):
            ring = random_2d_ring(rng, bound=3)
            i = random_ideal(rng, ring, max_gens=2, pairing_bound=8)
            j = random_ideal(rng, ring, max_gens=2, pairing_bound=8)
            gap = [
                w
                for w in integral_closure(ideal_sum(i, j)).gens
                if not contains_monomial(ideal_sum(integral_closure(i), integral_closure(j)), w)
            ]
            if not gap:
                continue
            recipe = ConstructionRecipe(ring, i, j, gap[0], (0, 0, 1))
            built = huneke_swanson_construct(recipe)
            assert built.a_integrally_closed and built.b_integrally_closed
            assert not built.rz_in_product_of_closures
            built_count += 1
        assert built_count >= 3  # the loop must actually exercise the claim

    @pytest.mark.parametrize(
        "r,z,message",
        [
            ((2, 4), (10, 6, 2), "closure"),
            ((1, 1), (10, 6, 2), "not in the closure"),
            ((8, 6), (10, 6, 0), "positive last coordinate"),
            ((8, 6), (10, 6), "extended lattice"),
        ],
    )
    def test_invalid_recipes_are_refused(self, base_recipe, r, z, message):
        bad = ConstructionRecipe(
            base_recipe.base_ring, base_recipe.i_prime, base_recipe.j_prime, r, z
        )
        with pytest.raises(RecipeInvalid, match=message):
            huneke_swanson_construct(bad)

    def test_recipes_mixing_rings_are_refused(self, base_recipe):
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        bad = ConstructionRecipe(
            base_recipe.base_ring,
            monomial_ideal(orthant, ((2, 0),)),
            base_recipe.j_prime,
            (8, 6),
            (10, 6, 2),
        )
        with pytest.raises(RecipeInvalid):
            huneke_swanson_construct(bad)


class TestSearch:
    def test_explicit_recipe_is_found(self, base_recipe):
        hits = search_counterexamples(
            SearchConfig(max_candidates=0, explicit_recipes=(base_recipe,))
        )
        assert len(hits) == 1
        assert hits[0].construction.r_z == (18, 12, 2)
        assert hits[0].verdict.witnesses == ((13, 10, 0), (17, 11, 1))

    def test_results_are_deterministic_across_threads(self, base_recipe):
        config = SearchConfig(
            dim=2,
            ray_bound=1,
            gen_pairing_bound=3,
            z_pairing_bound=2,
            z_height_bound=1,
            max_candidates=25,
            seed=5,
            explicit_recipes=(base_recipe,),
        )
        runs = [search_counterexamples(config, threads=t) for t in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0]) == 1  # only the explicit recipe violates subadditivity

    def test_empty_cap_without_recipes_finds_nothing(self):
        assert search_counterexamples(SearchConfig(max_candidates=0)) == ()

    def test_one_dimensional_search_is_empty(self):
        assert search_counterexamples(SearchConfig(dim=1, max_candidates=30)) == ()

    def test_unsupported_dimension_is_refused(self):
        with pytest.raises(ConfigInvalid):
            search_counterexamples(SearchConfig(dim=4))
