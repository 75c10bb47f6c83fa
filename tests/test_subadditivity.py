"""The subadditivity question: verdicts, 2D decompositions, refutation, search."""

import hashlib
import itertools
import json
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from instances import pool_rings, random_2d_ring, random_ideal
import oracles
from oracles import dot, skeletons, vadd, vsub

from toricmult import ideals
from toricmult.cli import main
from toricmult.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NotDimension2,
    NotInMultiplierIdeal,
    NotInSemigroup,
    RecipeInvalid,
    RingMismatch,
    ZeroIdeal,
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
from toricmult.multiplier import multiplier_ideal, multiplier_membership
from toricmult.problemio import load_problem, load_search_config
from toricmult.rings import lattice_points_in_box, ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import (
    ConstructionRecipe,
    Decomposition2D,
    SearchConfig,
    Side,
    check_subadditivity,
    decompose_2d,
    exhaustive_refute,
    huneke_swanson_construct,
    _candidate_rings,
    _edge_regions,
    _enumerated_recipes,
    _gap_generators,
    _in_closure,
    _skeleton,
    _skeleton_space,
    _skeletons,
    _space_bounds,
    search_counterexamples,
)

PAPER_BOUNDS = Path(__file__).with_name("paper_bounds_search.json")
SMALL_HITS = Path(__file__).with_name("small_hits_search.json")
SINGULAR_BASES = Path(__file__).with_name("singular_bases_search.json")
SQUARE_CONE_VIOLATION = Path(__file__).with_name("square_cone_violation.json")
FLAGS = ("a_integrally_closed", "b_integrally_closed", "rz_in_product_of_closures")


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
        assert verdict.j_ab.gens == multiplier_ideal(product(a, b)).gens
        assert not contains_monomial(verdict.j_product, (17, 11, 1))

    def test_witness_certificates_re_verify(self, pair):
        a, b = pair
        verdict = check_subadditivity(a, b)
        region = newton_polyhedron(product(a, b))
        u0 = a.ring.canonical_shift()
        for w, cert in zip(verdict.witnesses, verdict.certificates):
            assert cert.contained and cert.strict
            shifted = tuple(c + u for c, u in zip(w, u0))
            assert membership(region, shifted, relative_interior=True).contained
            assert cert == multiplier_membership(product(a, b), w)

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


class TestSquareConeViolation:
    """The smallest known violation: two-generator ideals on the cone over a
    square, with dual rays (±1, 0, 1) and (0, ±1, 1)."""

    @pytest.fixture(scope="class")
    def problem(self):
        return load_problem(str(SQUARE_CONE_VIOLATION))

    def test_one_witness_escapes_the_product(self, problem):
        a, b = problem.ideal("a"), problem.ideal("b")
        verdict = check_subadditivity(a, b)
        assert (verdict.j_a, verdict.j_b) == (a, b)
        assert not verdict.holds
        assert verdict.witnesses == ((-1, 0, 2),)
        assert verdict.j_ab.gens == ((-2, 0, 2), (-1, -1, 2), (-1, 0, 2), (-1, 1, 2), (0, 0, 2))

    def test_the_witness_has_no_splitting(self, problem):
        # u0 = (0, 0, 1), so the target is the witness plus u0
        report = exhaustive_refute((-1, 0, 3), problem.ideal("a"), problem.ideal("b"))
        assert report.scanned == 20
        assert report.decompositions == ()

    def test_the_multiplier_ideals_match_the_scan(self, problem):
        ring, a, b = problem.ring, problem.ideal("a"), problem.ideal("b")
        u0 = ring.canonical_shift()
        for i in (a, b, product(a, b)):
            expected = oracles.multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, u0)
            assert multiplier_ideal(i).gens == expected

    def test_the_cli_exits_one_with_the_witness(self, capsys):
        code = main(["subadd", "--input", str(SQUARE_CONE_VIOLATION), "--ideals", "a", "b", "--format", "json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["witnesses"] == [[-1, 0, 2]]


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
        for a, b in _decomposable_pairs():
            u0 = a.ring.canonical_shift()
            for g in multiplier_ideal(product(a, b)).gens:
                d = decompose_2d(g, a, b)
                assert d.remainder_check.contained
                source = a if d.side is Side.FROM_A else b
                assert d.witness in source.gens
                # witness + (remainder - u0) reassembles the generator
                reassembled = tuple(
                    w + r - u for w, r, u in zip(d.witness, d.remainder, u0)
                )
                assert reassembled == g

    def test_the_remainder_check_is_membership_of_the_remainder(self):
        """decompose_2d tests r (p - g) + w0 over r in integers (geometry.membership_scaled);
        its report is membership's on the rational remainder, down to the type of every
        pairing, on criterion-4 pairs and the pool surfaces, Gorenstein (r = 1) ones included."""
        rng = random.Random(41)
        pairs = []
        for _ in range(80):
            ring = random_2d_ring(rng, bound=7)
            pairs.append(tuple(random_ideal(rng, ring, max_gens=4, pairing_bound=30) for _ in range(2)))
        for _, ring in pool_rings():
            if ring.dim == 2:
                pairs += [tuple(random_ideal(rng, ring, max_gens=3, pairing_bound=12) for _ in range(2)) for _ in range(8)]
        indices, splits = set(), 0
        for a, b in pairs:
            for g in check_subadditivity(a, b).j_ab.gens:
                d = decompose_2d(g, a, b)
                report = membership(newton_polyhedron(b if d.side is Side.FROM_A else a), d.remainder, relative_interior=True)
                assert d.remainder_check == report and repr(d.remainder_check) == repr(report), (a, b, g)
                assert [type(v) for _, v in d.remainder_check.pairings] == [type(v) for _, v in report.pairings]
                assert all(type(v) is Fraction for _, v in report.pairings)  # a rational point's, even at r = 1
                indices.add(a.ring.q_gorenstein[1])
                splits += 1
        assert 1 in indices and max(indices) > 1 and splits >= 400

    def test_decomposing_builds_no_polyhedron(self, monkeypatch):
        # with N(a), N(b) and N(ab) built (check_subadditivity skips those of
        # principal ideals), the edge regions are read off sigma pairings and
        # no hull is built. A plane hull runs no double description, so the
        # spy is on the hull itself.
        pairs = _decomposable_pairs()
        verdicts = [check_subadditivity(a, b) for a, b in pairs]
        for a, b in pairs:
            assert newton_polyhedron(a) and newton_polyhedron(b) and newton_polyhedron(product(a, b))
        _edge_regions.cache_clear()
        hull, calls = ideals.hull_plus_cone, []

        def counted(*args):
            calls.append(args)
            return hull(*args)

        monkeypatch.setattr(ideals, "hull_plus_cone", counted)
        for (a, b), verdict in zip(pairs, verdicts):
            for g in verdict.j_ab.gens:
                decompose_2d(g, a, b)
        assert calls == []

    def test_points_outside_the_multiplier_ideal_are_refused(self, base_recipe):
        with pytest.raises(NotInMultiplierIdeal):
            decompose_2d((0, 0), base_recipe.i_prime, base_recipe.j_prime)

    def test_three_dimensional_input_is_refused(self, pair):
        a, b = pair
        with pytest.raises(NotDimension2):
            decompose_2d((17, 11, 1), a, b)


def _decomposable_pairs():
    """Twelve seeded pairs of ideals on random 2D rings."""
    rng = random.Random(1718)
    pairs = []
    for _ in range(12):
        ring = random_2d_ring(rng, bound=5)
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=14)
        pairs.append((a, random_ideal(rng, ring, max_gens=3, pairing_bound=14)))
    return pairs


def _outcome(decompose, p, a, b):
    """What a decomposition call gives: its result, or the type of its error."""
    try:
        return decompose(p, a, b)
    except Exception as exc:  # the error type is the outcome being compared
        return type(exc)


class TestDecompose2DAgainstReference:
    """The cached integer-threshold walk against the per-call walk it replaced,
    which rebuilds every edge region and tests it with Fraction membership."""

    @staticmethod
    def assert_agree(a, b, points):
        """Equal outcomes on every point, both ways round; returns them."""
        outcomes = []
        for x, y in ((a, b), (b, a)):
            for p in points:
                got, want = _outcome(decompose_2d, p, x, y), _outcome(oracles.decompose_2d, p, x, y)
                assert got == want and repr(got) == repr(want), (x.ring.dual_rays, x.gens, y.gens, p)
                outcomes.append(got)
        return outcomes

    @staticmethod
    def seeded_pairs(rng, ring, count):
        for _ in range(count):
            yield random_ideal(rng, ring, max_gens=3, pairing_bound=12), random_ideal(rng, ring, max_gens=3, pairing_bound=12)

    def test_every_generator_on_the_pool_rings(self):
        rng = random.Random(4242)
        for _, ring in pool_rings():
            if ring.dim == 2:
                for a, b in self.seeded_pairs(rng, ring, 6):
                    outcomes = self.assert_agree(a, b, multiplier_ideal(product(a, b)).gens)
                    assert all(isinstance(d, Decomposition2D) for d in outcomes)

    def test_every_generator_on_random_rings(self):
        rng = random.Random(977)
        for _ in range(15):
            ring = random_2d_ring(rng, bound=6)
            for a, b in self.seeded_pairs(rng, ring, 2):
                outcomes = self.assert_agree(a, b, multiplier_ideal(product(a, b)).gens)
                assert all(isinstance(d, Decomposition2D) for d in outcomes)

    def test_members_and_non_members_of_a_box(self):
        # decompose_2d takes any member of J(ab), not only generators, and
        # must refuse every other point as the reference does
        rng = random.Random(5150)
        for _, ring in pool_rings():
            if ring.dim == 2:
                for a, b in self.seeded_pairs(rng, ring, 2):
                    outcomes = self.assert_agree(a, b, semigroup_points(ring, 14))
                    assert NotInMultiplierIdeal in outcomes
                    assert any(isinstance(d, Decomposition2D) for d in outcomes)

    def test_every_point_of_a_box_past_the_vertices_splits_or_is_refused(self):
        # decompose_2d splits before it tests p + u0 against N(ab), and tests it only on
        # refusal: points on a facet of N(ab), and points that clear a region's floors with
        # p + u0 outside the interior, must be refused as the reference refuses them
        rng = random.Random(41)
        pairs = []
        for _ in range(20):
            ring = random_2d_ring(rng, bound=7)
            pairs.append(tuple(random_ideal(rng, ring, max_gens=4, pairing_bound=30) for _ in "ab"))
        for _, ring in pool_rings():
            if ring.dim == 2:
                pairs += self.seeded_pairs(rng, ring, 3)
        on_facet = floored_outside = 0
        for a, b in pairs:
            ring, poly = a.ring, newton_polyhedron(product(a, b))
            points = semigroup_points(ring, max(max(ring.pairings(v)) for v in poly.vertices) + 2)
            outcomes = self.assert_agree(a, b, points)
            assert all(isinstance(o, Decomposition2D) or o is NotInMultiplierIdeal for o in outcomes)
            regions = _edge_regions(a, b)
            u0 = ring.canonical_shift()
            for p in points:
                report = membership(poly, vadd(p, u0), relative_interior=True)
                t0, t1 = ring.pairings(p)
                on_facet += bool(report.tight)
                floored_outside += not report.contained and any(t0 >= f0 and t1 >= f1 for f0, f1, _, _ in regions)
        assert on_facet >= 100 and floored_outside >= 100

    def test_a_principal_pair_has_one_region(self, base_recipe):
        # N(ab) is one vertex plus the cone, so its one region is all of it
        a, b = base_recipe.i_prime, base_recipe.j_prime
        assert len(_edge_regions(a, b)) == 1
        self.assert_agree(a, b, semigroup_points(a.ring, 30))

    def test_equal_ideals_insert_a_mixed_point(self):
        # the edges of N(a) and N(b) are parallel, so the walk meets 2g1 and
        # 2g2 with disjoint tags and inserts g1 + g2 between them
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        a = monomial_ideal(ring, ((5, 0), (1, 2)))
        regions = _edge_regions(a, a)
        assert [(side, witness) for _, _, side, witness in regions] == [
            (Side.FROM_A, (5, 0)),
            (Side.FROM_B, (1, 2)),
        ]
        outcomes = self.assert_agree(a, a, semigroup_points(ring, 24))
        assert {d.region_index for d in outcomes if isinstance(d, Decomposition2D)} == {0, 1}

    def test_refusals_come_in_the_same_order(self, pair, base_recipe):
        a3, b3 = pair
        a2, b2 = base_recipe.i_prime, base_recipe.j_prime
        zero = monomial_ideal(a2.ring, ())
        # each point also breaks every check after the one it must fail
        cases = [
            ((-5, 0, 0), a2, a3, RingMismatch),
            ((-5, 0, 0), a3, b3, NotDimension2),
            ((-5, 0), a2, zero, NotInSemigroup),
            ((14,), a2, zero, DimensionMismatch),
            ((0, 0), a2, zero, ZeroIdeal),
            ((0, 0), a2, b2, NotInMultiplierIdeal),
        ]
        for p, a, b, error in cases:
            assert _outcome(decompose_2d, p, a, b) is error
            assert _outcome(oracles.decompose_2d, p, a, b) is error


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
            j_ab = multiplier_ideal(product(a, b))
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
        na = newton_polyhedron(a)
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

    def test_closure_flags_are_computed_on_first_read(self, base_recipe):
        # search reads no flag, so it computes none for its hits until their JSON is built
        twin = base_recipe._replace(z_exponent=(0, 0, 1))
        hits = search_counterexamples(load_search_config(str(SINGULAR_BASES)))
        assert len(hits) == 5
        # on the orthant these z close exactly one of a and b, or both
        orthant = ring_from_dual_rays(((0, 1), (1, 0)))
        i, j = monomial_ideal(orthant, ((2, 0),)), monomial_ideal(orthant, ((0, 2),))
        lopsided = [ConstructionRecipe(orthant, i, j, (1, 1), z) for z in ((1, 0, 2), (0, 1, 2), (1, 1, 1))]
        built = [huneke_swanson_construct(r) for r in [base_recipe, twin] + lopsided]

        def read(construction, name):
            """The flag, and what reading it added to the (hits, misses) of the
            integral_closure and product memos."""
            before = [memo.cache_info()[:2] for memo in (integral_closure, product)]
            value = getattr(construction, name)
            after = [memo.cache_info()[:2] for memo in (integral_closure, product)]
            return value, tuple((h1 - h0, m1 - m0) for (h0, m0), (h1, m1) in zip(before, after))

        closure_miss, closure_hit, product_miss, product_hit = ((0, 1), (0, 0)), ((1, 0), (0, 0)), (0, 1), (1, 0)
        for construction in built + [hit.construction for hit in hits]:
            expected = oracles.construction_flags(construction)
            integral_closure.cache_clear()
            product.cache_clear()
            construction = huneke_swanson_construct(construction.recipe)
            # building enumerated neither closure(a) nor closure(b)
            assert read(construction, FLAGS[0]) == (expected[0], closure_miss)
            assert read(construction, FLAGS[0]) == (expected[0], closure_hit)
            assert read(construction, FLAGS[1]) == (expected[1], closure_miss)
            assert read(construction, FLAGS[1]) == (expected[1], closure_hit)
            # closure(a)·closure(b) is computed on first read, unless it is a·b, which
            # building multiplies for its own check
            first = product_hit if expected[:2] == (True, True) else product_miss
            assert read(construction, FLAGS[2]) == (expected[2], ((2, 0), first))
            assert read(construction, FLAGS[2]) == (expected[2], ((2, 0), product_hit))
        assert [oracles.construction_flags(c) for c in built] == [
            (False, False, True),
            (True, True, False),
            (True, False, False),
            (False, True, False),
            (True, True, True),
        ]

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

    def test_recipes_with_a_zero_base_ideal_are_refused(self, base_recipe):
        zero = monomial_ideal(base_recipe.base_ring, ())
        for bad in (base_recipe._replace(i_prime=zero), base_recipe._replace(j_prime=zero)):
            with pytest.raises(RecipeInvalid, match="nonzero"):
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

    def test_the_closure_facet_test_matches_the_closure_generators(self):
        """_in_closure, the construction's facet test on N(a), against divisibility by
        the generators of closure(a) and against the membership report, on seeded
        ideals over the pool and every semigroup point of a small box."""
        rng = random.Random(67)
        for name, ring in pool_rings():
            points = semigroup_points(ring, 8 if ring.dim == 2 else 4)
            for _ in range(4):
                a = random_ideal(rng, ring, max_gens=3, pairing_bound=6 if ring.dim == 2 else 3)
                closure, poly = integral_closure(a), newton_polyhedron(a)
                inside = [w for w in points if _in_closure(a, w)]
                assert inside == [w for w in points if contains_monomial(closure, w)], name
                assert inside == [w for w in points if membership(poly, w).contained], name
                assert 0 < len(inside) < len(points), name


class TestSearch:
    def test_explicit_recipe_is_found(self, base_recipe):
        hits = search_counterexamples(
            SearchConfig(max_candidates=0, explicit_recipes=(base_recipe,))
        )
        assert len(hits) == 1
        assert hits[0].construction.r_z == (18, 12, 2)
        assert hits[0].verdict.witnesses == ((13, 10, 0), (17, 11, 1))

    def test_empty_cap_without_recipes_finds_nothing(self):
        assert search_counterexamples(SearchConfig(max_candidates=0)) == ()

    def test_one_dimensional_search_is_empty(self):
        assert search_counterexamples(SearchConfig(dim=1, max_candidates=30)) == ()

    def test_unsupported_dimension_is_refused(self):
        with pytest.raises(ConfigInvalid):
            search_counterexamples(SearchConfig(dim=4))
        with pytest.raises(ConfigInvalid, match="at least 1"):
            search_counterexamples(SearchConfig(dim=0))

    def test_gap_generators_match_the_three_closure_formula(self):
        # ray_bound 2 reaches the smooth bases and the A1 and A2 singularities
        config = SearchConfig(ray_bound=2, gen_pairing_bound=3)
        gaps = 0
        for ring in _candidate_rings(config.dim, config.ray_bound):
            gens = [g for g in semigroup_points(ring, config.gen_pairing_bound) if any(g)]
            for g1, g2 in itertools.combinations_with_replacement(gens, 2):
                rs = _gap_generators(ring, g1, g2)[2]
                assert rs == oracles.gap_generators(ring, g1, g2)
                gaps += len(rs)
        assert gaps > 0

    def test_constructions_at_the_small_hits_bounds_match_the_closure_scan(self):
        # the construction tests rZ on N(ab) alone; the scan enumerates closure(ab)
        recipes = list(_enumerated_recipes(load_search_config(str(SMALL_HITS))))
        assert len(recipes) == 18
        flags = set()
        for recipe in recipes:
            built = huneke_swanson_construct(recipe)
            ring = built.ring
            sigma = ring.sigma_rays

            def scan(gens):
                return oracles.closure_scan(gens, ring.dual_rays, sigma)

            ca, cb = scan(built.a.gens), scan(built.b.gens)
            assert oracles.in_ideal(scan([vadd(g, h) for g in built.a.gens for h in built.b.gens]), built.r_z, sigma)
            assert built.a_integrally_closed == (ca == built.a.gens)
            assert built.b_integrally_closed == (cb == built.b.gens)
            in_product = oracles.in_ideal([vadd(g, h) for g in ca for h in cb], built.r_z, sigma)
            assert built.rz_in_product_of_closures == in_product
            flags.add((built.a_integrally_closed, built.b_integrally_closed, in_product))
        assert len(flags) > 1

    def test_every_enumerated_recipe_meets_the_recipe_conditions(self):
        # search builds enumerated recipes without catching RecipeInvalid
        config = SearchConfig(ray_bound=2, gen_pairing_bound=3, z_pairing_bound=1, z_height_bound=2)
        recipes = list(_enumerated_recipes(config))
        assert len(recipes) == 580
        for recipe in recipes:
            huneke_swanson_construct(recipe)


def oracle_skeletons(config):
    """The search space of config, walked in full by the oracle."""
    blocks = [
        (
            ring,
            [g for g in semigroup_points(ring, config.gen_pairing_bound) if any(g)],
            semigroup_points(ring, config.z_pairing_bound),
        )
        for ring in _candidate_rings(config.dim, config.ray_bound)
    ]
    return list(skeletons(blocks, config.z_height_bound))


STREAM_CONFIGS = [
    SearchConfig(dim=dim, ray_bound=ray_bound, gen_pairing_bound=3, z_pairing_bound=2, z_height_bound=height)
    for dim, ray_bound in ((1, 1), (2, 1), (2, 2))
    for height in (1, 2, 3)
]
STREAM_IDS = [f"dim{c.dim}-rays{c.ray_bound}-height{c.z_height_bound}" for c in STREAM_CONFIGS]
# The spaces the default search and the singular-bases search walk.
STREAM_CONFIGS += [SearchConfig(), load_search_config(str(SINGULAR_BASES))]
STREAM_IDS += ["default", "singular-bases"]


class TestSkeletonStream:
    @pytest.mark.parametrize("config", STREAM_CONFIGS, ids=STREAM_IDS)
    def test_decoder_matches_the_nested_walk_at_every_index(self, config):
        expected = oracle_skeletons(config)
        space = _skeleton_space(*_space_bounds(config))
        assert space[2] == len(expected)
        assert [_skeleton(space, i) for i in range(space[2])] == expected
        assert list(_skeletons(config)) == expected

    def test_decoder_reaches_both_ends_of_every_block_at_the_paper_bounds(self):
        config = load_search_config(str(PAPER_BOUNDS))
        space = starts, blocks, total, height = _skeleton_space(*_space_bounds(config))
        assert height == config.z_height_bound
        for start, end, (ring, gens, _, zs) in zip(starts, starts[1:] + (total,), blocks):
            first, last = _skeleton(space, start), _skeleton(space, end - 1)
            assert first == (ring, gens[0], gens[0], zs[0] + (1,))
            assert last == (ring, gens[-1], gens[-1], zs[-1] + (height,))

    @pytest.mark.parametrize("config", STREAM_CONFIGS, ids=STREAM_IDS)
    def test_seeded_samples_pick_the_same_skeletons_in_order(self, config):
        expected = oracle_skeletons(config)
        for seed, cap in ((0, 1), (3, 17), (11, 200), (5, len(expected)), (7, len(expected) + 5)):
            capped = config._replace(max_candidates=cap, seed=seed)
            keep = range(len(expected))
            if len(expected) > cap:
                keep = sorted(random.Random(seed).sample(range(len(expected)), cap))
            assert list(_skeletons(capped)) == [expected[i] for i in keep]

    def test_empty_dimensions_of_the_space_give_no_skeletons(self):
        for config in (SearchConfig(z_height_bound=0), SearchConfig(ray_bound=0), SearchConfig(gen_pairing_bound=0)):
            assert _skeleton_space(*_space_bounds(config))[2] == 0
            assert list(_skeletons(config)) == []

    def test_decoder_steps_over_empty_blocks_that_share_a_start(self):
        # 7 of the 36 base rings have no nonzero generator of pairing at most 1,
        # so their empty blocks share a start with the block after them.
        config = SearchConfig(dim=2, ray_bound=3, gen_pairing_bound=1, z_pairing_bound=0, z_height_bound=1)
        expected = oracle_skeletons(config)
        space = starts, blocks, total, _ = _skeleton_space(*_space_bounds(config))
        assert (len(blocks), len(set(starts)), total, len(expected)) == (36, 29, 104, 104)
        assert [_skeleton(space, i) for i in range(total)] == expected
        for seed, cap in ((0, 1), (3, 17), (11, 60), (5, 103)):
            keep = sorted(random.Random(seed).sample(range(total), cap))
            assert list(_skeletons(config._replace(max_candidates=cap, seed=seed))) == [expected[i] for i in keep]

    def test_paper_bounds_are_counted_not_materialized(self):
        config = load_search_config(str(PAPER_BOUNDS))
        assert (config.ray_bound, config.gen_pairing_bound, config.z_pairing_bound, config.z_height_bound) == (2, 17, 14, 2)
        assert config.max_candidates == 3
        assert _skeleton_space(*_space_bounds(config))[2] == 171_588_132
        assert len(list(_skeletons(config))) == 3

    def test_paper_bounds_search_runs_in_bounded_memory(self):
        # The skeleton list at these bounds would need tens of gigabytes.
        limit = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = subprocess.run(
            [sys.executable, "-m", "toricmult", "search", "--input", str(PAPER_BOUNDS), "--cap", "3", "--format", "json"],
            capture_output=True,
            timeout=60,
            preexec_fn=cap_address_space,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["count"] == 0


class TestSmallestHits:
    """The smallest bounds with hits. The default ray_bound=1 reaches only
    smooth bases, where subadditivity is a theorem; ray_bound=2 reaches the
    A1 singularity, and a z of height 2 lifts its closure gap."""

    def test_search_finds_exactly_the_two_mirror_hits(self):
        hits = search_counterexamples(load_search_config(str(SMALL_HITS)))
        assert [(h.construction.recipe.base_ring.dual_rays, h.construction.a.gens, h.construction.b.gens)
                for h in hits] == [
            (((0, 1), (2, 1)), ((0, 0, 2), (2, 1, 0)), ((0, 0, 2), (0, 1, 0))),
            (((1, 0), (1, 2)), ((0, 0, 2), (1, 0, 0)), ((0, 0, 2), (1, 2, 0))),
        ]
        for hit in hits:
            built, verdict = hit.construction, hit.verdict
            ring = built.ring
            for ideal, j in ((built.a, verdict.j_a), (built.b, verdict.j_b), (product(built.a, built.b), verdict.j_ab)):
                assert j.gens == oracles.multiplier_scan(
                    ideal.gens, ring.dual_rays, ring.sigma_rays, ring.canonical_shift()
                )
            assert verdict.witnesses == ((1, 1, 0),)
            report = exhaustive_refute(vadd((1, 1, 0), ring.gorenstein_point()), built.a, built.b)
            assert (report.scanned, report.decompositions) == (24, ())

    def test_height_one_finds_nothing(self):
        config = load_search_config(str(SMALL_HITS))._replace(z_height_bound=1)
        assert search_counterexamples(config) == ()


class TestSingularBases:
    """An uncapped search over every base ring with dual rays in [0, 2]^2:
    the smooth ones and the A1 and A2 singularities."""

    def test_search_finds_the_five_pinned_hits(self, capsys):
        code = main(["search", "--input", str(SINGULAR_BASES), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 5
        assert [
            (h["construction"]["recipe"]["base_ring"]["dual_cone_rays"], h["construction"]["a"], h["construction"]["b"])
            for h in doc["hits"]
        ] == [
            ([[0, 1], [2, 1]], [[0, 0, 2], [2, 1, 0]], [[0, 0, 2], [0, 1, 0]]),
            ([[0, 1], [2, 1]], [[1, 1, 2], [3, 2, 0]], [[1, 1, 2], [1, 2, 0]]),
            ([[1, 0], [1, 2]], [[0, 0, 2], [1, 0, 0]], [[0, 0, 2], [1, 2, 0]]),
            ([[1, 0], [1, 2]], [[1, 1, 2], [2, 1, 0]], [[1, 1, 2], [2, 3, 0]]),
            ([[1, 2], [2, 1]], [[1, 1, 2], [2, 1, 0]], [[1, 1, 2], [1, 2, 0]]),
        ]
        # taken when closure membership was still decided by enumerating the closure
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "50b5c416502ca2a8e519013e409a66e73f09afba09bcaa59d1c051f3ffd8b899"
        )
