"""Monomial ideals: minimal generators, products, and integral closure.

The closure computations are checked against `oracles.closure_scan`, a
Fourier-Motzkin-plus-grid re-derivation that shares no code with the library.
"""

import random

import pytest

import oracles
from instances import pool_rings, principal_check_rings, random_2d_ring, random_ideal
from oracles import box_points, closure_scan, dot, in_ideal, minimal_points, vadd, vsub

from toricmult.errors import NotInSemigroup, RingMismatch, ZeroIdeal
from toricmult.geometry import membership
from toricmult.ideals import (
    contains_monomial,
    ideal_sum,
    integral_closure,
    minimalize,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays, semigroup_points


@pytest.fixture(scope="module")
def ring():
    return ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))


@pytest.fixture(scope="module")
def pair(ring):
    a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
    b = monomial_ideal(ring, ((12, 7, 0), (10, 6, 2)))
    return a, b


class TestConstruction:
    def test_generators_are_minimalized_and_sorted(self, ring):
        # (4, 5, 0) = (2, 4, 0) + (2, 1, 0) is redundant; duplicates collapse
        i = monomial_ideal(ring, ((10, 6, 2), (4, 5, 0), (2, 4, 0), (2, 4, 0)))
        assert i.gens == ((2, 4, 0), (10, 6, 2))

    def test_minimalize_is_idempotent(self, ring):
        gens = ((2, 4, 0), (10, 6, 2))
        once = minimalize(ring, [(g, ring.pairings(g)) for g in gens])
        assert minimalize(ring, [(g, ring.pairings(g)) for g in once]) == once == gens

    def test_minimalize_matches_the_oracle_in_any_input_order(self):
        rng = random.Random(3307)
        for _, ring in pool_rings():
            points = semigroup_points(ring, 7)
            for _ in range(8):
                sample = rng.sample(points, rng.randint(1, min(14, len(points))))
                sample += rng.choices(sample, k=4)  # repeats
                expected = minimal_points(sample, ring.sigma_rays)
                assert minimalize(ring, [(g, ring.pairings(g)) for g in sample]) == expected
                for _ in range(3):
                    rng.shuffle(sample)
                    assert minimalize(ring, [(g, ring.pairings(g)) for g in sample]) == expected

    def test_the_two_ray_staircase_equals_the_quadratic_scan(self):
        """Random pairs of pairings, drawn from a narrow first range so that
        ties in the first pairing are common, with repeated points; the points
        are any labels, as minimalize reads only the pairings, and the ring, a
        pool surface, only for its two sigma rays."""
        ring = dict(pool_rings())["plane-cusp-2d"]
        rng = random.Random(3319)
        ties = 0
        for _ in range(400):
            points = [((i,), (rng.randint(0, 5), rng.randint(0, 20))) for i in range(rng.randint(0, 16))]
            points += rng.choices(points, k=rng.randint(0, 4)) if points else []
            rng.shuffle(points)
            assert minimalize(ring, points) == oracles.antichain_scan(points)
            ties += len({t[0] for _, t in points}) < len({t for _, t in points})
        assert ties > 300

    @pytest.mark.parametrize("rays", (3, 4))
    def test_repeated_pairings_are_skipped_as_the_quadratic_scan_drops_them(self, rays):
        """Multisets of a few distinct pairings, each repeated many times: the
        sort puts the repeats of a point after it, where they are skipped. The
        repeats carry other labels, which the scan drops with them. The ring
        has as many sigma rays as the points have pairings."""
        ring = dict(pool_rings())["counterexample-3d" if rays == 3 else "square-cone-3d"]
        assert len(ring.sigma_rays) == rays
        rng = random.Random(3329 + rays)
        for _ in range(200):
            distinct = [tuple(rng.randint(0, 4) for _ in range(rays)) for _ in range(rng.randint(1, 8))]
            points = [((i,), rng.choice(distinct)) for i in range(rng.randint(1, 60))]
            rng.shuffle(points)
            assert minimalize(ring, points) == oracles.antichain_scan(points)

    @pytest.mark.parametrize("name", ("orthant-3d", "counterexample-3d", "square-cone-3d"))
    def test_products_with_repeated_sums_minimalize_as_the_quadratic_scan(self, name):
        """A product of an ideal with itself repeats every sum g + h as h + g."""
        ring = dict(pool_rings())[name]
        rng = random.Random(name)
        for _ in range(10):
            a = random_ideal(rng, ring, max_gens=6, pairing_bound=5)
            sums = [(vadd(g, h), ring.pairings(vadd(g, h))) for g in a.gens for h in a.gens]
            assert product(a, a).gens == oracles.antichain_scan(sums)

    def test_the_square_cone_product_at_exponent_ten(self):
        """J(a) of the square-cone multiplier fixture's ideal at exponent 10 has
        221 generators, so J(a)·J(a) has 48,841 sums but 841 distinct ones."""
        ring = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))
        j = multiplier_ideal(monomial_ideal(ring, ((10, 0, 10), (0, 10, 10), (-10, 0, 10), (0, -10, 10))))
        assert len(j.gens) ** 2 == 48841
        assert len({vadd(g, h) for g in j.gens for h in j.gens}) == 841
        assert len(product(j, j).gens) == 841

    def test_two_dimensional_products_minimalize_as_the_quadratic_scan(self):
        rng = random.Random(3323)
        for _ in range(60):
            ring = random_2d_ring(rng, 7)
            a, b = (random_ideal(rng, ring, max_gens=5, pairing_bound=30) for _ in range(2))
            sums = [(vadd(g, h), ring.pairings(vadd(g, h))) for g in a.gens for h in b.gens]
            expected = minimal_points([w for w, _ in sums], ring.sigma_rays)
            assert product(a, b).gens == oracles.antichain_scan(sums) == expected

    def test_exponents_outside_the_semigroup_are_rejected(self, ring):
        with pytest.raises(NotInSemigroup):
            monomial_ideal(ring, ((1, 0, 0),))

    def test_zero_and_unit_ideals(self, ring):
        zero = monomial_ideal(ring, ())
        assert zero.is_zero
        unit = monomial_ideal(ring, ((0, 0, 0),))
        assert unit.gens == ((0, 0, 0),) and not unit.is_zero
        with pytest.raises(ZeroIdeal):
            newton_polyhedron(zero)


class TestArithmetic:
    def test_product_generators_of_the_counterexample(self, pair):
        a, b = pair
        assert product(a, b).gens == (
            (12, 10, 2),
            (14, 11, 0),
            (20, 12, 4),
            (22, 13, 2),
        )

    def test_product_is_commutative(self, pair):
        a, b = pair
        assert product(a, b) == product(b, a)

    def test_unit_is_neutral_for_products(self, ring, pair):
        a, _ = pair
        unit = monomial_ideal(ring, ((0, 0, 0),))
        assert product(a, unit) == a

    @pytest.mark.parametrize("name", ("counterexample-3d", "square-cone-3d"))
    def test_the_zero_ideal_annihilates_products_and_is_neutral_for_sums(self, name):
        """Simplicial and non-simplicial: a product with no sums is the zero ideal."""
        ring = dict(pool_rings())[name]
        zero = monomial_ideal(ring, ())
        a = random_ideal(random.Random(name), ring, max_gens=4, pairing_bound=5)
        assert not a.is_zero
        assert product(zero, a) == product(a, zero) == zero
        assert product(zero, a).is_zero
        assert ideal_sum(zero, a) == ideal_sum(a, zero) == a

    def test_sum_collapses_dominated_generators(self, ring, pair):
        a, b = pair
        assert ideal_sum(a, b).gens == ((2, 4, 0), (10, 6, 2), (12, 7, 0))

    def test_cross_ring_operations_are_rejected(self, ring, pair):
        a, _ = pair
        other = monomial_ideal(ring_from_dual_rays(((1, 0), (0, 1))), ((1, 1),))
        with pytest.raises(RingMismatch):
            product(a, other)

    def test_contains_monomial_is_divisibility(self, ring, pair):
        a, _ = pair
        assert contains_monomial(a, (2, 4, 0))
        assert contains_monomial(a, (4, 5, 0))  # (2,4,0) + (2,1,0)
        assert not contains_monomial(a, (5, 5, 1))

    def test_contains_monomial_matches_cone_containment_across_the_pool(self):
        rng = random.Random(19)
        for _, ring in pool_rings():
            points = semigroup_points(ring, 5)
            for _ in range(12):
                a = random_ideal(rng, ring, pairing_bound=4)
                for w in points:
                    expected = any(min(ring.pairings(vsub(w, g))) >= 0 for g in a.gens)
                    assert contains_monomial(a, w) == expected, (ring.dual_rays, a.gens, w)


class TestIntegralClosure:
    def test_counterexample_ideals_are_not_closed(self, pair):
        a, b = pair
        assert integral_closure(a).gens == (
            (2, 4, 0),
            (5, 5, 1),
            (6, 5, 1),
            (9, 6, 2),
            (10, 6, 2),
        )
        assert integral_closure(b).gens == ((10, 6, 2), (12, 7, 0), (12, 8, 1))

    def test_product_closure_contains_the_lifted_witness(self, pair):
        a, b = pair
        ab = product(a, b)
        assert not contains_monomial(ab, (18, 12, 2))
        assert contains_monomial(integral_closure(ab), (18, 12, 2))

    def test_closure_of_unit_ideal(self, ring):
        unit = monomial_ideal(ring, ((0, 0, 0),))
        assert integral_closure(unit) == unit

    def test_principal_ideals_are_integrally_closed(self):
        # integral_closure returns a principal ideal unchanged, so the grid
        # scan is the only independent check that it is closed; every nonzero
        # semigroup point pairing at most 3 with each sigma ray is a generator
        for ring in principal_check_rings():
            for g in semigroup_points(ring, 3):
                if any(g):
                    principal = monomial_ideal(ring, (g,))
                    assert integral_closure(principal) == principal
                    assert closure_scan((g,), ring.dual_rays, ring.sigma_rays) == (g,)

    def test_membership_in_the_newton_polyhedron_is_closure_membership(self):
        # huneke_swanson_construct tests closure membership on N(a) alone
        rng = random.Random(2203)
        for _, ring in pool_rings():
            for _ in range(3):
                a = random_ideal(rng, ring, max_gens=3, pairing_bound=6)
                closure = closure_scan(a.gens, ring.dual_rays, ring.sigma_rays)
                poly = newton_polyhedron(a)
                reach = max(dot(g, n) for g in closure for n in ring.sigma_rays) + 1
                box = box_points(ring.sigma_rays, [reach] * len(ring.sigma_rays))
                inside = [membership(poly, w).contained for w in box]
                assert inside == [in_ideal(closure, w, ring.sigma_rays) for w in box]
                assert True in inside and False in inside

    def test_sum_closure_gap_at_the_recipe_point(self):
        base = ring_from_dual_rays(((2, 1), (1, 2)))
        i_prime = monomial_ideal(base, ((2, 4),))
        j_prime = monomial_ideal(base, ((12, 7),))
        assert contains_monomial(integral_closure(ideal_sum(i_prime, j_prime)), (8, 6))
        closed_sum = ideal_sum(integral_closure(i_prime), integral_closure(j_prime))
        assert not contains_monomial(closed_sum, (8, 6))

    def test_matches_the_grid_oracle_across_the_pool(self):
        rng = random.Random(1129)
        for _, ring in pool_rings():
            for _ in range(5):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=9)
                expected = closure_scan(i.gens, ring.dual_rays, ring.sigma_rays)
                assert integral_closure(i).gens == expected

    def test_matches_the_grid_oracle_on_random_2d_rings(self):
        rng = random.Random(4)
        for _ in range(15):
            ring = random_2d_ring(rng, bound=5)
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=10)
            expected = closure_scan(i.gens, ring.dual_rays, ring.sigma_rays)
            assert integral_closure(i).gens == expected


class TestClosureLaws:
    """Extensive, monotone, idempotent -- on seeded instances over the pool."""

    def test_closure_laws(self):
        rng = random.Random(271828)
        for _, ring in pool_rings():
            for _ in range(4):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
                closed = integral_closure(i)
                assert all(contains_monomial(closed, g) for g in i.gens)
                assert integral_closure(closed) == closed
                bigger = ideal_sum(i, random_ideal(rng, ring, max_gens=2, pairing_bound=8))
                closed_bigger = integral_closure(bigger)
                assert all(contains_monomial(closed_bigger, g) for g in closed.gens)
