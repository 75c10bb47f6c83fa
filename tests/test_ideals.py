"""Monomial ideals: minimal generators, products, and integral closure.

The closure computations are checked against `oracles.closure_scan`, a
Fourier-Motzkin-plus-grid re-derivation that shares no code with the library.
"""

import random

import pytest

from instances import pool_rings, random_2d_ring, random_ideal
from oracles import closure_scan, minimal_points

from toricmult.errors import NotInSemigroup, RingMismatch, ZeroIdeal
from toricmult.ideals import (
    contains_monomial,
    ideal_sum,
    integral_closure,
    minimalize,
    monomial_ideal,
    newton_polyhedron,
    product,
)
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
        assert minimalize(ring, minimalize(ring, gens)) == gens

    def test_minimalize_matches_the_oracle_in_any_input_order(self):
        rng = random.Random(3307)
        for _, ring in pool_rings():
            points = semigroup_points(ring, 7)
            for _ in range(8):
                sample = rng.sample(points, rng.randint(1, min(14, len(points))))
                sample += rng.choices(sample, k=4)  # repeats
                expected = minimal_points(sample, ring.sigma_rays)
                assert minimalize(ring, sample) == expected
                for _ in range(3):
                    rng.shuffle(sample)
                    assert minimalize(ring, sample) == expected

    def test_exponents_outside_the_semigroup_are_rejected(self, ring):
        with pytest.raises(NotInSemigroup):
            monomial_ideal(ring, ((1, 0, 0),))

    def test_zero_and_unit_ideals(self, ring):
        zero = monomial_ideal(ring, ())
        assert zero.is_zero and not zero.is_unit
        unit = monomial_ideal(ring, ((0, 0, 0),))
        assert unit.is_unit and not unit.is_zero
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
        base = ring_from_dual_rays(((2, 1), (1, 2)))
        i_prime = monomial_ideal(base, ((2, 4),))
        j_prime = monomial_ideal(base, ((12, 7),))
        assert integral_closure(i_prime) == i_prime
        assert integral_closure(j_prime) == j_prime

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
