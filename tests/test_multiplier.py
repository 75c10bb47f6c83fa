"""Multiplier ideals via the shifted-interior formula, against a grid oracle."""

import random
from fractions import Fraction

import pytest

from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, pool_rings, random_2d_ring, random_ideal
from oracles import multiplier_scan

from toricmult.errors import NotQGorenstein, ZeroIdeal
from toricmult.ideals import contains_monomial, ideal_sum, integral_closure, monomial_ideal, product
from toricmult.multiplier import multiplier_ideal, multiplier_membership
from toricmult.rings import ring_from_dual_rays


@pytest.fixture(scope="module")
def ring():
    return ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))


@pytest.fixture(scope="module")
def pair(ring):
    a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
    b = monomial_ideal(ring, ((12, 7, 0), (10, 6, 2)))
    return a, b


class TestCounterexampleInstance:
    def test_multiplier_of_a(self, pair):
        a, _ = pair
        result = multiplier_ideal(a)
        assert result.shift == (1, 1, 1)
        assert result.ideal.gens == ((2, 4, 0), (3, 4, 0), (4, 4, 0), (7, 5, 1), (8, 5, 1))

    def test_multiplier_of_b(self, pair):
        _, b = pair
        assert multiplier_ideal(b).ideal.gens == ((10, 6, 1), (11, 7, 0), (12, 7, 0))

    def test_multiplier_of_the_product(self, pair):
        a, b = pair
        gens = multiplier_ideal(product(a, b)).ideal.gens
        assert (17, 11, 1) in gens
        assert gens == (
            (12, 10, 1),
            (13, 10, 0),
            (13, 11, 0),
            (14, 10, 1),
            (16, 11, 0),
            (17, 11, 1),
            (18, 11, 2),
            (20, 12, 1),
        )

    def test_membership_interior_point(self, pair):
        a, _ = pair
        report = multiplier_membership(a, (7, 5, 1))
        assert report.contained and report.strict

    def test_membership_tight_on_the_slanted_facet(self, pair):
        a, _ = pair
        report = multiplier_membership(a, (7, 5, 0))
        assert not report.contained
        assert [(h.normal, h.offset) for h in report.tight] == [((-1, 2, 2), 6)]

    def test_membership_violation_value_is_exact(self, pair):
        _, b = pair
        report = multiplier_membership(b, (10, 6, 0))
        assert not report.contained
        values = {h.normal: v for h, v in report.pairings}
        assert values[(4, -2, 3)] == 33  # one short of the 34 the facet demands


class TestOracleEquivalence:
    def test_pool_instances(self):
        rng = random.Random(60901)
        for _, ring in pool_rings():
            u0 = ring.canonical_shift()
            for _ in range(5):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=9)
                expected = multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, u0)
                assert multiplier_ideal(i).ideal.gens == expected

    def test_random_2d_rings(self):
        rng = random.Random(17)
        for _ in range(15):
            ring = random_2d_ring(rng, bound=5)
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=10)
            expected = multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, ring.canonical_shift())
            assert multiplier_ideal(i).ideal.gens == expected

    def test_fractional_canonical_point(self):
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        assert ring.canonical_shift() == (Fraction(2, 3), Fraction(1))
        i = monomial_ideal(ring, ((2, 0), (2, 6)))
        expected = multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, ring.canonical_shift())
        assert multiplier_ideal(i).ideal.gens == expected
        # w = (1, 0): w + u0 = (5/3, 1) falls short of the facet <(1, 0), v> >= 2
        report = multiplier_membership(i, (1, 0))
        values = {h.normal: v for h, v in report.pairings}
        assert values == {(0, 1): 1, (1, 0): Fraction(5, 3), (3, -1): 4}
        assert all(type(v) is Fraction for v in values.values())
        assert [(h.normal, h.offset) for h in report.violated] == [((1, 0), 2)]


class TestStructuralLaws:
    def test_closure_is_contained_in_the_multiplier_ideal(self):
        # the containment runs this way around: adding u0 pushes every Newton
        # point strictly inside, since facet normals pair positively with u0
        rng = random.Random(31)
        for _, ring in pool_rings():
            for _ in range(4):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
                j = multiplier_ideal(i).ideal
                for g in integral_closure(i).gens:
                    assert contains_monomial(j, g)

    def test_multiplier_ideal_can_exceed_the_integral_closure(self):
        # J(<x^2, y^2>) = <x, y> on the plane, while the closure is <x^2, xy, y^2>:
        # multiplier ideals are NOT inside the integral closure in general.
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        i = monomial_ideal(orthant, ((2, 0), (0, 2)))
        assert multiplier_ideal(i).ideal.gens == ((0, 1), (1, 0))
        assert integral_closure(i).gens == ((0, 2), (1, 1), (2, 0))
        assert not contains_monomial(integral_closure(i), (1, 0))

    def test_multiplier_ideals_are_integrally_closed(self):
        rng = random.Random(813)
        for _, ring in pool_rings():
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
            j = multiplier_ideal(i).ideal
            assert integral_closure(j) == j

    def test_monotone_in_the_ideal(self):
        rng = random.Random(47)
        for _, ring in pool_rings():
            i = random_ideal(rng, ring, max_gens=2, pairing_bound=7)
            bigger = ideal_sum(i, random_ideal(rng, ring, max_gens=2, pairing_bound=7))
            ji = multiplier_ideal(i).ideal
            jb = multiplier_ideal(bigger).ideal
            assert all(contains_monomial(jb, g) for g in ji.gens)

    def test_unit_ideal_is_a_fixed_point(self):
        for _, ring in pool_rings():
            unit = monomial_ideal(ring, ((0,) * ring.dim,))
            assert multiplier_ideal(unit).ideal == unit


class TestErrors:
    def test_rings_without_canonical_point_are_refused(self):
        ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
        i = monomial_ideal(ring, (ring.dual_rays[0],))
        with pytest.raises(NotQGorenstein):
            multiplier_ideal(i)
        with pytest.raises(NotQGorenstein):
            multiplier_membership(i, ring.dual_rays[0])

    def test_zero_ideal_is_refused(self, ring):
        with pytest.raises(ZeroIdeal):
            multiplier_ideal(monomial_ideal(ring, ()))
