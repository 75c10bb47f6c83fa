"""Multiplier ideals via the shifted-interior formula, against a grid oracle."""

import random
from fractions import Fraction

import pytest

from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, pool_rings, principal_check_rings, random_2d_ring, random_ideal
from oracles import FMRegion, box_points, dot, hull_region, minimal_points, multiplier_scan

from toricmult.errors import NotQGorenstein, ZeroIdeal
from toricmult.ideals import (
    contains_monomial,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    product,
    region_minimal_generators,
)
from toricmult.multiplier import multiplier_ideal, multiplier_membership
from toricmult.rings import ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import check_subadditivity, exhaustive_refute


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
        assert a.ring.canonical_shift() == (1, 1, 1)
        assert multiplier_ideal(a).gens == ((2, 4, 0), (3, 4, 0), (4, 4, 0), (7, 5, 1), (8, 5, 1))

    def test_multiplier_of_b(self, pair):
        _, b = pair
        assert multiplier_ideal(b).gens == ((10, 6, 1), (11, 7, 0), (12, 7, 0))

    def test_multiplier_of_the_product(self, pair):
        a, b = pair
        gens = multiplier_ideal(product(a, b)).gens
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
                assert multiplier_ideal(i).gens == expected

    def test_random_2d_rings(self):
        rng = random.Random(17)
        for _ in range(15):
            ring = random_2d_ring(rng, bound=5)
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=10)
            expected = multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, ring.canonical_shift())
            assert multiplier_ideal(i).gens == expected

    def test_fractional_canonical_point(self):
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        assert ring.canonical_shift() == (Fraction(2, 3), Fraction(1))
        i = monomial_ideal(ring, ((2, 0), (2, 6)))
        expected = multiplier_scan(i.gens, ring.dual_rays, ring.sigma_rays, ring.canonical_shift())
        assert multiplier_ideal(i).gens == expected
        # w = (1, 0): w + u0 = (5/3, 1) falls short of the facet <(1, 0), v> >= 2
        report = multiplier_membership(i, (1, 0))
        values = {h.normal: v for h, v in report.pairings}
        assert values == {(0, 1): 1, (1, 0): Fraction(5, 3), (3, -1): 4}
        assert all(type(v) is Fraction for v in values.values())
        assert [(h.normal, h.offset) for h in report.violated] == [((1, 0), 2)]


def _wide_box_scan(gens, ring, shift=None):
    """Minimal generators of the closure (shift None) or multiplier region,
    scanned in a box with three times the enumeration engine's slack."""
    region = hull_region(gens, ring.dual_rays)
    bounds = [
        max(dot(g, s) for g in gens) + 3 * sum(dot(r, s) for r in ring.dual_rays)
        for s in ring.sigma_rays
    ]
    if shift is not None:
        region = FMRegion(ring.dim, region.shifted_rows(shift))
    hits = [w for w in box_points(ring.sigma_rays, bounds) if region.contains(w, strict=shift is not None)]
    return minimal_points(hits, ring.sigma_rays)


class TestEnumerationSlack:
    """The engine's box holds every minimal generator: a box three times as
    wide finds no other (the engine has no retry loop to fall back on)."""

    def test_pool_rings(self):
        rng = random.Random(9090)
        for _, ring in pool_rings():
            for _ in range(2):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=5)
                assert integral_closure(i).gens == _wide_box_scan(i.gens, ring)
                shift = ring.canonical_shift()
                assert multiplier_ideal(i).gens == _wide_box_scan(i.gens, ring, shift)

    def test_random_2d_rings(self):
        rng = random.Random(5151)
        for _ in range(20):
            ring = random_2d_ring(rng, bound=5)
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
            assert integral_closure(i).gens == _wide_box_scan(i.gens, ring)
            shift = ring.canonical_shift()
            assert multiplier_ideal(i).gens == _wide_box_scan(i.gens, ring, shift)


class TestLargeExponents:
    """J(<x^e, y^e>) on the plane is <x^i y^j : i + j = e - 1>: w + (1, 1) is
    interior to {i + j >= e} exactly when i + j >= e - 1. Its sigma box holds
    (e + 1)^2 points but only e + 1 runs, one candidate each."""

    @pytest.mark.parametrize("e", [400, 600])
    def test_closed_form(self, e):
        plane = ring_from_dual_rays(((1, 0), (0, 1)))
        j = multiplier_ideal(monomial_ideal(plane, [(e, 0), (0, e)]))
        assert j.gens == tuple((i, e - 1 - i) for i in range(e))


class TestSquareCone:
    """J(<x^e z^e, y^e z^e, x^-e z^e, y^-e z^e>) on the cone over a square, a
    non-simplicial ring whose run step (1, 0, 1) lies in the semigroup, so each
    run offers only its first member of the region."""

    @pytest.mark.parametrize("e", [3, 5])
    def test_matches_the_scan(self, e):
        square = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))
        a = monomial_ideal(square, [(e, 0, e), (0, e, e), (-e, 0, e), (0, -e, e)])
        expected = multiplier_scan(a.gens, square.dual_rays, square.sigma_rays, square.canonical_shift())
        assert multiplier_ideal(a).gens == expected
        assert len(expected) == 2 * e * e + 2 * e + 1


class TestStructuralLaws:
    def test_closure_is_contained_in_the_multiplier_ideal(self):
        # the containment runs this way around: adding u0 pushes every Newton
        # point strictly inside, since facet normals pair positively with u0
        rng = random.Random(31)
        for _, ring in pool_rings():
            for _ in range(4):
                i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
                j = multiplier_ideal(i)
                for g in integral_closure(i).gens:
                    assert contains_monomial(j, g)

    def test_multiplier_ideal_can_exceed_the_integral_closure(self):
        # J(<x^2, y^2>) = <x, y> on the plane, while the closure is <x^2, xy, y^2>:
        # multiplier ideals are NOT inside the integral closure in general.
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        i = monomial_ideal(orthant, ((2, 0), (0, 2)))
        assert multiplier_ideal(i).gens == ((0, 1), (1, 0))
        assert integral_closure(i).gens == ((0, 2), (1, 1), (2, 0))
        assert not contains_monomial(integral_closure(i), (1, 0))

    def test_multiplier_ideals_are_integrally_closed(self):
        rng = random.Random(813)
        for _, ring in pool_rings():
            i = random_ideal(rng, ring, max_gens=3, pairing_bound=8)
            j = multiplier_ideal(i)
            assert integral_closure(j) == j

    def test_monotone_in_the_ideal(self):
        rng = random.Random(47)
        for _, ring in pool_rings():
            i = random_ideal(rng, ring, max_gens=2, pairing_bound=7)
            bigger = ideal_sum(i, random_ideal(rng, ring, max_gens=2, pairing_bound=7))
            ji = multiplier_ideal(i)
            jb = multiplier_ideal(bigger)
            assert all(contains_monomial(jb, g) for g in ji.gens)

    def test_unit_ideal_is_a_fixed_point(self):
        for _, ring in pool_rings():
            unit = monomial_ideal(ring, ((0,) * ring.dim,))
            assert multiplier_ideal(unit) == unit


class TestPrincipalIdeals:
    """J(<g>) = <g>: N(<g>) = g + σ^∨, and <u0, n> = 1 on every sigma ray n, so for a
    lattice point w, <w - g + u0, n> > 0 iff <w - g, n> >= 0. multiplier_ideal returns a
    principal ideal unchanged, so the region walk it skips and the grid scan are the
    independent checks; the refusals keep their order."""

    RINGS = principal_check_rings()

    def test_principal_ideals_are_their_own_multiplier_ideals(self):
        # every nonzero semigroup point pairing at most 3 with each sigma ray is a generator
        rng = random.Random(67)
        for ring in filter(lambda ring: ring.q_gorenstein, self.RINGS):
            u0 = ring.canonical_shift()
            principals = [monomial_ideal(ring, (g,)) for g in semigroup_points(ring, 3) if any(g)]
            for principal in principals:
                assert multiplier_ideal(principal) == principal
                assert region_minimal_generators(principal, ring.canonical_pair()) == principal.gens
            for principal in rng.sample(principals, min(5, len(principals))):
                assert multiplier_scan(principal.gens, ring.dual_rays, ring.sigma_rays, u0) == principal.gens

    def test_the_refusals_come_first(self):
        refused = [ring for ring in self.RINGS if not ring.q_gorenstein]
        assert len(refused) == 4
        for ring in refused:
            with pytest.raises(NotQGorenstein):
                multiplier_ideal(monomial_ideal(ring, ring.dual_rays[:1]))
            with pytest.raises(NotQGorenstein):
                multiplier_ideal(monomial_ideal(ring, ()))
        for ring in filter(lambda ring: ring.q_gorenstein, self.RINGS):
            with pytest.raises(ZeroIdeal):
                multiplier_ideal(monomial_ideal(ring, ()))


class TestErrors:
    def test_rings_without_canonical_point_are_refused(self):
        ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
        w = ring.dual_rays[0]
        i = monomial_ideal(ring, (w,))
        refusals = [
            ring.canonical_pair,
            ring.canonical_shift,
            lambda: multiplier_ideal(i),
            lambda: multiplier_membership(i, w),
            lambda: check_subadditivity(i, i),
            lambda: exhaustive_refute(w, i, i),
        ]
        for refuse in refusals:
            with pytest.raises(NotQGorenstein) as exc:
                refuse()
            assert str(exc.value) == "ring has no canonical point; multiplier ideals are undefined"

    def test_zero_ideal_is_refused(self, ring):
        with pytest.raises(ZeroIdeal):
            multiplier_ideal(monomial_ideal(ring, ()))
        with pytest.raises(ZeroIdeal):
            multiplier_membership(monomial_ideal(ring, ()), (2, 4, 0))
