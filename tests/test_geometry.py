"""Exact polyhedral geometry: double description vs. Fourier-Motzkin."""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import dot, hull_region, shifted_thresholds, sigma_rays_2d, vadd
from instances import POOL, pool_rings, random_2d_dual_rays, random_ideal

from toricmult.builtin_example import CERTIFICATE_COEFFICIENTS, CERTIFICATE_POINTS, TARGET, instance
from toricmult.errors import (
    DimensionMismatch,
    NotFullDimensional,
    NotInterior,
    NotPointed,
)
from toricmult.geometry import (
    ConvexCertificate,
    PolyCone,
    affinely_independent,
    as_rat_point,
    hull_plus_cone,
    lattice_thresholds,
    membership,
    relint_certificate,
    verify_certificate,
)
from toricmult.ideals import monomial_ideal, newton_polyhedron, product
from toricmult.rings import ring_from_dual_rays


def facet_pairs(poly):
    return tuple((h.normal, h.offset) for h in poly.facets)


@pytest.fixture(scope="module")
def counterexample_ring():
    return ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))


class TestPolyCone:
    def test_rays_are_canonicalized(self):
        c = PolyCone.from_rays(((4, 2), (1, 2), (2, 4)))
        assert c.rays == ((1, 2), (2, 1))

    def test_dual_involution_on_pool(self):
        # double description run on the facet normals gives back the rays
        for _, ring in pool_rings():
            cone = ring.cone
            assert PolyCone.from_rays(cone.facet_normals).facet_normals == cone.rays

    def test_dual_of_plane_cusp_cone(self):
        c = PolyCone.from_rays(((2, 1), (1, 2)))
        dual = PolyCone.from_rays(c.facet_normals)
        assert dual.rays == ((-1, 2), (2, -1))
        assert dual.facet_normals == c.rays
        assert c.facet_normals == ((-1, 2), (2, -1))

    def test_degenerate_cones_are_refused(self):
        with pytest.raises(NotFullDimensional):
            PolyCone.from_rays(((1, 0), (2, 0)))
        with pytest.raises(NotPointed):
            PolyCone.from_rays(((1, 0), (-1, 0), (0, 1)))


class TestNewtonPolyhedron:
    """The three §-anchor-free frozen facet systems and random cross-checks."""

    def test_counterexample_facets_a(self, counterexample_ring):
        a = monomial_ideal(counterexample_ring, ((2, 4, 0), (10, 6, 2)))
        assert facet_pairs(newton_polyhedron(a)) == (
            ((-1, 2, 0), 2),
            ((-1, 2, 2), 6),
            ((-1, 4, 0), 14),
            ((0, 0, 1), 0),
            ((2, -1, 0), 0),
        )

    def test_counterexample_facets_b(self, counterexample_ring):
        b = monomial_ideal(counterexample_ring, ((12, 7, 0), (10, 6, 2)))
        assert facet_pairs(newton_polyhedron(b)) == (
            ((-1, 2, 0), 2),
            ((0, 0, 1), 0),
            ((2, -1, 0), 14),
            ((4, -2, 3), 34),
        )

    def test_counterexample_facets_product(self, counterexample_ring):
        a = monomial_ideal(counterexample_ring, ((2, 4, 0), (10, 6, 2)))
        b = monomial_ideal(counterexample_ring, ((12, 7, 0), (10, 6, 2)))
        assert facet_pairs(newton_polyhedron(product(a, b))) == (
            ((-3, 10, 2), 68),
            ((-1, 2, 0), 4),
            ((-1, 2, 2), 8),
            ((-1, 4, 0), 28),
            ((0, 0, 1), 0),
            ((2, -1, 0), 14),
            ((4, -2, 3), 34),
        )

    def test_unit_ideal_newton_is_the_dual_cone(self, counterexample_ring):
        unit = monomial_ideal(counterexample_ring, ((0, 0, 0),))
        assert facet_pairs(newton_polyhedron(unit)) == (
            ((-1, 2, 0), 0),
            ((0, 0, 1), 0),
            ((2, -1, 0), 0),
        )

    def test_vertices_are_the_non_redundant_generators(self, counterexample_ring):
        gens = ((2, 4, 0), (10, 6, 2), (6, 5, 1))  # midpoint of the others
        poly = hull_plus_cone(gens, counterexample_ring.cone)
        assert poly.vertices == ((2, 4, 0), (10, 6, 2))

    def test_membership_agrees_with_fourier_motzkin_on_pool(self):
        rng = random.Random(20260816)
        for _, ring in pool_rings():
            for _ in range(4):
                gens = _sample_gens(rng, ring)
                poly = hull_plus_cone(gens, ring.cone)
                fm = hull_region(gens, ring.dual_rays)
                for w in _sample_box(rng, gens, ring.dim):
                    assert membership(poly, w).contained == fm.contains(w)
                    assert (
                        membership(poly, w, relative_interior=True).contained
                        == fm.contains(w, strict=True)
                    )

    def test_lattice_thresholds_agree_with_membership_on_pool(self):
        # shift None tests w itself; the origin tests the interior; u0 tests
        # w + u0 against the interior, fractionally on the index-three ring
        rng = random.Random(6150)
        for _, ring in pool_rings():
            u0 = ring.canonical_shift()
            for _ in range(4):
                poly = hull_plus_cone(_sample_gens(rng, ring), ring.cone)
                closed = lattice_thresholds(poly)
                inside = lattice_thresholds(poly, (0,) * ring.dim)
                shifted = lattice_thresholds(poly, u0)
                assert all(type(m) is int for _, m in closed + inside + shifted)
                for w in _sample_box(rng, poly.vertices, ring.dim):
                    assert all(dot(w, f) >= m for f, m in closed) == membership(poly, w).contained
                    assert all(dot(w, f) >= m for f, m in inside) == membership(poly, w, True).contained
                    w_u0 = tuple(c + u for c, u in zip(w, u0))
                    assert all(dot(w, f) >= m for f, m in shifted) == membership(poly, w_u0, True).contained

    def test_integer_thresholds_equal_the_fraction_formula(self):
        # u0 on every pool ring (fractional on index-three-2d), then random
        # shifts: negative, integral, and over unreduced or mixed denominators
        rng = random.Random(6151)
        negative_fractional = 0
        for name, ring in pool_rings():
            u0 = ring.canonical_shift()
            for _ in range(6):
                poly = newton_polyhedron(random_ideal(rng, ring, 3, 8))
                assert lattice_thresholds(poly, u0) == shifted_thresholds(poly, u0), name
                for _ in range(8):
                    shift = [
                        rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-40, 40), rng.randint(1, 12))))
                        for _ in range(ring.dim)
                    ]
                    got = lattice_thresholds(poly, shift)
                    assert got == shifted_thresholds(poly, shift), (name, shift)
                    assert all(type(m) is int for _, m in got)
                    negative_fractional += any(c < 0 and c.denominator > 1 for c in shift)
        assert negative_fractional > 0

    def test_membership_agrees_with_fourier_motzkin_in_2d(self):
        rng = random.Random(7)
        for _ in range(20):
            rays = random_2d_dual_rays(rng)
            ring = ring_from_dual_rays(rays)
            gens = _sample_gens(rng, ring)
            poly = hull_plus_cone(gens, ring.cone)
            fm = hull_region(gens, rays)
            for w in _sample_box(rng, gens, 2):
                assert membership(poly, w).contained == fm.contains(w)

    def test_facets_are_valid_and_recede_along_dual_rays(self):
        rng = random.Random(99)
        for _, ring in pool_rings():
            gens = _sample_gens(rng, ring)
            poly = hull_plus_cone(gens, ring.cone)
            for h in poly.facets:
                assert type(h.offset) is int
                assert all(dot(h.normal, g) >= h.offset for g in gens)
                assert all(dot(h.normal, r) >= 0 for r in ring.dual_rays)

    def test_dimension_mismatch_is_rejected(self, counterexample_ring):
        poly = newton_polyhedron(monomial_ideal(counterexample_ring, ((2, 4, 0),)))
        with pytest.raises(DimensionMismatch):
            membership(poly, (1, 2))

    def test_hull_plus_cone_refuses_no_points_and_points_of_another_dimension(self, counterexample_ring):
        with pytest.raises(ValueError, match="at least one point"):
            hull_plus_cone([], counterexample_ring.cone)
        with pytest.raises(DimensionMismatch):
            hull_plus_cone([(2, 4, 0), (1, 2)], counterexample_ring.cone)


class TestMembershipReport:
    def test_tight_facet_is_named(self, counterexample_ring):
        a = monomial_ideal(counterexample_ring, ((2, 4, 0), (10, 6, 2)))
        report = membership(newton_polyhedron(a), (8, 6, 1), relative_interior=True)
        assert not report.contained
        assert not report.violated
        assert [(h.normal, h.offset) for h in report.tight] == [((-1, 2, 2), 6)]

    def test_violated_facet_carries_the_exact_value(self, counterexample_ring):
        b = monomial_ideal(counterexample_ring, ((12, 7, 0), (10, 6, 2)))
        report = membership(newton_polyhedron(b), (11, 7, 1), relative_interior=True)
        assert not report.contained
        assert ((4, -2, 3), 34) in [(h.normal, h.offset) for h in report.violated]
        values = {(h.normal): v for h, v in report.pairings}
        assert values[(4, -2, 3)] == 33 and type(values[(4, -2, 3)]) is int

    def test_closed_membership_tolerates_tight_facets(self, counterexample_ring):
        a = monomial_ideal(counterexample_ring, ((2, 4, 0), (10, 6, 2)))
        report = membership(newton_polyhedron(a), (8, 6, 1))
        assert report.contained and not report.strict

    def test_reports_equal_the_fraction_pairing_report(self):
        """Fraction-free membership reports the pairings that summing <normal,
        x> gives, in value and type: ints for a lattice point, Fractions once
        an entry is a Fraction, denominator 1 or mixed with ints included."""
        rng = random.Random(3401)
        kinds = set()
        for _, ring in pool_rings():
            u0 = ring.canonical_shift() if ring.q_gorenstein else None
            for _ in range(3):
                poly = hull_plus_cone(_sample_gens(rng, ring), ring.cone)
                for w in _sample_box(rng, poly.vertices, ring.dim, count=40):
                    halves = tuple(Fraction(c, rng.choice((1, 2, 3))) for c in w)
                    mixed = tuple(Fraction(c) if i % 2 else c for i, c in enumerate(w))
                    points = [w, tuple(map(Fraction, w)), halves, mixed]
                    if u0 is not None:
                        points.append(tuple(c + u for c, u in zip(w, u0)))
                    for x in points:
                        for strict in (False, True):
                            report = membership(poly, x, strict)
                            expected = oracles.dot_membership(poly, x, strict)
                            assert report == expected, x
                            assert [type(v) for _, v in report.pairings] == [type(v) for _, v in expected.pairings]
                            kinds.add((type(report.pairings[0][1]), report.contained))
        assert kinds == {(t, c) for t in (int, Fraction) for c in (False, True)}


class TestCertificates:
    def test_round_trip_on_interior_lattice_points(self):
        rng = random.Random(5)
        for _, ring in pool_rings():
            gens = _sample_gens(rng, ring)
            poly = hull_plus_cone(gens, ring.cone)
            fm = hull_region(gens, ring.dual_rays)
            interior = [w for w in _sample_box(rng, gens, ring.dim) if fm.contains(w, strict=True)]
            for w in interior[:10]:
                cert = relint_certificate(poly, w)
                assert verify_certificate(poly, w, cert)
                assert sum(cert.coefficients) == 1
                assert all(c > 0 for c in cert.coefficients)
                assert affinely_independent(cert.points)

    def test_round_trip_on_interior_rational_points(self):
        """Lattice points moved by u0 (fractional on the index-three ring) and by
        (1/2, 1/3, ...): the points the multiplier ideal tests are rational."""
        rng = random.Random(11)
        for name, ring in pool_rings():
            gens = _sample_gens(rng, ring)
            poly = hull_plus_cone(gens, ring.cone)
            fm = hull_region(gens, ring.dual_rays)
            shifts = (ring.canonical_shift(), tuple(Fraction(1, i + 2) for i in range(ring.dim)))
            moved = [vadd(w, s) for w in _sample_box(rng, gens, ring.dim) for s in shifts]
            interior = [x for x in moved if fm.contains(x, strict=True)]
            assert any(not all(c.denominator == 1 for c in x) for x in interior), name
            for x in interior[:10]:
                cert = relint_certificate(poly, x)
                assert verify_certificate(poly, x, cert)
                assert all(c > 0 for c in cert.coefficients)

    def test_boundary_and_exterior_points_are_refused(self):
        """A vertex, a rational point inside a facet, and lattice and rational points outside."""
        ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
        a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
        poly = newton_polyhedron(a)
        on_facet = tuple(Fraction(p + q, 2) for p, q in zip((2, 4, 0), (10, 6, 2)))
        assert membership(poly, on_facet).contained and membership(poly, on_facet, relative_interior=True).tight
        for x in ((2, 4, 0), on_facet, (0, 0, 0), (Fraction(1, 2), Fraction(1, 3), 0)):
            with pytest.raises(NotInterior):
                relint_certificate(poly, x)

    def test_tampered_certificate_fails_verification(self):
        """A coefficient moved between two points keeps the sum at 1 but moves the
        combination off x; a coefficient changed alone breaks the sum."""
        ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
        a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
        poly = newton_polyhedron(a)
        for x in ((8, 6, 2), (Fraction(17, 2), 6, Fraction(7, 3))):
            cert = relint_certificate(poly, x)
            c = cert.coefficients
            eps = c[0] / 2
            for coefficients in ((c[0] + eps, c[1] - eps, *c[2:]), (c[0] + eps, *c[1:])):
                assert not verify_certificate(poly, x, type(cert)(cert.points, coefficients))
            assert not verify_certificate(poly, vadd(x, (1, 0, 0)), cert)

    @pytest.mark.parametrize(
        "points,coefficients",
        [
            # three points, one short of dim + 1
            (CERTIFICATE_POINTS[:3], CERTIFICATE_COEFFICIENTS[:3]),
            # the last point moved to the midpoint of the first two, inside N(ab)
            (CERTIFICATE_POINTS[:3] + ((16, 12, 0),), CERTIFICATE_COEFFICIENTS),
            # the first point moved below the facet z >= 0
            (((14, 11, -1),) + CERTIFICATE_POINTS[1:], CERTIFICATE_COEFFICIENTS),
        ],
        ids=["too-few-points", "affinely-dependent", "point-outside"],
    )
    def test_the_papers_certificate_mutated_is_refused(self, points, coefficients):
        """The packaged certificate of TARGET in N(ab) holds; each mutation breaks one condition."""
        _, a, b = instance()
        poly = newton_polyhedron(product(a, b))
        assert verify_certificate(poly, TARGET, ConvexCertificate(CERTIFICATE_POINTS, CERTIFICATE_COEFFICIENTS))
        assert not verify_certificate(poly, TARGET, ConvexCertificate(points, coefficients))


class TestTwoDimensionalDuals:
    """The rotation trick must agree with the library's dual-cone rays."""

    def test_sigma_rays_match_rotation_construction(self):
        rng = random.Random(1)
        for _ in range(40):
            rays = random_2d_dual_rays(rng)
            ring = ring_from_dual_rays(rays)
            assert tuple(sorted(ring.sigma_rays)) == sigma_rays_2d(*rays)


def test_affinely_independent():
    assert affinely_independent([(0, 0), (1, 0), (0, 1)])
    assert not affinely_independent([(0, 0), (1, 1), (2, 2)])
    assert affinely_independent([(3, 7)])
    with pytest.raises(ValueError, match="no points"):
        affinely_independent([])


def test_as_rat_point_refuses_the_empty_point():
    assert as_rat_point((1, Fraction(1, 2))) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError, match="empty point"):
        as_rat_point(())


def _sample_gens(rng, ring, count=3, bound=12):
    from toricmult.rings import semigroup_points

    candidates = [w for w in semigroup_points(ring, bound) if any(w)]
    return tuple(rng.sample(candidates, min(count, len(candidates))))


def _sample_box(rng, gens, dim, margin=3, count=120):
    lo = [min(g[i] for g in gens) - margin for i in range(dim)]
    hi = [max(g[i] for g in gens) + margin for i in range(dim)]
    points = [
        tuple(rng.randint(lo[i], hi[i]) for i in range(dim))
        for _ in range(count)
    ]
    return points


# POOL's frozen sigma rays double as a regression anchor for the DD engine.
@pytest.mark.parametrize("name,dual,sigma,_u0", POOL, ids=[row[0] for row in POOL])
def test_pool_sigma_rays_are_as_hand_computed(name, dual, sigma, _u0):
    assert ring_from_dual_rays(dual).sigma_rays == sigma
