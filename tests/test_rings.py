"""Toric rings: dual cones, canonical points, and lattice enumeration."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from instances import (
    NOT_Q_GORENSTEIN_DUAL_RAYS,
    POOL,
    pool_rings,
    random_2d_ring,
    random_3d_ring,
    random_non_simplicial_rings,
)
from oracles import box_points, det, dot, q_gorenstein, sigma_box_walk

import toricmult
from toricmult.errors import (
    DimensionMismatch,
    NotFullDimensional,
    NotInSemigroup,
    NotPointed,
    NotQGorenstein,
    TooLarge,
)
from toricmult.geometry import PolyCone
from toricmult.linalg import hermite_normal_form
from toricmult.rings import (
    lattice_points_in_box,
    ring_from_dual_rays,
    exponent_pairings,
    run_points,
    semigroup_points,
)


@pytest.mark.parametrize("name,dual,sigma,u0", POOL, ids=[row[0] for row in POOL])
def test_pool_canonical_points(name, dual, sigma, u0):
    ring = ring_from_dual_rays(dual)
    assert ring.sigma_rays == sigma
    assert ring.canonical_shift() == tuple(Fraction(c) for c in u0)


def test_ring_identity_ignores_ray_order_and_scaling():
    assert ring_from_dual_rays(((0, 1), (1, 0))) == ring_from_dual_rays(((3, 0), (0, 5)))
    assert ring_from_dual_rays(((4, 2), (1, 2))) == ring_from_dual_rays(((2, 1), (1, 2)))


def test_mixed_ray_dimensions_are_rejected():
    with pytest.raises(DimensionMismatch):
        ring_from_dual_rays(((1, 0), (0, 1, 1)))


def test_low_dimensional_dual_cone_is_rejected():
    with pytest.raises(NotFullDimensional):
        ring_from_dual_rays(((1, 2, 0), (2, 1, 0)))


def _random_4d_simplicial_ring(rng):
    while True:
        rays = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4)]
        if 0 < abs(det(rays)) <= 8:
            return ring_from_dual_rays(rays)


def _cone_over_points(rng, dim):
    """The ring whose sigma is the cone over random points (x, h + <c, x>), one height h in
    1..3 and one shear c: Q-Gorenstein of index h when its extreme rays are primitive."""
    while True:
        h, c = rng.randint(1, 3), [rng.randint(-1, 1) for _ in range(dim - 1)]
        xs = [[rng.randint(-2, 2) for _ in range(dim - 1)] for _ in range(rng.randint(dim + 1, dim + 3))]
        try:
            sigma = PolyCone.from_rays([(*x, h + dot(c, x)) for x in xs])
        except (NotFullDimensional, NotPointed):
            continue
        return ring_from_dual_rays(sigma.facet_normals)


def _seeded_rings():
    """The pool, the inconsistent cone, and seeded 2D, 3D and 4D cones: simplicial ones on
    random rays, non-simplicial ones on random rays (mostly not Q-Gorenstein) and cones
    over points at one height."""
    rng = random.Random(34)
    rings = [ring for _, ring in pool_rings()] + [ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)]
    rings += [random_2d_ring(rng) for _ in range(12)] + [random_3d_ring(rng) for _ in range(8)]
    rings += [_random_4d_simplicial_ring(rng) for _ in range(6)]
    rings += random_non_simplicial_rings(3, 3, (4, 6), 6) + random_non_simplicial_rings(4, 4, (5, 7), 4)
    return rings + [_cone_over_points(rng, dim) for dim in (3, 4) for _ in range(6)]


class TestCanonicalData:
    def test_the_kernel_route_agrees_with_a_basis_solve(self):
        """ring.q_gorenstein against the oracle that solves <u0, n> = 1 on a basis of sigma
        rays and checks the rest, on rings of every shape on both sides of Q-Gorenstein."""
        rings = _seeded_rings()
        for ring in rings:
            assert ring.q_gorenstein == q_gorenstein(ring.sigma_rays), ring.dual_rays
        shapes = {(ring.dim, len(ring.sigma_rays) > ring.dim, ring.q_gorenstein is not None) for ring in rings}
        simplicial = {(d, False, True) for d in (2, 3, 4)}
        assert shapes == simplicial | set(itertools.product((3, 4), (True,), (True, False)))
        assert {ring.q_gorenstein[1] for ring in rings if ring.q_gorenstein} >= {1, 2, 3}

    def test_gorenstein_rings_expose_an_integral_point(self):
        orthant = ring_from_dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert orthant.gorenstein_point() == (1, 1, 1)
        square = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))
        assert square.gorenstein_point() == (0, 0, 1)

    def test_index_three_ring_is_q_gorenstein_only(self):
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        assert ring.gorenstein_point() is None
        assert ring.q_gorenstein == ((2, 3), 3)
        assert ring.canonical_shift() == (Fraction(2, 3), Fraction(1))

    def test_canonical_point_pairs_to_one_on_every_sigma_ray(self):
        for _, ring in pool_rings():
            u0 = ring.canonical_shift()
            assert all(
                sum(a * b for a, b in zip(u0, n)) == 1 for n in ring.sigma_rays
            )

    def test_inconsistent_facet_system_has_no_canonical_point(self):
        ring = ring_from_dual_rays(NOT_Q_GORENSTEIN_DUAL_RAYS)
        with pytest.raises(NotQGorenstein, match="ring has no canonical point"):
            ring.canonical_shift()
        assert ring.q_gorenstein is None
        assert ring.gorenstein_point() is None


class TestSemigroupMembership:
    def test_interior_and_boundary_points(self):
        ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
        assert exponent_pairings(ring, (1, 1, 0))[0] == (1, 1, 0)
        assert exponent_pairings(ring, (2, 1, 0))[0] == (2, 1, 0)
        with pytest.raises(NotInSemigroup):
            exponent_pairings(ring, (1, 0, 0))

    def test_exponent_pairings_names_the_violated_ray(self):
        ring = toricmult.ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
        p, t = toricmult.exponent_pairings(ring, [1, 1, 0])
        assert p == (1, 1, 0) and t == ring.pairings(p)
        with pytest.raises(NotInSemigroup, match=r"\(1, 0, 0\) pairs -1 with sigma ray \(-1, 2, 0\)"):
            toricmult.exponent_pairings(ring, (1, 0, 0))
        with pytest.raises(DimensionMismatch, match="point of dimension 2 in ring of dimension 3"):
            toricmult.exponent_pairings(ring, (1, 1))


class TestEnumeration:
    def test_a_run_past_sys_maxsize_refuses(self):
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        with pytest.raises(TooLarge, match="too long to enumerate"):
            next(run_points(ring, [((0, 0), (0, 0), sys.maxsize + 1)]))

    def test_box_walk_matches_the_parallelepiped_scan(self):
        for _, ring in pool_rings():
            bounds = tuple(5 for _ in ring.sigma_rays)
            walked = sorted(w for w, _ in lattice_points_in_box(ring, bounds))
            scanned = sorted(box_points(ring.sigma_rays, bounds))
            assert walked == scanned

    def test_simplicial_walk_matches_the_filtered_box_walk_in_order(self):
        for _, ring in pool_rings():
            if len(ring.sigma_rays) == ring.dim:
                bounds = tuple(4 + i for i in range(ring.dim))
                assert list(lattice_points_in_box(ring, bounds)) == sigma_box_walk(ring.sigma_rays, bounds)

    def test_random_plane_rings_walk_in_box_order(self):
        rng = random.Random(17)
        dets = set()
        for _ in range(300):
            ring = random_2d_ring(rng, bound=7)
            dets.add(abs(det(ring.sigma_rays)))
            bounds = (rng.randint(0, 14), rng.randint(0, 14))
            assert list(lattice_points_in_box(ring, bounds)) == sigma_box_walk(ring.sigma_rays, bounds)
        assert max(dets) >= 40

    def test_random_simplicial_solid_rings_walk_in_box_order(self):
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
            if det(rays) == 0:
                continue
            ring = ring_from_dual_rays(rays)
            bounds = tuple(rng.randint(0, 6) for _ in range(3))
            assert list(lattice_points_in_box(ring, bounds)) == sigma_box_walk(ring.sigma_rays, bounds)
            checked += 1

    def test_non_simplicial_walk_is_in_primal_lex_order(self):
        square = ring_from_dual_rays(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))
        bounds = (5, 3, 6, 4)
        walked = list(lattice_points_in_box(square, bounds))
        assert [w for w, _ in walked] == box_points(square.sigma_rays, bounds)
        assert all(t == square.pairings(w) for w, t in walked)

    def test_random_non_simplicial_cones_walk_in_primal_lex_order(self):
        rng = random.Random(23)
        checked = 0
        while checked < 25:
            rays = [
                (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(4, 6))
            ]
            try:
                ring = ring_from_dual_rays(rays)
            except NotFullDimensional:
                continue
            if len(ring.sigma_rays) == ring.dim:
                continue
            bounds = tuple(rng.randint(0, 6) for _ in ring.sigma_rays)
            walked = list(lattice_points_in_box(ring, bounds))
            assert [w for w, _ in walked] == box_points(ring.sigma_rays, bounds)
            assert all(t == ring.pairings(w) for w, t in walked)
            checked += 1

    def test_box_walk_reports_its_pairings(self):
        ring = ring_from_dual_rays(((2, 1), (1, 2)))
        for w, pairings in lattice_points_in_box(ring, (6, 6)):
            assert pairings == ring.pairings(w)
            assert all(0 <= t <= 6 for t in pairings)

    def test_orthant_box_is_a_plain_grid(self):
        # bounds follow the sorted sigma rays ((0,1), (1,0)): y first, then x
        ring = ring_from_dual_rays(((1, 0), (0, 1)))
        walked = sorted(w for w, _ in lattice_points_in_box(ring, (3, 2)))
        assert walked == sorted(itertools.product(range(3), range(4)))

    def test_semigroup_points_monotone_in_bound(self):
        rng = random.Random(3)
        for _, ring in pool_rings():
            small = set(semigroup_points(ring, 4))
            large = set(semigroup_points(ring, 7))
            assert small <= large
            assert (0,) * ring.dim in small
            w = rng.choice(sorted(large))
            assert all(0 <= t <= 7 for t in ring.pairings(w))


class TestHermiteNormalForm:
    @staticmethod
    def check(mat):
        hnf, uni = hermite_normal_form(mat)
        n = len(mat)
        assert tuple(
            tuple(sum(mat[i][k] * uni[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        ) == hnf
        for i in range(n):
            assert hnf[i][i] > 0
            assert all(0 <= hnf[i][j] < hnf[i][i] for j in range(i))
            assert all(hnf[i][j] == 0 for j in range(i + 1, n))
        assert math.prod(hnf[i][i] for i in range(n)) == abs(det(mat))
        assert abs(det(uni)) == 1

    def test_pool_sigma_bases(self):
        for _, ring in pool_rings():
            for basis in itertools.combinations(ring.sigma_rays, ring.dim):
                if det(basis) != 0:
                    self.check(basis)

    def test_random_nonsingular_matrices(self):
        rng = random.Random(29)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 4)
            mat = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            if det(mat) != 0:
                self.check(mat)
                checked += 1

    def test_a_2x2_matrix_has_the_blocks_of_the_3x3_column_loop(self):
        """A 2x2 matrix M takes H and U off one extended gcd; diag(M, 1) takes the column
        loop, and its H and U are diag(H, 1) and diag(U, 1), as both are unique."""
        rng = random.Random(4631)
        checked = 0
        while checked < 6000:
            bound = rng.choice((1, 3, 250))
            mat = tuple(tuple(rng.choice((0, rng.randint(-bound, bound))) for _ in range(2)) for _ in range(2))
            if det(mat) == 0:
                continue
            hnf, uni = hermite_normal_form(mat)
            big_hnf, big_uni = hermite_normal_form((mat[0] + (0,), mat[1] + (0,), (0, 0, 1)))
            assert (big_hnf, big_uni) == ((*(r + (0,) for r in hnf), (0, 0, 1)), (*(r + (0,) for r in uni), (0, 0, 1))), mat
            checked += 1

    @pytest.mark.parametrize("mat", [((1, 2), (2, 4)), ((0, 0), (1, 1)), ((0, 1), (0, 2)), ((0, 0), (0, 0)), ((3, -6), (1, -2))])
    def test_singular_matrix_is_refused(self, mat):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            hermite_normal_form(mat)
        with pytest.raises(ValueError, match="^matrix is singular$"):
            hermite_normal_form((mat[0] + (0,), mat[1] + (0,), (0, 0, 1)))
