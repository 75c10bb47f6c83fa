"""Identities that theorems say the package must satisfy on every input in their scope.

A second implementation of a formula shares the reading of the formula; a
theorem does not, so each identity here checks the library with no oracle.
Each comes with its citation, its scope, and a mutation of the library that
it catches.

- Lipman's product theorem (J. Lipman, Rational singularities, with
  applications to algebraic surfaces and unique factorization, Publ. Math.
  IHÉS 36 (1969), Theorem 7.2): on a two-dimensional rational singularity, a
  product of integrally closed ideals is integrally closed. Every toric
  surface singularity is rational, so closure(ā·b̄) = ā·b̄ for monomial ideals
  a, b on every plane ring. It fails in dimension 3, where the product of
  two closed ideals need not be closed, so it is checked on surfaces only.
  Scope: seeded pairs over the pool's surfaces and 40 random plane rings.
  Mutation caught: an integral closure that drops its last generator.
- Subadditivity on smooth varieties (J.-P. Demailly, L. Ein, R. Lazarsfeld,
  A subadditivity property of multiplier ideals, Michigan Math. J. 48 (2000),
  main theorem): J(ab) ⊆ J(a)·J(b). It fails on singular toric rings, which is
  the paper's point, so it is checked on 𝔸² and 𝔸³ only. Scope: 30 seeded
  pairs on each. Mutation caught: multiplier_ideal walking its region with
  no shift, which gives the integral closure; a seeded pair on 𝔸³ has
  closure(ab) ⊄ closure(a)·closure(b).
- Skoda's theorem (R. Lazarsfeld, Positivity in Algebraic Geometry II,
  §9.6): on a smooth variety of dimension d, J(aᵐ) = a·J(aᵐ⁻¹) for
  m ≥ d, with aᵐ the m-th power of the ideal. Scope: m = d and m = d + 1 for
  30 seeded ideals on each of 𝔸² and 𝔸³. Mutation caught: a product that
  drops its last generator.
"""

import random

from instances import pool_rings, random_2d_ring, random_ideal

from toricmult.ideals import contains_monomial, integral_closure, product
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import ring_from_dual_rays

# The affine spaces 𝔸² and 𝔸³, with the bound on each exponent of their seeded ideals.
AFFINE = ((ring_from_dual_rays(((1, 0), (0, 1))), 8), (ring_from_dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 4))


def _surface_pairs():
    """15 seeded ideal pairs on each 2D pool ring and on each of 40 random plane rings."""
    rng = random.Random(4637)
    rings = [ring for _, ring in pool_rings() if ring.dim == 2]
    rings += [random_2d_ring(rng, bound=7) for _ in range(40)]
    for ring in rings:
        for _ in range(15):
            yield tuple(random_ideal(rng, ring, max_gens=3, pairing_bound=10) for _ in range(2))


def test_lipman_a_product_of_closed_ideals_on_a_surface_is_closed():
    checked = 0
    for a, b in _surface_pairs():
        closed = product(integral_closure(a), integral_closure(b))
        assert integral_closure(closed) == closed, (a.ring.dual_rays, a.gens, b.gens)
        checked += 1
    assert checked == 15 * 43


def _affine_ideals(seed):
    """30 seeded ideals of at most 3 generators on each of 𝔸² and 𝔸³."""
    rng = random.Random(seed)
    for ring, bound in AFFINE:
        for _ in range(30):
            yield random_ideal(rng, ring, max_gens=3, pairing_bound=bound)


def test_subadditivity_on_affine_space():
    checked = 0
    for a, b in zip(_affine_ideals(5113), _affine_ideals(5114)):
        j_product = product(multiplier_ideal(a), multiplier_ideal(b))
        for w in multiplier_ideal(product(a, b)).gens:
            assert contains_monomial(j_product, w), (a.gens, b.gens, w)
        checked += 1
    assert checked == 60


def _power(a, m):
    p = a
    for _ in range(m - 1):
        p = product(p, a)
    return p


def test_skoda_on_affine_space():
    checked = 0
    for a in _affine_ideals(5115):
        d = a.ring.dim
        for m in (d, d + 1):
            assert multiplier_ideal(_power(a, m)) == product(a, multiplier_ideal(_power(a, m - 1))), (a.gens, m)
            checked += 1
    assert checked == 120
