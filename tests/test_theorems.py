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
"""

import random

from instances import pool_rings, random_2d_ring, random_ideal

from toricmult.ideals import integral_closure, product


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
