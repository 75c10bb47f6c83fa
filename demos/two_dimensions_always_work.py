"""Subadditivity in dimension 2, tested the empirical way.

In two dimensions the containment J(ab) <= J(a)J(b) is a theorem, and it even
comes with an effective proof: every generator of J(ab) splits off a generator
of a or of b whose removal lands back inside a multiplier region. This script
hammers the claim with seeded random rings and ideals, then slows down on one
instance and prints the actual decompositions.
"""

import random

from toricmult import (
    Side,
    check_subadditivity,
    decompose_2d,
    monomial_ideal,
    multiplier_ideal,
    product,
    ring_from_dual_rays,
    semigroup_points,
)
from toricmult.problemio import format_point, render_monomial

TRIALS = 60


def random_ring(rng):
    while True:
        r1 = (rng.randint(0, 7), rng.randint(-7, 7))
        r2 = (rng.randint(0, 7), rng.randint(-7, 7))
        if r1[0] * r2[1] - r1[1] * r2[0] != 0:
            return ring_from_dual_rays((r1, r2))


def random_ideal(rng, ring):
    points = [p for p in semigroup_points(ring, 25) if any(p)]
    gens = rng.sample(points, k=min(len(points), rng.randint(1, 4)))
    return monomial_ideal(ring, gens)


def main():
    rng = random.Random(7)
    print(f"Checking {TRIALS} random 2D instances...")
    for n in range(1, TRIALS + 1):
        ring = random_ring(rng)
        a = random_ideal(rng, ring)
        b = random_ideal(rng, ring)
        verdict = check_subadditivity(a, b)
        assert verdict.holds, (ring.dual_rays, a.gens, b.gens)
        if n % 20 == 0:
            print(f"  {n} instances, subadditivity held every time")
    print("No surprises. Now one instance in slow motion.")
    print()

    ring = ring_from_dual_rays(((2, 1), (1, 2)))
    a = monomial_ideal(ring, ((2, 4), (5, 3), (1, 2)))
    b = monomial_ideal(ring, ((12, 7), (3, 6)))
    u0 = ring.canonical_shift()
    print("ring dual rays:", ", ".join(map(format_point, ring.dual_rays)))
    print("a =", "<" + ", ".join(map(render_monomial, a.gens)) + ">")
    print("b =", "<" + ", ".join(map(render_monomial, b.gens)) + ">")
    print("u0 =", format_point(u0))
    print()

    j_ab = multiplier_ideal(product(a, b))
    print("Every generator g of J(ab), split as g = w + (g - w), where w is a")
    print("generator of a or b and (g - w) + u0 stays interior to the other")
    print("Newton polyhedron:")
    for g in j_ab.gens:
        d = decompose_2d(g, a, b)
        side = "a" if d.side is Side.FROM_A else "b"
        print(
            f"  {render_monomial(g):>8} = {render_monomial(d.witness)} (gen of {side})"
            f" + remainder {format_point(d.remainder)} - u0"
        )
        assert d.remainder_check.contained
    print()
    print("Each remainder check above is an exact facet-by-facet verification,")
    print("so the run doubles as a machine-checked proof for this instance.")


if __name__ == "__main__":
    main()
