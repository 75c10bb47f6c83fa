"""Build a subadditivity counterexample from a 2D closure gap, in three acts.

Act 1 finds the raw material: two integrally closed plane ideals whose sum
has a bigger closure than the sum of their closures. Act 2 adjoins a genuine
new variable, which lifts that gap to a strict containment between products
of closures — the classical trick — while keeping everything else tame. Act 3
replaces the new variable by a deep monomial of the same ring; that one
substitution destroys the tameness and makes the multiplier ideals themselves
violate J(ab) <= J(a)J(b). A final search run re-discovers the result.
"""

from toricmult import (
    ConstructionRecipe,
    SearchConfig,
    check_subadditivity,
    contains_monomial,
    huneke_swanson_construct,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    product,
    ring_from_dual_rays,
    search_counterexamples,
)
from toricmult.problemio import format_point, render_monomial


def gens(ideal):
    return "<" + ", ".join(render_monomial(g) for g in ideal.gens) + ">"


def main():
    print("Act 1: a gap between closures in the plane")
    print("------------------------------------------")
    base = ring_from_dual_rays(((2, 1), (1, 2)))
    i_prime = monomial_ideal(base, ((2, 4),))
    j_prime = monomial_ideal(base, ((12, 7),))
    r = (8, 6)
    print("base ring: K[x^2y, xy, xy^2]; I' =", gens(i_prime), " J' =", gens(j_prime))
    print("both principal, hence integrally closed:",
          integral_closure(i_prime) == i_prime and integral_closure(j_prime) == j_prime)
    in_sum_closure = contains_monomial(integral_closure(ideal_sum(i_prime, j_prime)), r)
    in_closure_sum = contains_monomial(
        ideal_sum(integral_closure(i_prime), integral_closure(j_prime)), r
    )
    print(f"x^8y^6 in closure(I' + J')? {'yes' if in_sum_closure else 'no'};"
          f" in closure(I') + closure(J')? {'yes' if in_closure_sum else 'no'}")
    print()

    print("Act 2: lift with an honest new variable")
    print("---------------------------------------")
    honest = huneke_swanson_construct(
        ConstructionRecipe(base, i_prime, j_prime, r, (0, 0, 1))
    )
    print("extended ring dual rays:", ", ".join(map(format_point, honest.ring.dual_rays)))
    print("a = (z) + I' =", gens(honest.a), "   b = (z) + J' =", gens(honest.b))
    print("a, b integrally closed:",
          honest.a_integrally_closed and honest.b_integrally_closed)
    rz = honest.r_z
    print(f"rZ = {render_monomial(rz)}:"
          f" in closure(ab)? {contains_monomial(integral_closure(product(honest.a, honest.b)), rz)};"
          f" in closure(a)closure(b)? {honest.rz_in_product_of_closures}")
    print("so closure(a)closure(b) is strictly smaller than closure(ab) --")
    print("yet the multiplier ideals still behave:",
          "subadditivity holds" if check_subadditivity(honest.a, honest.b).holds else "violated")
    print()

    print("Act 3: substitute a deep monomial for the variable")
    print("--------------------------------------------------")
    sneaky_recipe = ConstructionRecipe(base, i_prime, j_prime, r, (10, 6, 2))
    sneaky = huneke_swanson_construct(sneaky_recipe)
    print("same base data, but z := x^10y^6z^2 of the extended ring")
    print("a =", gens(sneaky.a), "   b =", gens(sneaky.b))
    print("a, b integrally closed now?",
          sneaky.a_integrally_closed or sneaky.b_integrally_closed)
    verdict = check_subadditivity(sneaky.a, sneaky.b)
    print("subadditivity verdict:", "holds" if verdict.holds else "violated")
    for w in verdict.witnesses:
        print(f"  {render_monomial(w)} is in J(ab) but not in J(a)J(b)")
    print()

    print("Act 4 (encore): let the search engine find it")
    print("---------------------------------------------")
    hits = search_counterexamples(
        SearchConfig(
            dim=2,
            ray_bound=1,
            gen_pairing_bound=3,
            z_pairing_bound=2,
            z_height_bound=1,
            max_candidates=25,
            seed=5,
            explicit_recipes=(sneaky_recipe,),
        )
    )
    print(f"{len(hits)} counterexample(s) found"
          " (25 tiny enumerated candidates plus the explicit recipe)")
    for hit in hits:
        print("  base rays", ", ".join(map(format_point, hit.construction.recipe.base_ring.dual_rays)),
              "-> witnesses", ", ".join(map(render_monomial, hit.verdict.witnesses)))


if __name__ == "__main__":
    main()
