"""A guided tour of the 3D counterexample to subadditivity.

On the Gorenstein ring R = K[x^2y, xy, xy^2, z] there are two monomial ideals
whose multiplier ideals refuse to cooperate: J(ab) is strictly bigger than
J(a)J(b). This script recomputes every step from scratch — the cone data, the
Newton polyhedra, the multiplier ideals, the escaping witnesses, and finally
the exhaustive scan showing that no decomposition of the key lattice point
exists. Run it with `python3 demos/counterexample_tour.py`.
"""

from toricmult import (
    check_subadditivity,
    contains_monomial,
    exhaustive_refute,
    integral_closure,
    monomial_ideal,
    multiplier_ideal,
    newton_polyhedron,
    product,
    relint_certificate,
    ring_from_dual_rays,
    verify_certificate,
)
from toricmult.problemio import format_point, render_monomial


def gens(ideal):
    return "<" + ", ".join(render_monomial(g) for g in ideal.gens) + ">"


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("The ring")
    ring = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
    print("R = K[x^2y, xy, xy^2, z], the semigroup ring of the cone dual to")
    print("rays", ", ".join(map(format_point, ring.dual_rays)))
    print("sigma rays:", ", ".join(map(format_point, ring.sigma_rays)))
    u0 = ring.canonical_shift()
    print("canonical point u0 =", format_point(u0), "(pairs to 1 with every sigma ray)")

    section("Two ideals and their Newton polyhedra")
    a = monomial_ideal(ring, ((2, 4, 0), (10, 6, 2)))
    b = monomial_ideal(ring, ((12, 7, 0), (10, 6, 2)))
    print("a =", gens(a))
    print("b =", gens(b))
    for name, ideal in (("a", a), ("b", b)):
        poly = newton_polyhedron(ideal)
        print(f"N({name}) facets:")
        for h in poly.facets:
            print(f"  <{format_point(h.normal)}, w> >= {h.offset}")

    section("Multiplier ideals")
    j_a = multiplier_ideal(a)
    j_b = multiplier_ideal(b)
    ab = product(a, b)
    j_ab = multiplier_ideal(ab)
    print("J(a)      =", gens(j_a))
    print("J(b)      =", gens(j_b))
    print("J(ab)     =", gens(j_ab))
    print("J(a)J(b)  =", gens(product(j_a, j_b)))

    section("The verdict")
    verdict = check_subadditivity(a, b)
    print("J(ab) contained in J(a)J(b)?", "yes" if verdict.holds else "no")
    for w in verdict.witnesses:
        print(f"  {render_monomial(w)} lies in J(ab) but not in J(a)J(b)")

    section("Why x^17y^11z belongs to J(ab)")
    v = (18, 12, 2)
    print("Shift the exponent by u0:", format_point((17, 11, 1)), "+ u0 =", format_point(v))
    cert = relint_certificate(newton_polyhedron(ab), v)
    print(f"{format_point(v)} is interior to N(ab); certificate points:")
    for p, c in zip(cert.points, cert.coefficients):
        print(f"  {format_point(p)}  (weight {c})")
    assert verify_certificate(newton_polyhedron(ab), v, cert)
    print("certificate re-verified by pure arithmetic")

    section("Why it escapes J(a)J(b)")
    print("Membership in the product would split", format_point(v), "as alpha + beta")
    print("with alpha interior to N(a) and beta + u0 interior to N(b).")
    report = exhaustive_refute(v, a, b)
    print(
        f"Scanned all {report.scanned} candidate lattice points"
        f" (sigma-pairing bounds {format_point(report.bounds)}):"
        f" {len(report.decompositions)} decompositions."
    )

    section("Bonus: the closure containment this was built from")
    rz = (18, 12, 2)
    in_closure = contains_monomial(integral_closure(ab), rz)
    print(f"x^18y^12z^2 in closure(ab)? {'yes' if in_closure else 'no'}")
    print("The subadditivity failure above is the multiplier-ideal shadow of a")
    print("closure containment that is strict only after a sneaky substitution;")
    print("see demos/build_your_own.py for that half of the story.")


if __name__ == "__main__":
    main()
