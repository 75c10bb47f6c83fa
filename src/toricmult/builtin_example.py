"""The packaged three-dimensional instance where subadditivity fails.

The ring's exponent semigroup is the cone generated by (2,1,0), (1,2,0),
(0,0,1): the polynomial extension of the degree-3 plane singularity spanned
by x²y, xy, xy². For the ideals a = ⟨x²y⁴, x¹⁰y⁶z²⟩ and
b = ⟨x¹²y⁷, x¹⁰y⁶z²⟩, the monomial x¹⁷y¹¹z lies in J(ab) but not in
J(a)·J(b). verification_checklist replays the whole computation against
frozen expected values and returns one named result per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import ConvexCertificate, membership, verify_certificate
from .ideals import MonomialIdeal, contains_monomial, monomial_ideal, newton_polyhedron, product
from .multiplier import multiplier_membership
from .problemio import format_point, render_monomial
from .rings import ToricRing, ring_from_dual_rays
from .subadditivity import (
    ConstructionRecipe,
    check_subadditivity,
    exhaustive_refute,
    huneke_swanson_construct,
)

RING_DUAL_RAYS = ((2, 1, 0), (1, 2, 0), (0, 0, 1))
A_GENS = ((2, 4, 0), (10, 6, 2))
B_GENS = ((12, 7, 0), (10, 6, 2))
CANONICAL_POINT = (1, 1, 1)
TARGET = (18, 12, 2)
WITNESS = (17, 11, 1)

EXPECTED_A_FACETS = (
    ((-1, 2, 0), 2),
    ((-1, 2, 2), 6),
    ((-1, 4, 0), 14),
    ((0, 0, 1), 0),
    ((2, -1, 0), 0),
)
EXPECTED_B_FACETS = (
    ((-1, 2, 0), 2),
    ((0, 0, 1), 0),
    ((2, -1, 0), 14),
    ((4, -2, 3), 34),
)
EXPECTED_PRODUCT_GENS = ((12, 10, 2), (14, 11, 0), (20, 12, 4), (22, 13, 2))

# A hand-checkable interiority certificate for TARGET: four affinely
# independent points of N(ab) whose convex combination is exactly (18,12,2).
CERTIFICATE_POINTS = (
    (14, 11, 0),
    (18, 13, 0),
    (16, 12, 4),
    (21, Fraction(25, 2), 3),
)
CERTIFICATE_COEFFICIENTS = (
    Fraction(5, 16),
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(1, 2),
)

# Bad splittings of TARGET that a naive decomposition strategy would try;
# each fails strict membership in the named region.
A_EXCLUSIONS = ((6, 5, 2), (8, 6, 0))
B_EXCLUSIONS = ((16, 8, 2), (8, 6, 0))

BASE_DUAL_RAYS = ((2, 1), (1, 2))
RECIPE_I_PRIME = ((2, 4),)
RECIPE_J_PRIME = ((12, 7),)
RECIPE_R = (8, 6)
RECIPE_Z = (10, 6, 2)


def instance() -> tuple[ToricRing, MonomialIdeal, MonomialIdeal]:
    ring = ring_from_dual_rays(RING_DUAL_RAYS)
    return ring, monomial_ideal(ring, A_GENS), monomial_ideal(ring, B_GENS)


def recipe() -> ConstructionRecipe:
    base = ring_from_dual_rays(BASE_DUAL_RAYS)
    return ConstructionRecipe(
        base,
        monomial_ideal(base, RECIPE_I_PRIME),
        monomial_ideal(base, RECIPE_J_PRIME),
        RECIPE_R,
        RECIPE_Z,
    )


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


FacetExpectations = dict[str, tuple[tuple[tuple[int, ...], int], ...]]


def _facet_check(name: str, poly, expected) -> Check:
    got = poly.facets
    want = tuple((tuple(n), int(c)) for n, c in expected)
    if got == want:
        detail = "; ".join(f"{format_point(n)}·w >= {c}" for n, c in got)
        return Check(name, True, f"{len(got)} facets: {detail}")
    missing = [f for f in want if f not in got]
    extra = [f for f in got if f not in want]
    parts = []
    if missing:
        parts.append("missing " + ", ".join(f"{format_point(n)} >= {c}" for n, c in missing))
    if extra:
        parts.append("unexpected " + ", ".join(f"{format_point(n)} >= {c}" for n, c in extra))
    return Check(name, False, "; ".join(parts) or "facet order differs")


def verification_checklist(expected_facets: FacetExpectations | None = None) -> list[Check]:
    """Recompute the whole instance and compare against expected values.

    expected_facets may override the frozen facet lists (keys "a" and "b"),
    which is how a deliberately tampered fixture demonstrates failure
    reporting.
    """
    expected_facets = expected_facets or {}
    ring, a, b = instance()
    checks: list[Check] = []

    u0 = ring.canonical_shift()
    checks.append(
        Check("canonical-point", u0 == tuple(Fraction(c) for c in CANONICAL_POINT), f"u0 = {format_point(u0)}")
    )

    checks.append(
        _facet_check("newton-a-facets", newton_polyhedron(a), expected_facets.get("a", EXPECTED_A_FACETS))
    )
    checks.append(
        _facet_check("newton-b-facets", newton_polyhedron(b), expected_facets.get("b", EXPECTED_B_FACETS))
    )

    ab = product(a, b)
    checks.append(
        Check(
            "product-generators",
            ab.gens == EXPECTED_PRODUCT_GENS,
            "a·b = ⟨" + ", ".join(format_point(g) for g in ab.gens) + "⟩",
        )
    )

    fixture = ConvexCertificate(
        tuple(tuple(Fraction(c) for c in p) for p in CERTIFICATE_POINTS),
        CERTIFICATE_COEFFICIENTS,
    )
    fixture_ok = verify_certificate(newton_polyhedron(ab), TARGET, fixture)
    checks.append(
        Check(
            "interior-certificate",
            fixture_ok,
            f"{format_point(TARGET)} is interior to N(a·b); fixture coefficients "
            + ", ".join(str(c) for c in CERTIFICATE_COEFFICIENTS)
            + (" validate" if fixture_ok else " DO NOT validate"),
        )
    )

    verdict = check_subadditivity(a, b)
    checks.append(
        Check(
            "witness-in-multiplier-of-product",
            WITNESS in verdict.j_ab.gens and multiplier_membership(ab, WITNESS).contained,
            f"{render_monomial(WITNESS)} is a minimal generator of J(a·b)",
        )
    )
    checks.append(
        Check(
            "witness-not-in-product-of-multipliers",
            not contains_monomial(verdict.j_product, WITNESS),
            f"{render_monomial(WITNESS)} is not in J(a)·J(b) = ⟨"
            + ", ".join(format_point(g) for g in verdict.j_product.gens)
            + "⟩",
        )
    )
    checks.append(
        Check(
            "subadditivity-verdict",
            not verdict.holds and WITNESS in verdict.witnesses,
            "J(a·b) ⊄ J(a)·J(b); escaping generators: "
            + ", ".join(format_point(w) for w in verdict.witnesses),
        )
    )

    refutation = exhaustive_refute(TARGET, a, b)
    checks.append(
        Check(
            "refutation-scan",
            not refutation.decompositions,
            f"no splitting of {format_point(TARGET)} into interior points exists; "
            f"{refutation.scanned} candidates scanned within pairing bounds "
            f"{format_point(refutation.bounds)}",
        )
    )

    exclusion_bits = []
    exclusions_ok = True
    for point, poly, label in (
        [(p, newton_polyhedron(a), "N(a)") for p in A_EXCLUSIONS]
        + [(p, newton_polyhedron(b), "N(b)") for p in B_EXCLUSIONS]
    ):
        rep = membership(poly, point, relative_interior=True)
        excluded = not rep.contained
        exclusions_ok = exclusions_ok and excluded
        reasons = [f"{format_point(h.normal)}·w = {v} < {h.offset}" for h, v in rep.pairings if v < h.offset]
        reasons += [f"{format_point(h.normal)}·w = {h.offset} exactly" for h in rep.tight]
        exclusion_bits.append(
            f"{format_point(point)} ∉ relint {label} ({'; '.join(reasons)})"
            if excluded
            else f"{format_point(point)} unexpectedly interior to {label}"
        )
    checks.append(Check("boundary-exclusions", exclusions_ok, "; ".join(exclusion_bits)))

    built = huneke_swanson_construct(recipe())
    reconstructed = built.a == a and built.b == b and built.r_z == TARGET
    checks.append(
        Check(
            "construction-roundtrip",
            reconstructed,
            f"adjunction recipe rebuilds a, b and rZ = {format_point(built.r_z)}"
            if reconstructed
            else f"recipe built a = {built.a.gens}, b = {built.b.gens}, rZ = {format_point(built.r_z)}",
        )
    )

    return checks
