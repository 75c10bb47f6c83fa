"""Acceptance suite: one test per headline guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
readout. Each criterion prints one `[PASS]`/`[FAIL]` line naming its failed
checks, and every criterion must pass. See the README for what each states.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from instances import POOL, random_2d_ring, random_ideal
from oracles import closure_scan, multiplier_scan

from toricmult.geometry import (
    ConvexCertificate,
    affinely_independent,
    membership,
    relint_certificate,
    verify_certificate,
)
from toricmult.ideals import (
    contains_monomial,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from toricmult.multiplier import multiplier_ideal, multiplier_membership
from toricmult.rings import ring_from_dual_rays
from toricmult.subadditivity import (
    ConstructionRecipe,
    Side,
    check_subadditivity,
    decompose_2d,
    exhaustive_refute,
    huneke_swanson_construct,
)

RING = ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
A = monomial_ideal(RING, ((2, 4, 0), (10, 6, 2)))
B = monomial_ideal(RING, ((12, 7, 0), (10, 6, 2)))

BASE = ring_from_dual_rays(((2, 1), (1, 2)))
I_PRIME = monomial_ideal(BASE, ((2, 4),))
J_PRIME = monomial_ideal(BASE, ((12, 7),))
RECIPE = ConstructionRecipe(BASE, I_PRIME, J_PRIME, (8, 6), (10, 6, 2))

N_A_FACETS = (
    ((-1, 2, 0), 2),
    ((-1, 2, 2), 6),
    ((-1, 4, 0), 14),
    ((0, 0, 1), 0),
    ((2, -1, 0), 0),
)
N_B_FACETS = (
    ((-1, 2, 0), 2),
    ((0, 0, 1), 0),
    ((2, -1, 0), 14),
    ((4, -2, 3), 34),
)


def conclude(number, checks):
    """Print the one-line verdict for a criterion, then enforce it."""
    failed = [label for label, ok in checks if not ok]
    if failed:
        print(f"[FAIL] criterion {number}: " + "; ".join(failed))
    else:
        print(f"[PASS] criterion {number}: {len(checks)} checks")
    assert not failed, f"criterion {number} failed: {failed}"


def facet_pairs(poly):
    return tuple((h.normal, h.offset) for h in poly.facets)


def normals(halfspaces):
    return {h.normal for h in halfspaces}


def test_criterion_1_counterexample_reproduction():
    ab = product(A, B)
    j_a = multiplier_ideal(A)
    j_b = multiplier_ideal(B)
    verdict = check_subadditivity(A, B)
    checks = [
        ("u0 = (1,1,1)", RING.canonical_shift() == (1, 1, 1)),
        ("N(a) has the five expected facets", facet_pairs(newton_polyhedron(A)) == N_A_FACETS),
        ("N(b) has the four expected facets", facet_pairs(newton_polyhedron(B)) == N_B_FACETS),
        (
            "a*b generators",
            set(ab.gens) == {(14, 11, 0), (12, 10, 2), (22, 13, 2), (20, 12, 4)},
        ),
        ("x^17y^11z in J(ab)", multiplier_membership(ab, (17, 11, 1)).contained),
        (
            "x^17y^11z not in J(a)J(b)",
            not contains_monomial(product(j_a, j_b), (17, 11, 1)),
        ),
        ("subadditivity verdict is a failure", not verdict.holds),
    ]
    conclude(1, checks)


def test_criterion_2_interiority_certificate():
    poly = newton_polyhedron(product(A, B))
    target = (18, 12, 2)
    cert = relint_certificate(poly, target)
    fixture = ConvexCertificate(
        points=(
            (14, 11, 0),
            (18, 13, 0),
            (16, 12, 4),
            (21, Fraction(25, 2), 3),
        ),
        coefficients=(Fraction(5, 16), Fraction(1, 16), Fraction(1, 8), Fraction(1, 2)),
    )
    checks = [
        ("computed certificate has 4 points", len(cert.points) == 4),
        ("computed certificate is affinely independent", affinely_independent(cert.points)),
        ("computed certificate validates", verify_certificate(poly, target, cert)),
        ("classical 5/16,1/16,1/8,1/2 fixture validates", verify_certificate(poly, target, fixture)),
    ]
    conclude(2, checks)


def test_criterion_3_exhaustive_refutation():
    report = exhaustive_refute((18, 12, 2), A, B)
    n_a = newton_polyhedron(A)
    n_b = newton_polyhedron(B)

    at_16_8_2 = membership(n_b, (16, 8, 2), relative_interior=True)
    at_8_6_0_b = membership(n_b, (8, 6, 0), relative_interior=True)
    at_6_5_2 = membership(n_a, (6, 5, 2), relative_interior=True)
    at_8_6_0_a = membership(n_a, (8, 6, 0), relative_interior=True)

    checks = [
        ("scan covered the full bound region", report.scanned == 280),
        ("no decomposition of (18,12,2) exists", report.decompositions == ()),
        (
            "(16,8,2) leaves relint N(b) across <(-1,2,0)> >= 2",
            not at_16_8_2.contained and (-1, 2, 0) in normals(at_16_8_2.violated),
        ),
        (
            "(8,6,0) leaves relint N(b) across <(2,-1,0)> >= 14 and <(4,-2,3)> >= 34",
            not at_8_6_0_b.contained
            and {(2, -1, 0), (4, -2, 3)} <= normals(at_8_6_0_b.violated)
            and (0, 0, 1) in normals(at_8_6_0_b.tight),
        ),
        (
            "(6,5,2) sits on the boundary facet <(-1,4,0)> >= 14 of N(a)",
            not at_6_5_2.contained and (-1, 4, 0) in normals(at_6_5_2.tight),
        ),
        (
            "(8,6,0) leaves relint N(a) across <(-1,2,2)> >= 6",
            not at_8_6_0_a.contained
            and (-1, 2, 2) in normals(at_8_6_0_a.violated)
            and (0, 0, 1) in normals(at_8_6_0_a.tight),
        ),
    ]
    conclude(3, checks)


def test_criterion_4_two_dimensional_property_suite():
    rng = random.Random(41)
    instances = 200
    holds_failures = 0
    decompose_failures = 0
    for _ in range(instances):
        ring = random_2d_ring(rng, bound=7)
        a = random_ideal(rng, ring, max_gens=4, pairing_bound=30)
        b = random_ideal(rng, ring, max_gens=4, pairing_bound=30)
        verdict = check_subadditivity(a, b)
        if not verdict.holds:
            holds_failures += 1
            continue
        u0 = ring.canonical_shift()
        for g in multiplier_ideal(product(a, b)).gens:
            d = decompose_2d(g, a, b)
            source = a if d.side is Side.FROM_A else b
            ok = (
                d.remainder_check.contained
                and d.witness in source.gens
                and tuple(w + r - u for w, r, u in zip(d.witness, d.remainder, u0)) == g
            )
            if not ok:
                decompose_failures += 1
    checks = [
        (f"subadditivity holds on all {instances} instances", holds_failures == 0),
        ("every J(ab) generator re-decomposes", decompose_failures == 0),
    ]
    conclude(4, checks)


def test_criterion_5_integral_closure_oracle():
    rng = random.Random(43)
    scan_disagreements = 0
    law_failures = 0
    instances = 0
    cases = [
        (ring_from_dual_rays(dual), dual, sigma)
        for _, dual, sigma, _ in POOL
        for _ in range(6)
    ]
    for _ in range(70):
        ring = random_2d_ring(rng)
        cases.append((ring, ring.dual_rays, ring.sigma_rays))
    for ring, dual_rays, sigma_rays in cases:
        instances += 1
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=9)
        closed = integral_closure(a)
        expected = closure_scan(a.gens, dual_rays, sigma_rays)
        if tuple(sorted(closed.gens)) != tuple(sorted(expected)):
            scan_disagreements += 1
        b = ideal_sum(a, random_ideal(rng, ring, max_gens=2, pairing_bound=9))
        extensive = all(contains_monomial(closed, g) for g in a.gens)
        idempotent = integral_closure(closed) == closed
        monotone = all(
            contains_monomial(integral_closure(b), g) for g in closed.gens
        )
        if not (extensive and idempotent and monotone):
            law_failures += 1

    sum_closure = integral_closure(ideal_sum(I_PRIME, J_PRIME))
    closure_sum = ideal_sum(integral_closure(I_PRIME), integral_closure(J_PRIME))
    checks = [
        (f"enough instances ({instances} >= 100)", instances >= 100),
        ("scan oracle agrees everywhere", scan_disagreements == 0),
        ("extensive + idempotent + monotone everywhere", law_failures == 0),
        ("(8,6) in closure(I'+J')", contains_monomial(sum_closure, (8, 6))),
        ("(8,6) not in closure(I') + closure(J')", not contains_monomial(closure_sum, (8, 6))),
        ("I' is integrally closed", integral_closure(I_PRIME) == I_PRIME),
        ("J' is integrally closed", integral_closure(J_PRIME) == J_PRIME),
    ]
    conclude(5, checks)


def oracle_flags(built):
    """(a closed, b closed, rZ in closure(a)*closure(b)) from the closure scan oracle."""
    ring = built.ring
    scan_a = closure_scan(built.a.gens, ring.dual_rays, ring.sigma_rays)
    scan_b = closure_scan(built.b.gens, ring.dual_rays, ring.sigma_rays)
    closures = product(monomial_ideal(ring, scan_a), monomial_ideal(ring, scan_b))
    return (
        sorted(scan_a) == sorted(built.a.gens),
        sorted(scan_b) == sorted(built.b.gens),
        contains_monomial(closures, built.r_z),
    )


def reported_flags(built):
    return (built.a_integrally_closed, built.b_integrally_closed, built.rz_in_product_of_closures)


def test_criterion_6_huneke_swanson_pipeline():
    built = huneke_swanson_construct(RECIPE)
    rz = (18, 12, 2)
    twin = huneke_swanson_construct(ConstructionRecipe(BASE, I_PRIME, J_PRIME, (8, 6), (0, 0, 1)))
    checks = [
        ("recipe rebuilds a", built.a == A),
        ("recipe rebuilds b", built.b == B),
        ("recipe rebuilds rZ = (18,12,2)", built.r_z == rz),
        ("rZ in closure(a*b)", contains_monomial(integral_closure(product(built.a, built.b)), rz)),
        (
            "z = x^10y^6z^2: reported closedness and rZ-in-closure(a)*closure(b) flags "
            "match the scan oracle",
            reported_flags(built) == oracle_flags(built),
        ),
        ("fresh-variable twin rebuilds rZ = (8,6,1)", twin.r_z == (8, 6, 1)),
        ("fresh-variable twin: a integrally closed", twin.a_integrally_closed),
        ("fresh-variable twin: b integrally closed", twin.b_integrally_closed),
        (
            "fresh-variable twin: rZ not in closure(a)*closure(b)",
            not twin.rz_in_product_of_closures,
        ),
        ("fresh-variable twin: flags match the scan oracle", reported_flags(twin) == oracle_flags(twin)),
    ]
    conclude(6, checks)


def test_criterion_7_multiplier_oracle():
    rng = random.Random(47)
    scan_disagreements = 0
    containment_failures = 0
    monotone_failures = 0
    instances = 0
    cases = [
        (ring_from_dual_rays(dual), dual, sigma, u0) for _, dual, sigma, u0 in POOL for _ in range(6)
    ]
    for _ in range(70):
        ring = random_2d_ring(rng)
        cases.append((ring, ring.dual_rays, ring.sigma_rays, ring.canonical_shift()))
    for ring, dual_rays, sigma_rays, u0 in cases:
        instances += 1
        a = random_ideal(rng, ring, max_gens=3, pairing_bound=9)
        j_a = multiplier_ideal(a)
        expected = multiplier_scan(a.gens, dual_rays, sigma_rays, u0)
        if tuple(sorted(j_a.gens)) != tuple(sorted(expected)):
            scan_disagreements += 1
        if not all(contains_monomial(j_a, g) for g in integral_closure(a).gens):
            containment_failures += 1
        bigger = ideal_sum(a, random_ideal(rng, ring, max_gens=2, pairing_bound=9))
        if not all(contains_monomial(multiplier_ideal(bigger), g) for g in j_a.gens):
            monotone_failures += 1
    orthant = ring_from_dual_rays(((1, 0), (0, 1)))
    unit = monomial_ideal(orthant, ((0, 0),))
    squares = monomial_ideal(orthant, ((2, 0), (0, 2)))
    checks = [
        (f"enough instances ({instances} >= 100)", instances >= 100),
        ("scan oracle agrees everywhere", scan_disagreements == 0),
        (
            f"closure(a) inside J(a) everywhere ({containment_failures} of {instances} "
            "instances break it)",
            containment_failures == 0,
        ),
        ("monotone everywhere", monotone_failures == 0),
        ("J(unit) = unit", multiplier_ideal(unit) == unit),
        (
            "J(<x^2,y^2>) = <x,y> exceeds closure(<x^2,y^2>) = <x^2,xy,y^2>",
            multiplier_ideal(squares) == monomial_ideal(orthant, ((1, 0), (0, 1)))
            and integral_closure(squares) == monomial_ideal(orthant, ((2, 0), (1, 1), (0, 2))),
        ),
    ]
    conclude(7, checks)


def test_criterion_8_byte_level_determinism(tmp_path):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "toricmult", *argv],
            capture_output=True,
            timeout=300,
        )

    first = cli("verify-paper", "--format", "json")
    second = cli("verify-paper", "--format", "json")

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "dim": 2,
                "ray_bound": 1,
                "gen_pairing_bound": 3,
                "z_pairing_bound": 2,
                "z_height_bound": 1,
                "max_candidates": 25,
                "seed": 5,
                "explicit_recipes": [
                    {
                        "base_ring": {"dual_cone_rays": [[2, 1], [1, 2]]},
                        "i_prime": [[2, 4]],
                        "j_prime": [[12, 7]],
                        "r": [8, 6],
                        "z_exponent": [10, 6, 2],
                    }
                ],
            }
        )
    )
    lone = cli("search", "--input", str(config), "--format", "json", "--threads", "1")
    pooled = cli("search", "--input", str(config), "--format", "json", "--threads", "2")

    checks = [
        ("verify-paper exits 0", first.returncode == 0 and second.returncode == 0),
        ("verify-paper output is byte-identical across runs", first.stdout == second.stdout),
        ("search exits 0 at both thread counts", lone.returncode == 0 and pooled.returncode == 0),
        ("search output is byte-identical across thread counts", lone.stdout == pooled.stdout),
        ("search still finds the packaged counterexample", b'"count": 1' in lone.stdout),
    ]
    conclude(8, checks)
