"""Subadditivity of multiplier ideals: checks, 2D proofs, refutation, search.

check_subadditivity decides J(ab) ⊆ J(a)·J(b) by testing every generator of
J(ab). In dimension two the containment always holds and decompose_2d returns
the constructive witness from a boundary walk of N(ab). exhaustive_refute
certifies a failure by scanning every candidate splitting of a target point.
The remaining operations build and search for counterexample instances by
adjoining a variable to a smaller ring.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    ConfigInvalid,
    NotDimension2,
    NotInMultiplierIdeal,
    RecipeInvalid,
)
from .geometry import LatticePoint, MembershipReport, RatPoint, hull_plus_cone, lattice_thresholds, membership
from .ideals import (
    MonomialIdeal,
    _same_ring,
    contains_monomial,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from .linalg import dot, vadd, vsub
from .multiplier import _canonical_shift, multiplier_ideal
from .rings import (
    ToricRing,
    lattice_points_in_box,
    require_exponent,
    ring_from_dual_rays,
    semigroup_points,
)


@dataclass(frozen=True)
class SubadditivityVerdict:
    """Whether J(ab) ⊆ J(a)·J(b), with the generators that escape.

    certificates[i] is the strict membership report placing witnesses[i] + u0
    inside the interior of N(ab); the non-membership in the product ideal can
    be replayed with contains_monomial.
    """

    holds: bool
    witnesses: tuple[LatticePoint, ...]
    certificates: tuple[MembershipReport, ...]
    j_ab: MonomialIdeal
    j_a: MonomialIdeal
    j_b: MonomialIdeal
    j_product: MonomialIdeal


class Side(enum.Enum):
    FROM_A = "a"
    FROM_B = "b"


@dataclass(frozen=True)
class Decomposition2D:
    """Constructive split p + u0 = witness + remainder, remainder interior.

    witness is a generator of a (side FROM_A) or of b (side FROM_B), and
    remainder_check verifies the remainder strictly inside the other factor's
    Newton polyhedron, so x^p ∈ witness · J(other).
    """

    point: LatticePoint
    side: Side
    witness: LatticePoint
    remainder: RatPoint
    region_index: int
    remainder_check: MembershipReport


@dataclass(frozen=True)
class RefutationReport:
    """Result of scanning every candidate splitting of a target point."""

    target: LatticePoint
    bounds: tuple[int, ...]
    scanned: int
    decompositions: tuple[tuple[LatticePoint, LatticePoint], ...]


@dataclass(frozen=True)
class ConstructionRecipe:
    """Data for adjoining a variable to lift a closure gap to a J-gap.

    r must lie in the closure of i_prime + j_prime but not in
    closure(i_prime) + closure(j_prime); z_exponent lives in the extended
    lattice and must have a positive last coordinate.
    """

    base_ring: ToricRing
    i_prime: MonomialIdeal
    j_prime: MonomialIdeal
    r: LatticePoint
    z_exponent: LatticePoint


@dataclass(frozen=True)
class Construction:
    """Extended ring and ideals produced from a ConstructionRecipe.

    When z_exponent is the new coordinate axis itself, a and b are always
    integrally closed and rZ escapes closure(a)·closure(b). For a general
    monomial z both properties can fail even though the gap conditions on r
    hold, so they are computed and reported here instead of being assumed.
    """

    recipe: ConstructionRecipe
    ring: ToricRing
    a: MonomialIdeal
    b: MonomialIdeal
    r_z: LatticePoint
    a_integrally_closed: bool
    b_integrally_closed: bool
    rz_in_product_of_closures: bool


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and determinism knobs for the counterexample search.

    Enumerated candidates use principal base ideals. The order is fixed:
    base rings over primitive dual-ray pairs with entries in [0, ray_bound],
    then the two generator exponents, then the adjoined exponent and its new
    coordinate, each innermost level in the deterministic order of
    lattice_points_in_box. explicit_recipes are evaluated before any
    enumeration and are never capped. max_candidates caps how many enumerated
    (ring, generators, adjoined exponent) skeletons are examined; when the
    enumeration is larger, a subset of that size is drawn with the seed and
    kept in enumeration order.
    """

    dim: int = 2
    ray_bound: int = 1
    gen_pairing_bound: int = 4
    z_pairing_bound: int = 3
    z_height_bound: int = 1
    max_candidates: int | None = None
    seed: int = 0
    explicit_recipes: tuple[ConstructionRecipe, ...] = ()


@dataclass(frozen=True)
class SearchHit:
    """A recipe whose constructed instance violates subadditivity."""

    construction: Construction
    verdict: SubadditivityVerdict


def check_subadditivity(a: MonomialIdeal, b: MonomialIdeal) -> SubadditivityVerdict:
    """Compare J(ab) against J(a)·J(b) generator by generator."""
    _same_ring(a, b)
    m_ab = multiplier_ideal(product(a, b))
    j_a = multiplier_ideal(a).ideal
    j_b = multiplier_ideal(b).ideal
    j_prod = product(j_a, j_b)
    witnesses = tuple(g for g in m_ab.ideal.gens if not contains_monomial(j_prod, g))
    certs = tuple(
        membership(m_ab.region, vadd(w, m_ab.shift), relative_interior=True) for w in witnesses
    )
    return SubadditivityVerdict(not witnesses, witnesses, certs, m_ab.ideal, j_a, j_b, j_prod)


# ---------------------------------------------------------------------------
# Dimension two: constructive subadditivity
# ---------------------------------------------------------------------------

def _boundary_sequence(a: MonomialIdeal, b: MonomialIdeal):
    """Vertices of N(ab) along the boundary, tagged with generator splits.

    Vertices are ordered by their pairing with the first sigma ray. Each is
    tagged with the lex-smallest (a-generator, b-generator) pair summing to
    it. Between consecutive vertices whose tags share no component, the mixed
    point a_i + b_{i+1} is inserted; it lies strictly inside the connecting
    edge, so afterwards every consecutive pair shares a component.
    """
    ring = a.ring
    poly = newton_polyhedron(product(a, b))
    n0 = ring.sigma_rays[0]
    verts = sorted(poly.vertices, key=lambda v: dot(v, n0))

    def tag(v: LatticePoint) -> tuple[LatticePoint, LatticePoint]:
        pairs = [(ga, gb) for ga in a.gens for gb in b.gens if vadd(ga, gb) == v]
        assert pairs, f"vertex {v} is not a sum of generators"
        return min(pairs)

    seq = [(v, tag(v)) for v in verts]
    out = []
    for (v1, (a1, b1)), (v2, (a2, b2)) in zip(seq, seq[1:]):
        out.append((v1, (a1, b1)))
        if a1 != a2 and b1 != b2:
            out.append((vadd(a1, b2), (a1, b2)))
    out.append(seq[-1])
    return poly, out


def decompose_2d(p: Sequence[int], a: MonomialIdeal, b: MonomialIdeal) -> Decomposition2D:
    """Split a member of J(ab) as (generator of a)·J(b) or (generator of b)·J(a).

    Walks the boundary of N(ab), finds the first edge region whose interior
    holds p + u0, and reads the witness off the region's shared tag component.
    The remainder membership is re-verified exactly and returned. Only for
    two-dimensional rings.
    """
    ring = _same_ring(a, b)
    if ring.dim != 2:
        raise NotDimension2(f"boundary-walk decomposition needs dimension 2, not {ring.dim}")
    u0 = _canonical_shift(ring)
    pt = require_exponent(ring, p)
    poly = newton_polyhedron(product(a, b))
    x = vadd(pt, u0)
    if not membership(poly, x, relative_interior=True).contained:
        raise NotInMultiplierIdeal(f"{pt} + u0 is not interior to the product's Newton polyhedron")

    _, seq = _boundary_sequence(a, b)
    regions = list(zip(seq, seq[1:])) if len(seq) > 1 else [(seq[0], seq[0])]

    for idx, ((v1, (a1, b1)), (v2, (a2, b2))) in enumerate(regions):
        region = hull_plus_cone([v1, v2], ring.cone)
        if not membership(region, x, relative_interior=True).contained:
            continue
        if a1 == a2:
            side, witness, other = Side.FROM_A, a1, b
        else:
            assert b1 == b2, "consecutive tags must share a component"
            side, witness, other = Side.FROM_B, b1, a
        remainder = vsub(x, witness)
        report = membership(newton_polyhedron(other), remainder, relative_interior=True)
        assert report.contained, "edge region interior must land in the factor's interior"
        return Decomposition2D(pt, side, witness, remainder, idx, report)
    raise AssertionError("interior point escaped every edge region")


# ---------------------------------------------------------------------------
# Refutation by exhaustive scan
# ---------------------------------------------------------------------------

def exhaustive_refute(v: Sequence[int], a: MonomialIdeal, b: MonomialIdeal) -> RefutationReport:
    """Scan every candidate splitting v = alpha + beta against the two interiors.

    alpha runs over all lattice points with 0 ≤ ⟨alpha, n⟩ ≤ ⟨v, n⟩ + 1 for
    every sigma ray n; a decomposition is recorded when alpha is interior to
    N(a) and beta + u0 = (v − alpha) + u0 is interior to N(b), both tested on
    integer facet thresholds. The bounds are sound: both interiors lie in σ^∨,
    so both summands pair nonnegatively with n, and their pairings add up to
    ⟨v + u0, n⟩ = ⟨v, n⟩ + 1 (u0 pairs to exactly 1 with every sigma ray).
    """
    ring = _same_ring(a, b)
    u0 = _canonical_shift(ring)
    target = require_exponent(ring, v)
    inside_a = lattice_thresholds(newton_polyhedron(a), (0,) * ring.dim)
    inside_b = lattice_thresholds(newton_polyhedron(b), u0)
    bounds = tuple(t + 1 for t in ring.pairings(target))

    found = []
    scanned = 0
    for alpha, _ in lattice_points_in_box(ring, bounds):
        scanned += 1
        if not all(dot(alpha, f) >= m for f, m in inside_a):
            continue
        beta = vsub(target, alpha)
        if all(dot(beta, f) >= m for f, m in inside_b):
            found.append((alpha, beta))
    return RefutationReport(target, bounds, scanned, tuple(found))


# ---------------------------------------------------------------------------
# Lifting a closure gap to a multiplier-ideal gap
# ---------------------------------------------------------------------------

def huneke_swanson_construct(recipe: ConstructionRecipe) -> Construction:
    """Adjoin a coordinate and lift the recipe's closure gap upstairs.

    Validates the recipe's stated conditions — the closure gap at r and the
    shape of z_exponent — and raises RecipeInvalid naming the first one that
    fails. rZ ∈ closure(a·b) then holds unconditionally (split a convex
    combination for r over the generators of i_prime + j_prime and add z to
    each term) and is asserted. Whether a and b come out integrally closed
    and whether rZ escapes closure(a)·closure(b) depends on the choice of z;
    both facts are computed exactly and reported on the result.
    """
    base = recipe.base_ring
    d = base.dim
    if recipe.i_prime.ring != base or recipe.j_prime.ring != base:
        raise RecipeInvalid("base ideals must live in the base ring")
    if len(recipe.z_exponent) != d + 1:
        raise RecipeInvalid("z_exponent must live in the extended lattice")
    if recipe.z_exponent[d] <= 0:
        raise RecipeInvalid("z_exponent must have a positive last coordinate")
    if recipe.i_prime.is_zero or recipe.j_prime.is_zero:
        raise RecipeInvalid("base ideals must be nonzero")
    r = require_exponent(base, recipe.r)
    ci, cj = integral_closure(recipe.i_prime), integral_closure(recipe.j_prime)
    if not contains_monomial(integral_closure(ideal_sum(recipe.i_prime, recipe.j_prime)), r):
        raise RecipeInvalid("r is not in the closure of i_prime + j_prime")
    if contains_monomial(ideal_sum(ci, cj), r):
        raise RecipeInvalid("r lies in closure(i_prime) + closure(j_prime)")

    ring = ring_from_dual_rays([q + (0,) for q in base.dual_rays] + [(0,) * d + (1,)])
    z = require_exponent(ring, recipe.z_exponent)
    a = monomial_ideal(ring, [g + (0,) for g in ci.gens] + [z])
    b = monomial_ideal(ring, [g + (0,) for g in cj.gens] + [z])
    r_z = vadd(r + (0,), z)

    ca, cb = integral_closure(a), integral_closure(b)
    assert contains_monomial(integral_closure(product(a, b)), r_z)
    in_closure_product = contains_monomial(product(ca, cb), r_z)
    return Construction(recipe, ring, a, b, r_z, ca == a, cb == b, in_closure_product)


# ---------------------------------------------------------------------------
# Deterministic counterexample search
# ---------------------------------------------------------------------------

def _primitive_rays_2d(bound: int) -> list[LatticePoint]:
    from math import gcd

    return sorted(
        (x, y)
        for x in range(bound + 1)
        for y in range(bound + 1)
        if (x, y) != (0, 0) and gcd(x, y) == 1
    )


def _candidate_rings(config: SearchConfig) -> list[ToricRing]:
    if config.dim == 1:
        return [ring_from_dual_rays([(1,)])]
    if config.dim != 2:
        raise ConfigInvalid(f"search supports base dimension 1 or 2, not {config.dim}")
    rays = _primitive_rays_2d(config.ray_bound)
    return [ring_from_dual_rays([r1, r2]) for r1, r2 in itertools.combinations(rays, 2)]


def _skeletons(config: SearchConfig) -> Iterator[tuple[ToricRing, LatticePoint, LatticePoint, LatticePoint]]:
    for ring in _candidate_rings(config):
        gens = [g for g in semigroup_points(ring, config.gen_pairing_bound) if any(g)]
        zs = semigroup_points(ring, config.z_pairing_bound)
        for g1, g2 in itertools.combinations_with_replacement(gens, 2):
            for wz in zs:
                for height in range(1, config.z_height_bound + 1):
                    yield ring, g1, g2, wz + (height,)


def _gap_generators(ring: ToricRing, g1: LatticePoint, g2: LatticePoint):
    """Recipe candidates for r between ⟨g1⟩ and ⟨g2⟩: minimal generators of
    closure(⟨g1⟩ + ⟨g2⟩) outside closure(⟨g1⟩) + closure(⟨g2⟩). If any point
    has the recipe's gap property, some minimal closure generator does too.
    """
    i_prime = monomial_ideal(ring, [g1])
    j_prime = monomial_ideal(ring, [g2])
    gap_sum = ideal_sum(integral_closure(i_prime), integral_closure(j_prime))
    rs = tuple(
        r
        for r in integral_closure(ideal_sum(i_prime, j_prime)).gens
        if not contains_monomial(gap_sum, r)
    )
    return i_prime, j_prime, rs


def _evaluate(recipe: ConstructionRecipe) -> SearchHit | None:
    try:
        built = huneke_swanson_construct(recipe)
    except RecipeInvalid:
        return None
    verdict = check_subadditivity(built.a, built.b)
    return None if verdict.holds else SearchHit(built, verdict)


def search_counterexamples(config: SearchConfig, threads: int = 1) -> tuple[SearchHit, ...]:
    """Evaluate explicit recipes, then enumerated ones, deterministically.

    Candidates are evaluated one after another in enumeration order, so the
    result depends only on the config (including its seed). threads is
    accepted and validated but does not change how the work runs: threads
    would only contend for the interpreter lock.
    """
    if config.dim < 1:
        raise ConfigInvalid("base dimension must be at least 1")
    if config.max_candidates is not None and config.max_candidates < 0:
        raise ConfigInvalid("max_candidates must be nonnegative")
    if threads < 1:
        raise ConfigInvalid("threads must be at least 1")
    for bound_name in ("ray_bound", "gen_pairing_bound", "z_pairing_bound", "z_height_bound"):
        if getattr(config, bound_name) < 0:
            raise ConfigInvalid(f"{bound_name} must be nonnegative")

    skeletons = list(_skeletons(config))
    cap = config.max_candidates
    if cap is not None and len(skeletons) > cap:
        keep = sorted(random.Random(config.seed).sample(range(len(skeletons)), cap))
        skeletons = [skeletons[i] for i in keep]

    recipes = list(config.explicit_recipes)
    gap_cache: dict = {}
    for ring, g1, g2, z in skeletons:
        key = (ring, g1, g2)
        if key not in gap_cache:
            gap_cache[key] = _gap_generators(ring, g1, g2)
        i_prime, j_prime, rs = gap_cache[key]
        recipes.extend(ConstructionRecipe(ring, i_prime, j_prime, r, z) for r in rs)

    return tuple(hit for hit in map(_evaluate, recipes) if hit is not None)
