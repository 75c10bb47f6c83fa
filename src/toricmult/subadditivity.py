"""Subadditivity of multiplier ideals: checks, 2D proofs, refutation, search.

check_subadditivity decides J(ab) ⊆ J(a)·J(b) generator by generator, on two
sigma rays by the edge-region split that decompose_2d makes of each generator;
exhaustive_refute scans every splitting of a target point. The rest builds
and searches for counterexamples by adjoining a variable to a smaller ring.
"""

from __future__ import annotations

import enum
import itertools
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import le, sub
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    ConfigInvalid,
    NotDimension2,
    NotInMultiplierIdeal,
    RecipeInvalid,
)
from .geometry import LatticePoint, MembershipReport, RatPoint, membership_scaled
from .ideals import (
    CACHE_SIZE,
    MonomialIdeal,
    _same_ring,
    contains_monomial,
    ideal_sum,
    integral_closure,
    monomial_ideal,
    newton_polyhedron,
    product,
)
from .linalg import dot, vadd, vscale, vsub
from .multiplier import multiplier_ideal, multiplier_membership
from .rings import (
    ToricRing,
    box_point_count,
    cut_runs,
    exponent_pairings,
    region_tests,
    ring_from_dual_rays,
    run_points,
    semigroup_points,
)


class SubadditivityVerdict(NamedTuple):
    """Whether J(ab) ⊆ J(a)·J(b), with the generators that escape.

    certificates[i] is the strict membership report placing witnesses[i] + u0
    inside the interior of N(ab). The non-membership in the product ideal can
    be replayed two ways: for every generator g of j_a dividing witnesses[i],
    contains_monomial(j_b, witnesses[i] − g) is false (the factor test that
    decided it), or contains_monomial(j_product, witnesses[i]) is false.
    j_product = J(a)·J(b) is not a field: it is read through the product memo,
    which builds it on first read.
    """

    holds: bool
    witnesses: tuple[LatticePoint, ...]
    certificates: tuple[MembershipReport, ...]
    j_ab: MonomialIdeal
    j_a: MonomialIdeal
    j_b: MonomialIdeal

    @property
    def j_product(self) -> MonomialIdeal:
        return product(self.j_a, self.j_b)


class Side(enum.Enum):
    FROM_A = "a"
    FROM_B = "b"


class Decomposition2D(NamedTuple):
    """Constructive split p + u0 = witness + remainder of the point p, remainder interior.

    witness is a generator of a (side FROM_A) or of b (side FROM_B), and
    remainder_check verifies the remainder strictly inside the other factor's
    Newton polyhedron, so x^p ∈ witness · J(other).
    """

    side: Side
    witness: LatticePoint
    remainder: RatPoint
    region_index: int
    remainder_check: MembershipReport


class RefutationReport(NamedTuple):
    """Result of scanning every candidate splitting of a target point."""

    target: LatticePoint
    bounds: tuple[int, ...]
    scanned: int
    decompositions: tuple[tuple[LatticePoint, LatticePoint], ...]


class ConstructionRecipe(NamedTuple):
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


class Construction(NamedTuple):
    """Extended ring and ideals produced from a ConstructionRecipe.

    When z_exponent is the new coordinate axis itself, a and b are always
    integrally closed and rZ escapes closure(a)·closure(b). For a general
    monomial z both properties can fail even though the gap conditions on r
    hold, so they are computed exactly instead of being assumed. The three
    flags are functions of (a, b, r_z), not fields, read through the
    integral_closure and product memos: building a construction enumerates
    neither closure(a) nor closure(b).
    """

    recipe: ConstructionRecipe
    ring: ToricRing
    a: MonomialIdeal
    b: MonomialIdeal
    r_z: LatticePoint

    @property
    def a_integrally_closed(self) -> bool:
        return integral_closure(self.a) == self.a

    @property
    def b_integrally_closed(self) -> bool:
        return integral_closure(self.b) == self.b

    @property
    def rz_in_product_of_closures(self) -> bool:
        return contains_monomial(product(integral_closure(self.a), integral_closure(self.b)), self.r_z)


class SearchConfig(NamedTuple):
    """Bounds and determinism knobs for the counterexample search.

    Enumerated candidates use principal base ideals. The order is fixed:
    base rings over primitive dual-ray pairs with entries in [0, ray_bound],
    then the two generator exponents, then the adjoined exponent and its new
    coordinate, each innermost level in the order of rings.semigroup_points.
    explicit_recipes are evaluated before any enumeration and are never
    capped. max_candidates caps how many enumerated (ring, generators,
    adjoined exponent) skeletons are examined; when the enumeration is
    larger, a subset of that size is drawn with the seed and kept in
    enumeration order.
    """

    dim: int = 2
    ray_bound: int = 1
    gen_pairing_bound: int = 4
    z_pairing_bound: int = 3
    z_height_bound: int = 1
    max_candidates: int | None = None
    seed: int = 0
    explicit_recipes: tuple[ConstructionRecipe, ...] = ()


class SearchHit(NamedTuple):
    """A recipe whose constructed instance violates subadditivity."""

    construction: Construction
    verdict: SubadditivityVerdict


@lru_cache(maxsize=CACHE_SIZE)
def check_subadditivity(a: MonomialIdeal, b: MonomialIdeal) -> SubadditivityVerdict:
    """Compare J(ab) against J(a)·J(b) generator by generator, building no product.

    A generator w of J(ab) lies in J(a)·J(b) exactly when some generator g of
    J(a) divides it (no sigma pairing of g exceeds that of w) with w − g in
    J(b): a product generator g + h dividing w leaves w − g = h + (w − g − h).
    A principal factor decides the pair with no test: J(⟨g⟩) = ⟨g⟩
    (multiplier_ideal), so J(g + b) = g + J(b) = J(⟨g⟩)·J(b) holds with no witness.
    On two sigma rays the paper's 2D proof decides first: w lies in the first edge
    region of N(ab) whose floors its pairings t clear (_edge_regions), and the region's
    witness g, a generator of one factor and so a member of its J, leaves w − g in J of
    the other when some generator h of that J has t(h) <= t − t(g) entrywise. Sorted once
    by t0, those t(h) are a staircase with falling t1, so one bisection finds the last with
    t0(h) <= t0 − t0(g), the least t1 among them. A w that this split does not place goes
    to the factor test, so no verdict rests on the theorem.
    Memoized on the pair, which a search meets once per gap point of a skeleton.
    """
    ab = product(a, b)
    j_ab = multiplier_ideal(ab)
    j_a = multiplier_ideal(a)
    j_b = multiplier_ideal(b)
    if len(a.gens) == 1 or len(b.gens) == 1:
        return SubadditivityVerdict(True, (), (), j_ab, j_a, j_b)
    splits = ()
    if len(a.ring.sigma_rays) == 2:
        stairs = {Side.FROM_A: sorted(j_b.pairings), Side.FROM_B: sorted(j_a.pairings)}
        splits = [(f0, f1, *a.ring.pairings(g), stairs[side]) for f0, f1, side, g in _edge_regions(a, b)]

    def in_product(w, t):
        for f0, f1, g0, g1, stair in splits:
            if t[0] >= f0 and t[1] >= f1:
                i = bisect_right(stair, (t[0] - g0, inf))
                if i and stair[i - 1][1] <= t[1] - g1:
                    return True
                break
        factors = zip(j_a.gens, j_a.pairings)
        return any(all(map(le, tg, t)) and contains_monomial(j_b, vsub(w, g)) for g, tg in factors)

    witnesses = tuple(w for w, t in zip(j_ab.gens, j_ab.pairings) if not in_product(w, t))
    certs = tuple(multiplier_membership(ab, w) for w in witnesses)
    return SubadditivityVerdict(not witnesses, witnesses, certs, j_ab, j_a, j_b)


# ---------------------------------------------------------------------------
# Dimension two: constructive subadditivity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def _edge_regions(a: MonomialIdeal, b: MonomialIdeal):
    """The sigma-pairing floors of the edge regions of N(ab), with each region's side and witness.

    Vertices of N(ab), ordered by t0 = ⟨v, n0⟩, are tagged with the
    lex-smallest (a-generator, b-generator) pair summing to them, the first
    met in one pass over the pairs in lex order. Between consecutive
    vertices whose tags share no component, the mixed point a_i + b_{i+1}
    is inserted; it lies strictly inside the connecting edge, so afterwards
    every consecutive pair shares a component, which gives the side and
    witness of its region conv(v1, v2) + σ^∨. The sigma rays n0, n1 are a
    basis, so σ^∨ is the quadrant t0, t1 ≥ 0 and t1 = ⟨v, n1⟩ falls along
    the walk: the region is t0 ≥ t0(v1), t1 ≥ t1(v2) on the inner side of
    an edge of N(ab). As ⟨u0, n0⟩ = ⟨u0, n1⟩ = 1, p + u0 interior to N(ab)
    is interior to the region iff t0(p) ≥ t0(v1) and t1(p) ≥ t1(v2). Returns
    (t0(v1), t1(v2), side, witness) per region, for check_subadditivity and decompose_2d.
    """
    ring = a.ring
    n0, n1 = ring.sigma_rays
    poly = newton_polyhedron(product(a, b))
    tags = {}
    for ga, gb in itertools.product(a.gens, b.gens):
        tags.setdefault(vadd(ga, gb), (ga, gb))
    seq = [(v, tags[v]) for v in sorted(poly.vertices, key=lambda v: dot(v, n0))]
    walk = [seq[0]]
    for (v1, (a1, b1)), (v2, (a2, b2)) in zip(seq, seq[1:]):
        if a1 != a2 and b1 != b2:
            walk.append((vadd(a1, b2), (a1, b2)))
        walk.append((v2, (a2, b2)))

    regions = []
    for (v1, (a1, b1)), (v2, (a2, b2)) in list(zip(walk, walk[1:])) or [(walk[0], walk[0])]:
        assert a1 == a2 or b1 == b2, "consecutive tags must share a component"
        side, witness = (Side.FROM_A, a1) if a1 == a2 else (Side.FROM_B, b1)
        regions.append((dot(v1, n0), dot(v2, n1), side, witness))
    return tuple(regions)


def decompose_2d(p: Sequence[int], a: MonomialIdeal, b: MonomialIdeal) -> Decomposition2D:
    """Split a member of J(ab) as (generator of a)·J(b) or (generator of b)·J(a).

    Walks the boundary of N(ab), finds the first edge region whose floors
    p clears, and reads the witness off the region's shared tag component.
    The regions' sigma-pairing floors are found once per (a, b) and memoized
    (_edge_regions); p is tested on each with two integer comparisons.
    The remainder membership is verified exactly, in integers on the
    numerators r (p − g) + w0 over r (geometry.membership_scaled), and
    returned. A remainder interior to N(other) puts p + u0 = witness + remainder
    in N(own) + int N(other) ⊆ int N(ab), so p is tested for J(ab)
    (multiplier.multiplier_membership) only when that region refuses the split
    or no region's floors are cleared: NotInMultiplierIdeal if p + u0 is not
    interior. Only for two-dimensional rings.
    """
    ring = _same_ring(a, b)
    if ring.dim != 2:
        raise NotDimension2(f"boundary-walk decomposition needs dimension 2, not {ring.dim}")
    w0, r = ring.canonical_pair()
    pt, (t0, t1) = exponent_pairings(ring, p)
    for idx, (floor0, floor1, side, witness) in enumerate(_edge_regions(a, b)):
        if t0 >= floor0 and t1 >= floor1:
            num = tuple(r * (x - g) + w for x, g, w in zip(pt, witness, w0))
            other = b if side is Side.FROM_A else a
            report = membership_scaled(newton_polyhedron(other), num, r, relative_interior=True)
            if report.contained:
                return Decomposition2D(side, witness, tuple(Fraction(c, r) for c in num), idx, report)
            break
    if not multiplier_membership(product(a, b), pt).contained:
        raise NotInMultiplierIdeal(f"{pt} + u0 is not interior to the product's Newton polyhedron")
    raise AssertionError("no edge region splits an interior point")


# ---------------------------------------------------------------------------
# Refutation by exhaustive scan
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def _splitting_data(a: MonomialIdeal, b: MonomialIdeal):
    """(inside_a, outside_b, floors, floor_b): rings.region_tests of N(a)'s interior, shift
    ((0,)*d, 1), and of N(b) shifted by u0, canonical_pair, with N(b)'s tests (f, m, s) negated
    to (−f, m, −s), so that a target v adds ⟨v, f⟩ to m. floors are the splitting box's floors,
    and ⟨v, n⟩ less floor_b its ceilings."""
    ring = _same_ring(a, b)
    floors, inside_a = region_tests(ring, newton_polyhedron(a), ((0,) * ring.dim, 1))
    floor_b, shifted_b = region_tests(ring, newton_polyhedron(b), ring.canonical_pair())
    return inside_a, tuple((vscale(-1, f), m, -s) for f, m, s in shifted_b), floors, floor_b


def exhaustive_refute(v: Sequence[int], a: MonomialIdeal, b: MonomialIdeal) -> RefutationReport:
    """Scan every splitting v = alpha + beta into lattice points alpha interior to
    N(a) and beta with beta + u0 interior to N(b).

    With v = w + u0 on a Gorenstein ring, v splits exactly when w ∈ J(a)·J(b)
    (alpha − u0 ∈ J(a), beta ∈ J(b)). Where u0 is not a lattice point, the scan
    answers the question above, which is not membership in J(a)·J(b).
    The test on beta is ⟨alpha, −f⟩ ≥ m − ⟨v, f⟩ per threshold (f, m) of N(b) and
    (w0, r) (rings.region_tests). Only the Hermite runs of the pair's splitting box (_splitting_data)
    are walked, by rings.cut_runs from the floors, each run narrowed by the facet tests
    to the splittings, listed in walk order on simplicial σ and by alpha otherwise.
    bounds is the box of every candidate, 0 ≤ ⟨alpha, n⟩ ≤ ⟨v, n⟩ + 1, and scanned its
    lattice-point count (rings.box_point_count).
    """
    ring = _same_ring(a, b)
    target, tv = exponent_pairings(ring, v)
    inside_a, outside_b, floors, floor_b = _splitting_data(a, b)
    inside_b = tuple((f, m + dot(target, f), s) for f, m, s in outside_b)
    runs = cut_runs(ring, tuple(map(sub, tv, floor_b)), floors, inside_a + inside_b)
    found = [(alpha, vsub(target, alpha)) for alpha, _ in run_points(ring, runs)]
    if len(tv) > ring.dim:
        found.sort()
    bounds = tuple(t + 1 for t in tv)
    return RefutationReport(target, bounds, box_point_count(ring, bounds), tuple(found))


# ---------------------------------------------------------------------------
# Lifting a closure gap to a multiplier-ideal gap
# ---------------------------------------------------------------------------

def huneke_swanson_construct(recipe: ConstructionRecipe) -> Construction:
    """Adjoin a coordinate and lift the recipe's closure gap upstairs.

    Validates the recipe's stated conditions — the closure gap at r and the
    shape of z_exponent — and raises RecipeInvalid naming the first one that
    fails. rZ ∈ closure(a·b) then holds unconditionally (split a convex
    combination for r over the generators of i_prime + j_prime and add z to
    each term) and is asserted; both closure memberships are facet tests on
    N(i_prime + j_prime) and N(a·b) (_in_closure). Whether a and b come out integrally
    closed and whether rZ escapes closure(a)·closure(b) depends on z; the
    result computes both exactly when they are first read. The lift does not
    depend on r, so it is built once per (base, closures, z) (_lift).
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
    r, _ = exponent_pairings(base, recipe.r)
    ci, cj = integral_closure(recipe.i_prime), integral_closure(recipe.j_prime)
    if not _in_closure(ideal_sum(recipe.i_prime, recipe.j_prime), r):
        raise RecipeInvalid("r is not in the closure of i_prime + j_prime")
    if contains_monomial(ideal_sum(ci, cj), r):
        raise RecipeInvalid("r lies in closure(i_prime) + closure(j_prime)")

    ring, z, a, b = _lift(base, ci, cj, tuple(recipe.z_exponent))
    r_z = vadd(r + (0,), z)
    assert _in_closure(product(a, b), r_z)
    return Construction(recipe, ring, a, b, r_z)


@lru_cache(maxsize=CACHE_SIZE)
def _lift(base: ToricRing, ci: MonomialIdeal, cj: MonomialIdeal, z_exponent: LatticePoint):
    """(ring, z, a, b): base with a coordinate adjoined, z_exponent as its lattice point, and
    a = closure(i_prime) + ⟨z⟩, b = closure(j_prime) + ⟨z⟩ upstairs. Memoized, as every gap
    point r of a skeleton lifts the same closures and z, explicit recipes alike."""
    d = base.dim
    ring = ring_from_dual_rays([q + (0,) for q in base.dual_rays] + [(0,) * d + (1,)])
    z, _ = exponent_pairings(ring, z_exponent)
    a = monomial_ideal(ring, [g + (0,) for g in ci.gens] + [z])
    b = monomial_ideal(ring, [g + (0,) for g in cj.gens] + [z])
    return ring, z, a, b


def _in_closure(a: MonomialIdeal, w: LatticePoint) -> bool:
    """Does the lattice point w lie in closure(a), that is in N(a)? A facet test, with no report."""
    return all(dot(w, h.normal) >= h.offset for h in newton_polyhedron(a).facets)


# ---------------------------------------------------------------------------
# Deterministic counterexample search
# ---------------------------------------------------------------------------

def _candidate_rings(dim: int, ray_bound: int) -> list[ToricRing]:
    """One ray for dim 1, else a ring per pair of primitive (x, y) in [0, ray_bound]², in lex order."""
    if dim == 1:
        return [ring_from_dual_rays([(1,)])]
    rays = [(x, y) for x in range(ray_bound + 1) for y in range(ray_bound + 1) if gcd(x, y) == 1]
    return [ring_from_dual_rays([r1, r2]) for r1, r2 in itertools.combinations(rays, 2)]


def _space_bounds(config: SearchConfig) -> tuple[int, int, int, int, int]:
    """The config fields that fix the skeleton space; seed, cap and explicit recipes do not."""
    return config.dim, config.ray_bound, config.gen_pairing_bound, config.z_pairing_bound, config.z_height_bound


@lru_cache(maxsize=CACHE_SIZE)
def _skeleton_space(dim: int, ray_bound: int, gen_pairing_bound: int, z_pairing_bound: int, z_height_bound: int):
    """(starts, blocks, total, z_height_bound): one block (ring, gens, rows, zs) per base ring.

    A block holds rows[-1] · |zs| · z_height_bound skeletons: every pair of
    generators with repetition, then every adjoined exponent, then every
    height; it begins at its entry of starts. rows[i] is the index of the
    pair (gens[i], gens[i]), the first of row i in combinations_with_replacement
    order. Only the point lists are built, never the skeletons.
    Memoized on the bounds (_space_bounds), so capped searches that differ
    in seed or cap share one space.
    """
    blocks = []
    for ring in _candidate_rings(dim, ray_bound):
        gens = tuple(g for g in semigroup_points(ring, gen_pairing_bound) if any(g))
        rows = tuple(itertools.accumulate(range(len(gens), 0, -1), initial=0))
        blocks.append((ring, gens, rows, tuple(semigroup_points(ring, z_pairing_bound))))
    *starts, total = itertools.accumulate((rows[-1] * len(zs) * z_height_bound for _, _, rows, zs in blocks), initial=0)
    return tuple(starts), tuple(blocks), total, z_height_bound


def _skeleton(space, index: int) -> tuple[ToricRing, LatticePoint, LatticePoint, LatticePoint]:
    """The skeleton at an index of the enumeration, decoded by mixed radix.

    The digits are, outermost first: the ring block, the pair (g1, g2) in
    combinations_with_replacement order, the adjoined exponent, its height.
    The block is the last whose start is at most the index, so a bisection
    steps over empty blocks that share a start; rows locate the pair the same way.
    """
    starts, blocks, _, height = space
    k = bisect_right(starts, index) - 1
    ring, gens, rows, zs = blocks[k]
    index, h = divmod(index - starts[k], height)
    pair, z = divmod(index, len(zs))
    i = bisect_right(rows, pair) - 1
    return ring, gens[i], gens[i + pair - rows[i]], zs[z] + (h + 1,)


def _skeletons(config: SearchConfig) -> Iterator[tuple[ToricRing, LatticePoint, LatticePoint, LatticePoint]]:
    """The skeletons a search examines, in enumeration order.

    Under a cap smaller than the enumeration, the seeded sample is drawn from
    the index range, so the space is counted but never materialized.
    """
    space = _skeleton_space(*_space_bounds(config))
    indices = range(space[2])
    cap = config.max_candidates
    if cap is not None and len(indices) > cap:
        indices = sorted(random.Random(config.seed).sample(indices, cap))
    for index in indices:
        yield _skeleton(space, index)


@lru_cache(maxsize=CACHE_SIZE)
def _gap_generators(ring: ToricRing, g1: LatticePoint, g2: LatticePoint):
    """Recipe candidates for r between ⟨g1⟩ and ⟨g2⟩, which are principal and
    so closed: minimal generators of closure(⟨g1⟩ + ⟨g2⟩) outside ⟨g1⟩ + ⟨g2⟩.
    If any point has the recipe's gap property, some minimal closure generator does too.
    Memoized on (ring, g1, g2), which skeletons and capped searches share.
    """
    i_prime = monomial_ideal(ring, [g1])
    j_prime = monomial_ideal(ring, [g2])
    both = ideal_sum(i_prime, j_prime)
    rs = tuple(r for r in integral_closure(both).gens if not contains_monomial(both, r))
    return i_prime, j_prime, rs


def search_counterexamples(config: SearchConfig) -> tuple[SearchHit, ...]:
    """Evaluate explicit recipes, then enumerated ones, deterministically.

    Every explicit recipe is built before any is evaluated, so a recipe that
    breaks the recipe conditions raises RecipeInvalid up front. Enumerated
    recipes meet those conditions by construction. Candidates are evaluated
    one after another in enumeration order, so the result depends only on
    the config (including its seed).
    """
    if config.dim < 1:
        raise ConfigInvalid("base dimension must be at least 1")
    if config.max_candidates is not None and config.max_candidates < 0:
        raise ConfigInvalid("max_candidates must be nonnegative")
    for bound_name in ("ray_bound", "gen_pairing_bound", "z_pairing_bound", "z_height_bound"):
        if getattr(config, bound_name) < 0:
            raise ConfigInvalid(f"{bound_name} must be nonnegative")
    if config.dim > 2:
        raise ConfigInvalid(f"search supports base dimension 1 or 2, not {config.dim}")

    explicit = [huneke_swanson_construct(r) for r in config.explicit_recipes]
    built = itertools.chain(explicit, map(huneke_swanson_construct, _enumerated_recipes(config)))
    verdicts = ((c, check_subadditivity(c.a, c.b)) for c in built)
    return tuple(SearchHit(c, v) for c, v in verdicts if not v.holds)


def _enumerated_recipes(config: SearchConfig) -> Iterator[ConstructionRecipe]:
    for ring, g1, g2, z in _skeletons(config):
        i_prime, j_prime, rs = _gap_generators(ring, g1, g2)
        yield from (ConstructionRecipe(ring, i_prime, j_prime, r, z) for r in rs)
