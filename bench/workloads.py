"""The three workloads: seeded inputs, the timed library calls, output checks.

Inputs are generated here from the seed with the benchmark's own code, as
plain tuples, so that edits to the test suite cannot change a workload. Each
workload has three parts:

- inputs(seed, count): the items, built before timing starts;
- run(item): the library calls of one item, which are what gets timed;
- check(item, result) and encode(result): the output check, run after
  timing, and the JSON form of the result that goes into the digest.

Library functions are looked up on the toricmult package at call time, so a
traced run sees the wrappers installed there.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

import toricmult as tm
from toricmult import builtin_example

# search: capped calls over the default SearchConfig bounds, whose base rings
# all have det 1.
SEARCH_CAP = 16
PAPER_WITNESSES = ((13, 10, 0), (17, 11, 1))

# plane2d: the sampler of acceptance criterion 4.
PLANE_RAY_BOUND = 7
PLANE_MAX_GENS = 4
PLANE_PAIRING_BOUND = 30

# solid3d: (dual rays, sigma rays) of the paper's ring (simplicial, det 3) and
# of the cone over a square (non-simplicial, Gorenstein). Sigma rays are
# listed in the library's lexicographic order.
SOLID_RINGS = (
    (((2, 1, 0), (1, 2, 0), (0, 0, 1)), ((-1, 2, 0), (0, 0, 1), (2, -1, 0))),
    (
        ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
        ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)),
    ),
)
SOLID_PAIRING_BOUND = 3
SOLID_OWN_GENS = 2


def _pts(points) -> list:
    return [list(p) for p in points]


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Input generators (no library calls)
# ---------------------------------------------------------------------------

def random_2d_dual_rays(rng: random.Random, bound: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two primitive, linearly independent rays with entries in [-bound, bound]."""
    while True:
        r1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        r2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if r1 == (0, 0) or r2 == (0, 0):
            continue
        if r1[0] * r2[1] - r1[1] * r2[0] == 0:
            continue
        r1 = tuple(c // gcd(*r1) for c in r1)
        r2 = tuple(c // gcd(*r2) for c in r2)
        return r1, r2


def sigma_rays_2d(r1, r2) -> tuple[tuple[int, int], ...]:
    """Primitive inner facet normals of cone(r1, r2), sorted lexicographically."""
    normals = []
    for r, other in ((r1, r2), (r2, r1)):
        n = (-r[1], r[0])
        if _dot(n, other) < 0:
            n = (r[1], -r[0])
        normals.append(n)
    return tuple(sorted(normals))


def simplicial_box_points(sigma, bound: int) -> list[tuple[int, ...]]:
    """Lattice w with 0 <= <w, n> <= bound for each of the two sigma rays n.

    Walks the sigma-coordinate box t in lexicographic order and keeps the t
    with an integral preimage, which is the order the library's
    semigroup_points uses, so seeded samples match the acceptance suite's.
    """
    (a, b), (c, d) = sigma
    det = a * d - b * c
    out = []
    for t0, t1 in itertools.product(range(bound + 1), repeat=2):
        x, y = d * t0 - b * t1, -c * t0 + a * t1
        if x % det == 0 and y % det == 0:
            out.append((x // det, y // det))
    return out


def primal_box_points(sigma, bound: int) -> list[tuple[int, ...]]:
    """Lattice w in [-bound, bound]^3, lexicographic, with 0 <= <w, n> <= bound.

    For the two solid3d rings every such point lies in that cube.
    """
    return [
        w
        for w in itertools.product(range(-bound, bound + 1), repeat=3)
        if all(0 <= _dot(w, n) <= bound for n in sigma)
    ]


def _random_gens(rng: random.Random, candidates, max_gens: int) -> tuple:
    return tuple(rng.sample(candidates, rng.randint(1, min(max_gens, len(candidates)))))


# ---------------------------------------------------------------------------
# search: one item is one capped search_counterexamples call
# ---------------------------------------------------------------------------

def search_inputs(seed: int, count: int) -> list[tuple[int, bool]]:
    """(config seed, carries the packaged recipe) per call; the first call carries it."""
    rng = random.Random(seed)
    return [(rng.randrange(2**32), i == 0) for i in range(count)]


def search_run(item):
    config_seed, with_recipe = item
    recipes = (builtin_example.recipe(),) if with_recipe else ()
    config = tm.SearchConfig(max_candidates=SEARCH_CAP, seed=config_seed, explicit_recipes=recipes)
    return tm.search_counterexamples(config)


def search_check(item, hits) -> list[str]:
    problems = []
    if item[1]:
        paper = builtin_example.recipe()
        found = [h.verdict.witnesses for h in hits if h.construction.recipe == paper]
        if found != [PAPER_WITNESSES]:
            problems.append(f"packaged recipe gave witnesses {found}, not {PAPER_WITNESSES}")
    for hit in hits:
        verdict, built = hit.verdict, hit.construction
        u0 = built.ring.gorenstein_point()
        if not verdict.witnesses or u0 is None:
            problems.append(f"hit without witnesses or canonical point: {verdict.witnesses}")
            continue
        for w in verdict.witnesses:
            if tm.contains_monomial(verdict.j_product, w):
                problems.append(f"witness {w} lies in J(a)J(b)")
            report = tm.exhaustive_refute(tuple(a + b for a, b in zip(w, u0)), built.a, built.b)
            if report.decompositions:
                problems.append(f"witness {w} splits as {report.decompositions[0]}")
    return problems


def search_encode(hits) -> list:
    out = []
    for hit in hits:
        rec = hit.construction.recipe
        out.append([
            [_pts(rec.base_ring.dual_rays), _pts(rec.i_prime.gens), _pts(rec.j_prime.gens), list(rec.r), list(rec.z_exponent)],
            _pts(hit.verdict.witnesses),
            _pts(hit.verdict.j_ab.gens),
        ])
    return out


# ---------------------------------------------------------------------------
# plane2d: one item is one random 2D pair, checked and decomposed
# ---------------------------------------------------------------------------

def plane_inputs(seed: int, count: int) -> list:
    """(dual rays, a gens, b gens), drawn as acceptance criterion 4 draws them."""
    rng = random.Random(seed)
    candidates: dict = {}
    items = []
    for _ in range(count):
        rays = random_2d_dual_rays(rng, PLANE_RAY_BOUND)
        sigma = sigma_rays_2d(*rays)
        if sigma not in candidates:
            candidates[sigma] = [w for w in simplicial_box_points(sigma, PLANE_PAIRING_BOUND) if any(w)]
        pts = candidates[sigma]
        items.append((rays, _random_gens(rng, pts, PLANE_MAX_GENS), _random_gens(rng, pts, PLANE_MAX_GENS)))
    return items


def plane_run(item):
    rays, a_gens, b_gens = item
    ring = tm.ring_from_dual_rays(rays)
    a, b = tm.monomial_ideal(ring, a_gens), tm.monomial_ideal(ring, b_gens)
    verdict = tm.check_subadditivity(a, b)
    splits = [tm.decompose_2d(g, a, b) for g in verdict.j_ab.gens]
    return a, b, verdict, splits


def plane_check(item, result) -> list[str]:
    a, b, verdict, splits = result
    problems = [] if verdict.holds else [f"subadditivity fails at {verdict.witnesses}"]
    u0 = a.ring.canonical_shift()
    for g, d in zip(verdict.j_ab.gens, splits):
        source = a if d.side is tm.Side.FROM_A else b
        back = tuple(w + r - u for w, r, u in zip(d.witness, d.remainder, u0))
        if not (d.witness in source.gens and d.remainder_check.contained and back == g):
            problems.append(f"split of {g} does not recompose")
    return problems


def plane_encode(result) -> list:
    a, b, verdict, splits = result
    return [
        verdict.holds,
        _pts(verdict.j_ab.gens),
        _pts(verdict.j_a.gens),
        _pts(verdict.j_b.gens),
        [[d.side.value, list(d.witness), [str(x) for x in d.remainder], d.region_index] for d in splits],
    ]


# ---------------------------------------------------------------------------
# solid3d: one item is one 3D instance, checked and refuted exhaustively
# ---------------------------------------------------------------------------

def solid_inputs(seed: int, count: int) -> list:
    """(dual rays, a gens, b gens), alternating the two rings.

    a and b share one random generator besides up to SOLID_OWN_GENS of their
    own, as the paper's a and b share x^10 y^6 z^2; that is what makes
    witnesses common.
    """
    rng = random.Random(seed)
    candidates = [[w for w in primal_box_points(sigma, SOLID_PAIRING_BOUND) if any(w)] for _, sigma in SOLID_RINGS]
    items = []
    for i in range(count):
        k = i % len(SOLID_RINGS)
        pts = candidates[k]
        shared = rng.choice(pts)
        a_gens = _random_gens(rng, pts, SOLID_OWN_GENS) + (shared,)
        b_gens = _random_gens(rng, pts, SOLID_OWN_GENS) + (shared,)
        items.append((SOLID_RINGS[k][0], a_gens, b_gens))
    return items


def solid_run(item):
    rays, a_gens, b_gens = item
    ring = tm.ring_from_dual_rays(rays)
    a, b = tm.monomial_ideal(ring, a_gens), tm.monomial_ideal(ring, b_gens)
    verdict = tm.check_subadditivity(a, b)
    u0 = ring.gorenstein_point()
    reports = [tm.exhaustive_refute(tuple(x + y for x, y in zip(g, u0)), a, b) for g in verdict.j_ab.gens]
    return verdict, reports


def solid_check(item, result) -> list[str]:
    verdict, reports = result
    return [
        f"refutation of {g} disagrees with the verdict"
        for g, rep in zip(verdict.j_ab.gens, reports)
        if (g in verdict.witnesses) != (not rep.decompositions)
    ]


def solid_encode(result) -> list:
    verdict, reports = result
    return [
        _pts(verdict.witnesses),
        _pts(verdict.j_ab.gens),
        [[rep.scanned, list(rep.bounds), len(rep.decompositions)] for rep in reports],
    ]


# name -> (inputs, run, check, encode, items per calibrated second on the seed
# code); a run has rate * --seconds items.
WORKLOADS = {
    "search": (search_inputs, search_run, search_check, search_encode, 20.0),
    "plane2d": (plane_inputs, plane_run, plane_check, plane_encode, 37.0),
    "solid3d": (solid_inputs, solid_run, solid_check, solid_encode, 31.0),
}
