"""Standing differential check: product membership against exhaustive refutation.

On a Gorenstein ring u0 is a lattice point, so a generator w of J(ab) lies in
J(a)·J(b) exactly when w + u0 splits as alpha + beta with alpha interior to
N(a) and beta + u0 interior to N(b): alpha - u0 is then the J(a) factor.
exhaustive_refute scans those splittings; contains_monomial decides the same
question through the generators of J(a)·J(b). The two must agree on every
generator of J(ab), failing verdicts included.

Elsewhere u0 is not a lattice point, and refute answers only its own question:
the splittings of a lattice point v into lattice points alpha interior to N(a)
and beta with beta + u0 interior to N(b). On the index-three plane ring and
seeded plane rings of index r > 1, its splittings must be those of a Fraction
scan of the reported box over Fourier-Motzkin rows of N(a) and N(b).
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from instances import POOL, random_2d_dual_rays, random_ideal
from toricmult.builtin_example import instance
from toricmult.ideals import contains_monomial, monomial_ideal
from toricmult.linalg import vadd
from toricmult.rings import ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import check_subadditivity, exhaustive_refute

# 3D pairs are drawn as the solid3d benchmark draws them: generators with
# sigma pairings at most 3, up to two of each ideal's own plus one shared,
# as the paper's a and b share x^10 y^6 z^2.
SOLID_PAIRING_BOUND = 3
SOLID_OWN_GENS = 2


def _sample(rng, candidates, max_gens):
    return rng.sample(candidates, rng.randint(1, min(max_gens, len(candidates))))


def _gorenstein_pairs():
    _, a, b = instance()
    pairs = [("paper", a, b)]
    rng = random.Random(59)
    for name, dual, _, _ in POOL:
        ring = ring_from_dual_rays(dual)
        if ring.gorenstein_point() is None:
            continue
        if ring.dim == 2:
            for i in range(8):
                pairs.append((f"{name}-{i}", random_ideal(rng, ring, 4, 12), random_ideal(rng, ring, 4, 12)))
            continue
        pts = [w for w in semigroup_points(ring, SOLID_PAIRING_BOUND) if any(w)]
        for i in range(12):
            shared = rng.choice(pts)
            a, b = (monomial_ideal(ring, _sample(rng, pts, SOLID_OWN_GENS) + [shared]) for _ in "ab")
            pairs.append((f"{name}-{i}", a, b))
    return pairs


PAIRS = _gorenstein_pairs()


@pytest.mark.parametrize("a, b", [p[1:] for p in PAIRS], ids=[p[0] for p in PAIRS])
def test_product_membership_agrees_with_exhaustive_refutation(a, b):
    verdict = check_subadditivity(a, b)
    u0 = a.ring.gorenstein_point()
    for w in verdict.j_ab.gens:
        in_product = contains_monomial(verdict.j_product, w)
        splits = exhaustive_refute(vadd(w, u0), a, b).decompositions
        assert in_product == bool(splits), w
        assert in_product == (w not in verdict.witnesses), w


def test_the_pairs_include_a_failing_verdict():
    assert not check_subadditivity(*PAIRS[0][1:]).holds


def _non_gorenstein_plane_rings():
    """(name, dual rays) of the index-three pool ring and seven seeded plane rings of index > 1."""
    rings = [(name, dual) for name, dual, _, _ in POOL if name == "index-three-2d"]
    rng = random.Random(61)
    while len(rings) < 8:
        dual = random_2d_dual_rays(rng, 4)
        if ring_from_dual_rays(dual).q_gorenstein[1] > 1:
            rings.append((f"random-2d-{len(rings)}", dual))
    return rings


NON_GORENSTEIN = _non_gorenstein_plane_rings()
TARGETS_PER_RING = 24


@pytest.mark.parametrize("name, dual", NON_GORENSTEIN, ids=[name for name, _ in NON_GORENSTEIN])
def test_refute_off_gorenstein_rings_finds_the_lattice_splittings(name, dual):
    """Every splitting v = alpha + beta with alpha interior to N(a) and beta + u0 interior to
    N(b), alpha and beta lattice points, over the reported box 0 <= <alpha, n> <= bounds,
    tested on Fraction rows with u0 solved independently."""
    ring = ring_from_dual_rays(dual)
    sigma = oracles.sigma_rays_2d(*dual)
    assert sigma == ring.sigma_rays
    w0, r = oracles.q_gorenstein(sigma)
    assert r > 1
    u0 = tuple(Fraction(c, r) for c in w0)
    rng = random.Random(name)
    a, b = random_ideal(rng, ring, 3, 8), random_ideal(rng, ring, 3, 8)
    region_a, region_b = (oracles.hull_region(x.gens, dual) for x in (a, b))
    k = next(k for k in itertools.count(16) if len(oracles.box_points(sigma, (k, k))) > 2 * TARGETS_PER_RING)
    targets = rng.sample(oracles.box_points(sigma, (k, k)), TARGETS_PER_RING)
    split = 0
    for v in targets:
        report = exhaustive_refute(v, a, b)
        box = oracles.box_points(sigma, report.bounds)
        expected = sorted(
            (alpha, oracles.vsub(v, alpha))
            for alpha in box
            if region_a.contains(alpha, strict=True)
            and region_b.contains(oracles.vadd(oracles.vsub(v, alpha), u0), strict=True)
        )
        assert sorted(report.decompositions) == expected, v
        assert report.bounds == tuple(oracles.dot(v, n) + 1 for n in sigma), v
        assert report.scanned == len(box), v
        split += bool(expected)
    assert 0 < split < TARGETS_PER_RING
