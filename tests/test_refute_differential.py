"""Standing differential check: product membership against exhaustive refutation.

On a Gorenstein ring u0 is a lattice point, so a generator w of J(ab) lies in
J(a)·J(b) exactly when w + u0 splits as alpha + beta with alpha interior to
N(a) and beta + u0 interior to N(b): alpha - u0 is then the J(a) factor.
exhaustive_refute scans those splittings; contains_monomial decides the same
question through the generators of J(a)·J(b). The two must agree on every
generator of J(ab), failing verdicts included.
"""

import random

import pytest

from instances import POOL, random_ideal
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
        if not ring.is_gorenstein:
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
