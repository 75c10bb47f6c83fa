"""The factor test of check_subadditivity against the product scan it replaced.

A generator w of J(ab) lies in J(a)·J(b) exactly when some generator g of
J(a) divides it with w − g in J(b). The verdict used to build the product
J(a)·J(b) and ask contains_monomial of it for every generator of J(ab); that
scan is the reference here. The two must give the same witnesses, in the same
order, on seeded pairs over every pool ring (the index-three ring included),
on the pairs of acceptance criterion 4, on the search hits of the small-hits
and singular-bases configs, on the square-cone violation and on the paper's
example. The product is still a verdict's j_product, built on first read.
A pair with a principal factor holds with no factor test: J(<g>) = <g> and
J(g + b) = g + J(b) = J(<g>)·J(b). On two sigma rays the paper's edge-region
split decides first, so plane pairs reach the factor test only where the split
does not place a generator, which an edge-region table with wrong witnesses forces;
there the split must place exactly what a linear scan of the other factor's J places.
"""

import itertools
import random
from operator import le
from pathlib import Path

import pytest

from instances import POOL, pool_rings, random_2d_ring, random_3d_ring, random_ideal, random_non_simplicial_rings
from toricmult import subadditivity
from toricmult.builtin_example import instance
from toricmult.ideals import contains_monomial, monomial_ideal, product, region_minimal_generators
from toricmult.problemio import load_problem, load_search_config
from toricmult.rings import ring_from_dual_rays, semigroup_points
from toricmult.subadditivity import Side, check_subadditivity, search_counterexamples

TESTS = Path(__file__).parent


def _scan_witnesses(verdict):
    j_product = product(verdict.j_a, verdict.j_b)
    return tuple(w for w in verdict.j_ab.gens if not contains_monomial(j_product, w))


def _pool_pairs():
    rng = random.Random(61)
    for name, dual, _, _ in POOL:
        ring = ring_from_dual_rays(dual)
        if ring.dim == 2:
            for i in range(8):
                yield f"{name}-{i}", random_ideal(rng, ring, 4, 12), random_ideal(rng, ring, 4, 12)
            continue
        # as the solid3d benchmark draws them: a shared generator makes witnesses common
        pts = [w for w in semigroup_points(ring, 3) if any(w)]
        for i in range(30):
            shared = rng.choice(pts)
            a, b = (monomial_ideal(ring, rng.sample(pts, rng.randint(1, 2)) + [shared]) for _ in "ab")
            yield f"{name}-{i}", a, b


def _criterion_4_pairs():
    """The 200 random plane pairs of acceptance criterion 4, drawn with its seed."""
    rng = random.Random(41)
    for i in range(200):
        ring = random_2d_ring(rng, bound=7)
        a = random_ideal(rng, ring, max_gens=4, pairing_bound=30)
        yield f"criterion-4-{i}", a, random_ideal(rng, ring, max_gens=4, pairing_bound=30)


def _pinned_pairs():
    for config in ("small_hits_search.json", "singular_bases_search.json"):
        for i, hit in enumerate(search_counterexamples(load_search_config(str(TESTS / config)))):
            yield f"{config}-hit-{i}", hit.construction.a, hit.construction.b
    violation = load_problem(str(TESTS / "square_cone_violation.json"))
    yield "square-cone-violation", violation.ideal("a"), violation.ideal("b")
    _, a, b = instance()
    yield "paper", a, b


GROUPS = {
    "pool": list(_pool_pairs()),
    "criterion-4": list(_criterion_4_pairs()),
    "pinned": list(_pinned_pairs()),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_the_factor_test_finds_the_witnesses_of_the_product_scan(group):
    for name, a, b in GROUPS[group]:
        verdict = check_subadditivity(a, b)
        assert verdict.witnesses == _scan_witnesses(verdict), name
        assert verdict.holds == (not verdict.witnesses), name


def test_the_pairs_reach_both_verdicts():
    failing = {group: sum(not check_subadditivity(a, b).holds for _, a, b in pairs) for group, pairs in GROUPS.items()}
    # 2D subadditivity is a theorem; the pool's 3D pairs and the pinned ones fail often
    assert failing["criterion-4"] == 0
    assert failing["pool"] > 0
    assert failing["pinned"] == len(GROUPS["pinned"]) == 9


def test_the_witnesses_have_no_factor():
    """Replaying a witness as the verdict's docstring says: no generator of J(a)
    dividing it leaves the rest in J(b), and it is not in j_product."""
    for name, a, b in GROUPS["pinned"]:
        verdict = check_subadditivity(a, b)
        ring = a.ring
        for w in verdict.witnesses:
            t = ring.pairings(w)
            for g, tg in zip(verdict.j_a.gens, verdict.j_a.pairings):
                if all(x <= y for x, y in zip(tg, t)):
                    assert not contains_monomial(verdict.j_b, tuple(p - q for p, q in zip(w, g))), (name, w, g)
            assert not contains_monomial(verdict.j_product, w), (name, w)


def test_the_product_is_built_on_first_read():
    """Building a verdict (past the memo) asks the product memo for ab alone, not for
    J(a)·J(b); the first read of j_product builds it there, a second read is a memo hit,
    and equality of verdicts ignores it."""
    for name, a, b in GROUPS["pinned"] + GROUPS["pool"][:6]:
        product.cache_clear()
        verdict = check_subadditivity.__wrapped__(a, b)
        assert product.cache_info()[:2] == (0, 1), name  # (hits, misses): ab
        product.cache_clear()
        first = verdict.j_product
        assert product.cache_info()[:2] == (0, 1), name
        assert verdict.j_product is first
        assert product.cache_info()[:2] == (1, 1), name
        assert first == product.__wrapped__(verdict.j_a, verdict.j_b), name
        assert verdict == check_subadditivity.__wrapped__(a, b), name


def _principal_factor_pairs():
    """30 seeded pairs per ring, with a principal factor on one side or the other, over the
    Q-Gorenstein rings of the pool and seeded 2D, 3D and non-simplicial ones."""
    rng = random.Random(67)
    rings = [ring for _, ring in pool_rings()]
    rings += [random_2d_ring(rng, bound=5) for _ in range(4)]
    rings += [random_3d_ring(rng) for _ in range(3)]
    rings += [ring for ring in random_non_simplicial_rings(3011, 3, (4, 5), 60) if ring.q_gorenstein][:2]
    for ring in rings:
        bound = next(b for b in itertools.count(6 if ring.dim == 2 else 3) if len(semigroup_points(ring, b)) > 4)
        points = [w for w in semigroup_points(ring, bound) if any(w)]
        for i in range(30):
            principal = monomial_ideal(ring, [rng.choice(points)])
            other = random_ideal(rng, ring, max_gens=3, pairing_bound=bound)
            yield (principal, other) if i % 2 else (other, principal)


PRINCIPAL_PAIRS = list(_principal_factor_pairs())


def test_a_pair_with_a_principal_factor_holds_with_nothing_to_report():
    assert len(PRINCIPAL_PAIRS) == 450
    for a, b in PRINCIPAL_PAIRS:
        verdict = check_subadditivity(a, b)
        assert verdict.holds and verdict.witnesses == () and verdict.certificates == (), (a, b)
        assert verdict.j_product == verdict.j_ab, (a, b)


def test_the_factor_test_finds_a_factor_when_one_factor_is_principal():
    """Replayed on J's computed by region walks, not by the closed form, the factor test
    finds for every generator w of J(ab) a generator g of J(a) dividing it with w − g in J(b)."""
    for a, b in PRINCIPAL_PAIRS:
        verdict = check_subadditivity(a, b)
        u0 = a.ring.canonical_shift()
        for x, j in ((product(a, b), verdict.j_ab), (a, verdict.j_a), (b, verdict.j_b)):
            assert j.gens == region_minimal_generators(x, u0), (a, b, x)
        factors = list(zip(verdict.j_a.gens, verdict.j_a.pairings))
        for w, t in zip(verdict.j_ab.gens, verdict.j_ab.pairings):
            assert any(
                all(map(le, tg, t)) and contains_monomial(verdict.j_b, tuple(p - q for p, q in zip(w, g)))
                for g, tg in factors
            ), (a, b, w)


@pytest.fixture
def factor_tests(monkeypatch):
    """The (ideal, point) of every contains_monomial call made by subadditivity."""
    calls = []

    def spy(ideal, w):
        calls.append((ideal, w))
        return contains_monomial(ideal, w)

    monkeypatch.setattr(subadditivity, "contains_monomial", spy)
    return calls


def _plane_pairs():
    return GROUPS["criterion-4"] + [(name, a, b) for name, a, b in GROUPS["pool"] if a.ring.dim == 2]


def test_the_edge_region_split_decides_every_plane_pair(factor_tests):
    """On two sigma rays each generator of J(ab) is placed by its edge region's witness and
    a pairing vector of J(other), with no factor test; 3D pairs still reach the factor test."""
    decided = 0
    for name, a, b in _plane_pairs():
        verdict = check_subadditivity.__wrapped__(a, b)
        assert verdict.holds, name
        decided += len(a.gens) > 1 and len(b.gens) > 1
    assert factor_tests == [] and decided >= 50
    for name, a, b in GROUPS["pool"]:
        if a.ring.dim == 3 and len(a.gens) > 1 and len(b.gens) > 1:
            check_subadditivity.__wrapped__(a, b)
    assert factor_tests


def _wrong_regions(monkeypatch, wrong):
    """Rebind subadditivity._edge_regions so that each region names a member of a factor that
    need not split: its witness moved far out along the cone (far) or one run step out
    (stepped), or the other factor's first generator (swapped)."""
    edge_regions = subadditivity._edge_regions

    def wrong_regions(a, b):
        regions = edge_regions(a, b)
        if wrong == "swapped":
            return tuple((f0, f1, Side.FROM_B, b.gens[0]) if side is Side.FROM_A else (f0, f1, Side.FROM_A, a.gens[0])
                         for f0, f1, side, _ in regions)
        far = tuple(map(sum, zip(*a.ring.dual_rays))) if wrong == "far" else a.ring.run_step[0]
        k = 1000 if wrong == "far" else 1
        return tuple((f0, f1, side, tuple(x + k * y for x, y in zip(g, far))) for f0, f1, side, g in regions)

    monkeypatch.setattr(subadditivity, "_edge_regions", wrong_regions)


@pytest.mark.parametrize("wrong", ["far", "swapped"])
def test_a_split_with_wrong_witnesses_falls_back_to_the_factor_test(monkeypatch, factor_tests, wrong):
    """The split stays sound under witnesses that do not split (_wrong_regions), as each is
    still a member of its factor, and the factor test decides what it does not place, so plane
    verdicts still equal the product scan."""
    _wrong_regions(monkeypatch, wrong)
    for name, a, b in _plane_pairs():
        verdict = check_subadditivity.__wrapped__(a, b)
        assert verdict.witnesses == _scan_witnesses(verdict), name
    assert factor_tests


def test_the_split_places_exactly_what_a_scan_of_the_other_j_places(monkeypatch):
    """Every plane verdict holds by the paper's theorem, so a split that accepts too much
    changes no verdict; this pins the split itself. Under each table of witnesses that need
    not split (_wrong_regions), a generator w of J(ab) reaches the factor test, the one
    caller of subadditivity.vsub in the check, exactly when its first region whose floors t
    clears is none, or a linear scan of J(other) finds no pairing vector <= t − t(witness)
    entrywise. Some w are placed, and some reach the test though a pairing vector misses
    by one in the second pairing alone."""
    reached, placed, near = [], 0, 0

    def spy(w, g):
        reached.append(w)
        return vsub(w, g)

    vsub = subadditivity.vsub
    for wrong in ("far", "swapped", "stepped"):
        with monkeypatch.context() as patch:
            _wrong_regions(patch, wrong)
            patch.setattr(subadditivity, "vsub", spy)
            for name, a, b in _plane_pairs():
                reached.clear()
                verdict = check_subadditivity.__wrapped__(a, b)
                if len(a.gens) == 1 or len(b.gens) == 1:
                    continue
                regions = subadditivity._edge_regions(a, b)
                others = {Side.FROM_A: verdict.j_b.pairings, Side.FROM_B: verdict.j_a.pairings}
                for w, (t0, t1) in zip(verdict.j_ab.gens, verdict.j_ab.pairings):
                    region = next(((side, g) for f0, f1, side, g in regions if t0 >= f0 and t1 >= f1), None)
                    gaps = []
                    if region:
                        g0, g1 = a.ring.pairings(region[1])
                        gaps = [(h0 - t0 + g0, h1 - t1 + g1) for h0, h1 in others[region[0]]]
                    fits = any(d0 <= 0 and d1 <= 0 for d0, d1 in gaps)
                    assert (w in reached) == (not fits), (wrong, name, w)
                    placed += fits
                    near += not fits and any(d0 <= 0 and d1 == 1 for d0, d1 in gaps)
    assert placed and near
