"""Run intervals against the per-point scans they replaced.

The lattice walk is a sequence of runs w + k u (rings.cut_runs), and along
a run every facet test is a half-line in k, so the walk cuts each run to
its passing points by integer division (rings.run_interval) for the
library's region and refutation scans. oracles.region_minimal_generators and
oracles.exhaustive_refute test every point of the same walk instead; the two
must agree exactly: the same generators, and the same refutation report
(bounds, scanned count, decompositions in order). Rings cover the pool,
seeded random simplicial rings in two and three dimensions, the seeded random
non-simplicial cones in three and four dimensions of test_clipped_walk, and
two cones, STEPPING_DOWN and a Gorenstein one in four dimensions, whose run
step left the exponent cone under the greedy basis of sigma rays in ray
order. The facet-first basis (ToricRing.sigma_lattice) steps along a dual
ray on every ring, which is tested on these and on seeded random cones.
Seeded random plane pairs of the two-dimensional property suite add their
products. rings.region_tests hands a region to the walk: the thresholds of
the sigma-ray facets are its floors, the least generator pairings (plus 1 on
the interior), and every other facet is a test with its step; that no facet
normal is a negated sigma ray, and that the runs from those floors cut to
those tests are the box points passing every threshold, is tested on every
ring.

The region walk starts at its floors, the least generator pairings with
the sigma rays (test_region_floors checks the walk from them), and stops at a
candidate pairing to its floor with every sigma ray after the first, which
is exact because the pairing with sigma ray 0 never decreases along the
walk; the start, the stop and that order are tested, with the runs a region
walks and reads pinned on small regions in 3-space, and on small plane
regions the rows of the cut box that rings.region_generators reads. On three
or more sigma rays the walk hands its candidates, as they come, to one
dominance pass (rings.antichain), with no list or minimalize: it must
keep what oracles.antichain_scan keeps of the same candidates listed, no
candidate may divide one offered before it, and a closure or multiplier
ideal on such a ring calls no minimalize.

Every cone's runs come from the one walk from the floors (rings.cut_runs),
each narrowed by its facet tests through rings.run_interval: closures,
multiplier ideals and refutations on three or more sigma rays, simplicial or
not, call no rings.lattice_points_in_box, also where the floors are no
lattice point's pairings. Only rings.region_generators, on two sigma rays,
reads the rows of a cut box, which starts at the first point of the walk
from the floors.
"""

import itertools
import random
from operator import le

import pytest

import oracles
from instances import POOL, STEPPING_DOWN, random_2d_ring, random_3d_ring, random_ideal, random_non_simplicial_rings
from toricmult import ideals, rings, subadditivity
from toricmult.ideals import integral_closure, monomial_ideal, newton_polyhedron, product, region_minimal_generators
from toricmult.linalg import dot, primitivize, vadd, vscale, vsub
from toricmult.multiplier import multiplier_ideal
from toricmult.rings import (
    lattice_points_in_box,
    ring_from_dual_rays,
    cut_runs,
    region_generators,
    region_tests,
    run_interval,
    semigroup_points,
)
from toricmult.subadditivity import exhaustive_refute


# The cone over a lattice polytope at height 1, so Gorenstein with u0 = e_4.
# The greedy basis, sigma rays 0 to 3, stepped by (1, 2, 4, -1), which pairs to
# -2 with the last sigma ray; the facet basis (0, 1, 3, 2) steps by the dual
# ray (1, -2, -4, 3).
GORENSTEIN_STEPPING_DOWN = ring_from_dual_rays(
    ((-1, -4, -2, 3), (-1, 0, 0, 1), (-1, 2, 0, 1), (0, 1, 1, 0), (1, -2, -4, 3), (1, 1, 2, 0))
)


def _rings():
    rng = random.Random(83)
    rings = [(name, ring_from_dual_rays(dual)) for name, dual, _, _ in POOL]
    rings += [(f"random-2d-{i}", random_2d_ring(rng, 5)) for i in range(8)]
    rings += [(f"random-3d-{i}", random_3d_ring(rng)) for i in range(5)]
    cones = random_non_simplicial_rings(71, 3, (4, 6), 30) + random_non_simplicial_rings(73, 4, (5, 6), 12)
    rings += [(f"non-simplicial-{ring.dim}d-{i}", ring) for i, ring in enumerate(cones)]
    rings += [("stepping-down-3d", STEPPING_DOWN), ("gorenstein-stepping-down-4d", GORENSTEIN_STEPPING_DOWN)]
    return rings


RINGS = _rings()
IDS = [name for name, _ in RINGS]
Q_GORENSTEIN = [(name, ring) for name, ring in RINGS if ring.q_gorenstein is not None]


def _simplicial(ring):
    return len(ring.sigma_rays) == ring.dim


def _climbs(ring):
    return min(ring.run_step[1]) >= 0


def _ideals(name, ring, count):
    """Ideals on generators of small pairing: the least bound with a few points."""
    rng = random.Random(name)
    bound = next(b for b in itertools.count(8 if ring.dim == 2 else 3) if len(semigroup_points(ring, b)) > 4)
    return [random_ideal(rng, ring, 3, bound) for _ in range(count)]


def test_the_rings_reach_every_kind_of_run():
    """Every ring's run step pairs >= 0 with every sigma ray: none steps down."""
    rings = dict(RINGS)
    assert rings["index-three-2d"].gorenstein_point() is None
    assert sum(_simplicial(ring) for ring in rings.values()) == 18
    assert {ring.dim for ring in rings.values() if not _simplicial(ring)} == {3, 4}
    assert sum(not _climbs(ring) for ring in rings.values()) == 0
    assert {name for name, ring in Q_GORENSTEIN if not _simplicial(ring)} == {
        "square-cone-3d",
        "non-simplicial-3d-11",
        "non-simplicial-3d-28",
        "gorenstein-stepping-down-4d",
    }
    assert _climbs(rings["stepping-down-3d"]) and _climbs(rings["gorenstein-stepping-down-4d"])


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_runs_expand_to_the_walk(name, ring):
    """In walk order on simplicial sigma; the walk sorts the points otherwise."""
    u, ut = ring.run_step
    assert ring.pairings(u) == ut
    if _simplicial(ring):
        assert ut[:-1] == (0,) * (ring.dim - 1) and ut[-1] > 0
    for bounds in itertools.product(range(0, 7, 3), repeat=len(ut)) if ring.dim < 4 else [(4,) * len(ut)]:
        expanded = [
            (vadd(w, vscale(k, u)), tuple(a + k * s for a, s in zip(t, ut)))
            for w, t, n in cut_runs(ring, bounds, (0,) * len(bounds), ())
            for k in range(n)
        ]
        assert all(t == ring.pairings(w) for w, t in expanded)
        assert (expanded if _simplicial(ring) else sorted(expanded)) == list(lattice_points_in_box(ring, bounds)), bounds


def _interior_pairings(ring):
    """Sigma pairings of a lattice point c interior to the exponent cone, one of least
    largest pairing. Each is >= 1, so g + c is interior to N(a) for a generator g."""
    for bound in itertools.count(1):
        inner = [t for t in map(ring.pairings, semigroup_points(ring, bound)) if min(t) > 0]
        if inner:
            return min(inner, key=max)


# Each ring with each region a walk is handed: the closure N(a) ∩ M, the interior
# of N(a) and, on Q-Gorenstein rings, the u0-shifted region of J(a).
REGIONS = [
    (name, ring, region)
    for name, ring in RINGS
    for region in ("closure", "interior") + (("u0",) if ring.q_gorenstein is not None else ())
]


@pytest.mark.parametrize("name, ring, region", REGIONS, ids=[f"{name}-{region}" for name, _, region in REGIONS])
def test_region_tests_read_the_floors_off_the_sigma_ray_facets(name, ring, region):
    """Closure, interior or u0-shifted thresholds of small ideals. The floors are the
    least generator pairings, plus 1 on the interior; the tests are the other
    thresholds in facet order, with their steps; no facet normal is a negated sigma
    ray; and the runs of boxes reaching a little past the generators, from the floors
    and cut to the tests, are the box points that pass every threshold."""
    rng = random.Random(f"{name}-{region}-region-tests")
    u, ut = ring.run_step
    sigma = ring.sigma_rays
    shift = ring.canonical_pair() if region == "u0" else ((0,) * ring.dim, 1) if region == "interior" else None
    slack = 4 if ring.dim == 2 else 2
    reach = _interior_pairings(ring) if region == "interior" else (0,) * len(sigma)
    nonempty = 0
    for ideal in _ideals(name, ring, 2):
        least, most = (tuple(map(extreme, zip(*ideal.pairings))) for extreme in (min, max))
        poly = newton_polyhedron(ideal)
        thresholds = oracles.shifted_thresholds(poly, oracles.rational_shift(shift))
        floors, tests = region_tests(ring, poly, shift)
        assert floors == tuple(m + (region == "interior") for m in least)
        assert tests == tuple((f, m, dot(u, f)) for f, m in thresholds if f not in sigma)
        assert not any(vscale(-1, f) in sigma for f, _ in thresholds)
        for _ in range(2):
            bounds = tuple(m + r + rng.randint(0, slack) for m, r in zip(most, reach))
            runs = list(cut_runs(ring, bounds, floors, tests))
            walked = [
                (vadd(w, vscale(k, u)), tuple(a + k * s for a, s in zip(t, ut)))
                for w, t, n in runs
                for k in range(n)
            ]
            box = [
                (w, t)
                for w, t in lattice_points_in_box(ring, bounds)
                if all(dot(w, f) >= m for f, m in thresholds)
            ]
            assert (walked if _simplicial(ring) else sorted(walked)) == box, bounds
            nonempty += bool(box)
    assert nonempty


def _scan(w, u, lo, hi, tests):
    return [k for k in range(lo, hi + 1) if all(dot(vadd(w, vscale(k, u)), f) >= m for f, m in tests)]


def _random_runs(rng, count):
    """(w, u, lo, hi, tests) with -8 <= lo <= 8, at most 12 values of k in [lo, hi], and up to
    four tests in one to four dimensions."""
    for _ in range(count):
        dim = rng.randint(1, 4)
        w, u = ([rng.randint(-6, 6) for _ in range(dim)] for _ in range(2))
        tests = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-12, 12))
            for _ in range(rng.randint(0, 4))
        ]
        lo = rng.randint(-8, 8)
        yield w, u, lo, lo + rng.randint(-1, 11), tests


def test_run_interval_matches_the_per_point_scan():
    """Empty intervals (hi = lo - 1) on which no test has a gap come first, then random
    intervals, starting below, at and above k = 0."""
    empty = [((0,), (1,), 0, -1, tests) for tests in ([], [((1,), -5)], [((0,), 0)], [((1,), 3), ((-1,), -9)])]
    steps, starts, shapes = set(), set(), set()
    for w, u, lo, hi, tests in itertools.chain(empty, _random_runs(random.Random(97), 3000)):
        steps.update((s > 0) - (s < 0) for s in (dot(u, f) for f, _ in tests))
        starts.add((lo > 0) - (lo < 0))
        first, last = run_interval(w, lo, hi, [(f, m, dot(u, f)) for f, m in tests])
        passing = _scan(w, u, lo, hi, tests)
        assert list(range(first, last + 1)) == passing, (w, u, lo, hi, tests)
        if not passing:
            assert first > last, (w, u, lo, hi, tests)
        shapes.add("empty" if not passing else "full" if len(passing) == hi - lo + 1 else "part")
    assert steps == {1, 0, -1}
    assert starts == {1, 0, -1}
    assert shapes == {"empty", "full", "part"}


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_run_interval_is_where_the_run_meets_the_region(name, ring):
    u, _ = ring.run_step
    for a in _ideals(name, ring, 2):
        for shift in (None, ring.canonical_shift()) if ring.q_gorenstein else (None,):
            tests = oracles.shifted_thresholds(newton_polyhedron(a), shift)
            steps = [(f, m, dot(u, f)) for f, m in tests]
            for w in semigroup_points(ring, 2):
                passing = _scan(w, u, 0, 11, tests)
                for n in range(13):
                    lo, hi = run_interval(w, 0, n - 1, steps)
                    assert list(range(lo, hi + 1)) == [j for j in passing if j < n], (w, n)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_region_generators_match_the_per_point_scan(name, ring):
    """Closures on every ring; multiplier regions where u0 exists."""
    for a in _ideals(name, ring, 4):
        poly = newton_polyhedron(a)
        for shift in (None, ring.canonical_pair()) if ring.q_gorenstein else (None,):
            assert region_minimal_generators(a, shift) == oracles.region_minimal_generators(ring, poly, shift)


def test_region_generators_match_the_per_point_scan_on_random_plane_pairs():
    """a, b and ab of sixty pairs drawn as in the two-dimensional property
    suite, as closures and as multiplier regions."""
    rng = random.Random(4111)
    for _ in range(60):
        ring = random_2d_ring(rng, bound=7)
        a, b = (random_ideal(rng, ring, max_gens=4, pairing_bound=30) for _ in range(2))
        for ideal in (a, b, product(a, b)):
            poly = newton_polyhedron(ideal)
            for shift in (None, ring.canonical_pair()):
                assert region_minimal_generators(ideal, shift) == oracles.region_minimal_generators(ring, poly, shift)


@pytest.mark.parametrize("name, ring", RINGS, ids=IDS)
def test_runs_come_in_order_of_the_first_sigma_pairing(name, ring):
    """Sigma ray 0 leads the Hermite basis, and a run's step does not move its pairing."""
    assert ring.sigma_lattice[0][0] == 0
    if ring.dim >= 2:
        assert ring.run_step[1][0] == 0
    rays = len(ring.sigma_rays)
    for bounds in itertools.product(range(0, 7, 3), repeat=rays) if ring.dim < 4 else [(4,) * rays]:
        firsts = [t[0] for _, t, _ in cut_runs(ring, bounds, (0,) * rays, ())]
        assert firsts == sorted(firsts), bounds


def test_the_run_step_lies_on_a_dual_ray_of_every_ring():
    """The facet-first basis on every ring above and 210 more seeded random
    non-simplicial cones: sigma ray 0 leads, the basis rays but the last are
    orthogonal to one dual ray, and the run step is a positive multiple of it,
    pairing >= 0 with every sigma ray and 0 with sigma ray 0. On simplicial
    sigma the basis is every ray in order."""
    cones = random_non_simplicial_rings(179, 3, (4, 7), 150) + random_non_simplicial_rings(181, 4, (5, 7), 60)
    for ring in [ring for _, ring in RINGS] + cones:
        basis = ring.sigma_lattice[0]
        assert basis[0] == 0
        if _simplicial(ring):
            assert basis == tuple(range(ring.dim))
        facet = [ring.sigma_rays[i] for i in basis[:-1]]
        assert any(all(dot(r, n) == 0 for n in facet) for r in ring.dual_rays)
        u, ut = ring.run_step
        assert primitivize(u) in ring.dual_rays
        assert min(ut) >= 0 and ut[0] == 0


def _plane_rows(monkeypatch, a, shift):
    """(generators, rows the staircase read, rows of its cut box) of one region call on a plane
    ring: rings.lattice_points_in_box wrapped, as the bench tracer wraps it, the box's rows
    counted in full and the rows it yielded to rings.region_generators before the walk stopped."""
    read, walked = [], []
    listed = rings.lattice_points_in_box

    def counted(ring, bounds):
        walked.append(len(list(listed(ring, bounds))))
        for row in listed(ring, bounds):
            read.append(row)
            yield row

    monkeypatch.setattr(rings, "lattice_points_in_box", counted)
    gens = region_minimal_generators(a, shift)
    assert gens == oracles.region_minimal_generators(a.ring, newton_polyhedron(a), shift)
    assert len(walked) == 1
    return gens, len(read), walked[0]


def _region_runs(monkeypatch, a, shift):
    """(generators, runs the region read, runs of its walk) of one region call on three or more
    sigma rays: the walk counted without the region's thresholds, the runs read as cut to them.
    The box scan of the oracle walks rings.cut_runs too, so it runs before the walk is counted."""
    read, walked = [], []
    scanned = oracles.region_minimal_generators(a.ring, newton_polyhedron(a), shift)

    def counted(ring, bounds, floors, tests):
        walked.append(len(list(cut_runs(ring, bounds, floors, ()))))
        for run in cut_runs(ring, bounds, floors, tests):
            read.append(run)
            yield run

    monkeypatch.setattr("toricmult.rings.cut_runs", counted)
    gens = region_minimal_generators(a, shift)
    monkeypatch.undo()
    assert gens == scanned
    assert len(walked) == 1
    return gens, len(read), walked[0]


def test_the_region_walk_stops_at_a_candidate_on_every_floor(monkeypatch):
    """The walk goes by powers of y, one row each. J(<x^2, y^3>) = <x, y>: y
    lies on the floor 0 of the facet x >= 0, so the walk stops on its second
    row. The closure region of <x> stops on its first row, at x on the floor
    1 of the facet x >= 1; the facet y >= 0 has the lower threshold 0."""
    plane = ring_from_dual_rays(((1, 0), (0, 1)))
    a = monomial_ideal(plane, [(2, 0), (0, 3)])
    assert _plane_rows(monkeypatch, a, plane.canonical_pair()) == (((0, 1), (1, 0)), 2, 4)
    assert _plane_rows(monkeypatch, monomial_ideal(plane, [(1, 0)]), None) == (((1, 0),), 1, 2)


def test_the_solid_region_walk_stops_at_a_candidate_on_every_floor(monkeypatch):
    """In 3-space the walk goes by powers of z, then of y, one run along x
    each. The closure of <x^2, y^3, z^2> has the facet 3x + 2y + 3z >= 6 and
    the floors 0: it walks the 20 runs z = 0..3, y = 0..4, and reads the 10
    with z < 2 and the first with z = 2, stopping at z^2 on the floors of y
    and x. Its J is the unit ideal, at the origin: 1 run read of 12."""
    space = ring_from_dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    a = monomial_ideal(space, [(2, 0, 0), (0, 3, 0), (0, 0, 2)])
    closure = ((0, 0, 2), (0, 2, 1), (0, 3, 0), (1, 0, 1), (1, 2, 0), (2, 0, 0))
    assert _region_runs(monkeypatch, a, None) == (closure, 11, 20)
    assert _region_runs(monkeypatch, a, space.canonical_pair()) == (((0, 0, 0),), 1, 12)


def test_the_region_walk_starts_at_its_floors(monkeypatch):
    """N(<x^3 y^5, x^5 y^3>) has the facets y >= 3 and x >= 3, so its regions'
    walks start at y = 3: the closure's cut box holds the 4 rows y = 3..6 and
    the staircase reads 3, stopping at x^3 y^5 on the floor 3 of x; from the
    origin it walked 7 and read 6. J's box holds 3 rows and the staircase
    reads 2, where it walked 6 and read 5."""
    plane = ring_from_dual_rays(((1, 0), (0, 1)))
    a = monomial_ideal(plane, [(3, 5), (5, 3)])
    assert _plane_rows(monkeypatch, a, None) == (((3, 5), (4, 4), (5, 3)), 3, 4)
    assert _plane_rows(monkeypatch, a, plane.canonical_pair()) == (((3, 4), (4, 3)), 2, 3)


def test_the_solid_region_walk_starts_at_its_floors(monkeypatch):
    """N(<x^3 y^5 z^2, x^5 y^3 z^2, x^3 y^3 z^4>) is x + y + z >= 10 over the
    facets z >= 2, y >= 3 and x >= 3, so the closure walks the 16 runs
    z = 2..5, y = 3..6, not the 42 from the origin, and reads 9, stopping at
    x^3 y^3 z^4 on the floors of y and x. J = <x^3 y^3 z^2>: its walk of 9
    runs stops on the first, at the floors."""
    space = ring_from_dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    a = monomial_ideal(space, [(3, 5, 2), (5, 3, 2), (3, 3, 4)])
    closure = ((3, 3, 4), (3, 4, 3), (3, 5, 2), (4, 3, 3), (4, 4, 2), (5, 3, 2))
    assert _region_runs(monkeypatch, a, None) == (closure, 9, 16)
    assert _region_runs(monkeypatch, a, space.canonical_pair()) == (((3, 3, 2),), 1, 9)
    floors = region_tests(space, newton_polyhedron(a), None)[0]
    assert floors == (2, 3, 3)
    assert sum(1 for _ in cut_runs(space, (5, 6, 6), (0, 0, 0), ())) == 42


def test_only_the_first_member_of_a_run_can_be_minimal():
    """The run step u of STEPPING_DOWN lies in the exponent cone, as on every
    ring, so g - u in the region would divide g: no closure generator follows
    another region member of its run."""
    a = monomial_ideal(STEPPING_DOWN, [(-2, -3, 4), (0, -1, 4)])
    poly = newton_polyhedron(a)
    gens = region_minimal_generators(a, None)
    assert gens == oracles.closure_scan(a.gens, STEPPING_DOWN.dual_rays, STEPPING_DOWN.sigma_rays)
    tests = oracles.shifted_thresholds(poly, None)
    before = [vsub(g, STEPPING_DOWN.run_step[0]) for g in gens]
    assert len(gens) == 5
    assert sum(min(STEPPING_DOWN.pairings(p)) >= 0 and all(dot(p, f) >= m for f, m in tests) for p in before) == 0


# The rings whose regions the walk of cut_runs hands to rings.antichain as it goes.
WALKED = [(name, ring) for name, ring in RINGS if len(ring.sigma_rays) >= 3]


def listed_candidates(ring, bounds, floors, tests):
    """The list-and-scan walk's candidates: the first members of the runs of cut_runs, listed
    up to the first on every floor after the first."""
    candidates = []
    for w, t, _ in cut_runs(ring, bounds, floors, tests):
        candidates.append((w, t))
        if t[1:] == floors[1:]:
            break
    return candidates


def _spy(monkeypatch, names, calls, module=rings):
    """Rebind each named function of module, rings by default, to a wrapper that records
    (name, args) in calls and then makes the call."""
    for name in names:
        original = getattr(module, name)

        def call(*args, name=name, original=original):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(module, name, call)


def _floors_off_the_lattice(ring, points):
    """An ideal of two of the points on a simplicial sigma whose floors, its least pairings, are no
    lattice point's pairings: H k = floors, H the Hermite form of ToricRing.sigma_lattice, solved
    row by row, has no integer k. None if there is none."""
    hnf = ring.sigma_lattice[1]
    for g, h in itertools.combinations(points, 2):
        k = []
        for row, f in zip(hnf, map(min, ring.pairings(g), ring.pairings(h))):
            k.append((f - dot(row, k)) // row[len(k)])
            if dot(row, k) != f:
                return monomial_ideal(ring, [g, h])


@pytest.mark.parametrize("name, ring", WALKED, ids=[name for name, _ in WALKED])
def test_every_cone_walks_its_regions_from_the_floors_with_no_cut_box(name, ring, monkeypatch):
    """With the memos emptied, closures, and multiplier ideals and refutations where u0 exists,
    on three or more sigma rays read their runs off rings.cut_runs, from the floors that
    ideals hands rings.region_generators or that refutations hand cut_runs, and call no
    rings.lattice_points_in_box. On a simplicial sigma whose Hermite form is not the identity,
    one ideal's floors are no lattice point's pairings, and its closure is walked from them."""
    rng = random.Random(name + "-no-cut-box")
    bound = next(b for b in itertools.count(3) if len(semigroup_points(ring, b)) > 8)
    points = [w for w in semigroup_points(ring, bound) if any(w)]
    picked = [monomial_ideal(ring, rng.sample(points, 4)) for _ in range(3)]
    above = _floors_off_the_lattice(ring, points) if _simplicial(ring) else None
    if above:
        picked.append(above)
    else:
        assert not _simplicial(ring) or all(row[i] == 1 for i, row in enumerate(ring.sigma_lattice[1]))
    a, b = picked[-1], picked[0]
    targets = [vadd(g, p) for g in product(a, b).gens[:2] for p in semigroup_points(ring, 2)[:3]]
    walks, calls = [], []
    _spy(monkeypatch, ["region_generators"], walks, ideals)
    _spy(monkeypatch, ["cut_runs"], walks, subadditivity)
    _spy(monkeypatch, ["lattice_points_in_box"], calls)
    for layer in (integral_closure, multiplier_ideal):
        layer.cache_clear()
    for x in picked:
        integral_closure(x)
        if ring.q_gorenstein is not None:
            multiplier_ideal(x)
    if ring.q_gorenstein is not None:
        for v in targets:
            exhaustive_refute(v, a, b)
    monkeypatch.undo()
    walked = {args[2] for _, args in walks}
    assert calls == [] and walked
    if above:
        assert tuple(map(min, *above.pairings)) in walked


def test_a_plane_closure_reads_its_rows_off_the_cut_box(monkeypatch):
    """On two sigma rays rings.region_generators starts its cut box at the first point of one
    rings.cut_runs walk from the region's floors, with no tests, and reads its rows through one
    rings.lattice_points_in_box call per region, which walks cut_runs itself, from zero floors."""
    ring = dict(RINGS)["index-three-2d"]
    a = monomial_ideal(ring, [(3, 5), (5, 3)])
    calls = []
    _spy(monkeypatch, ["lattice_points_in_box", "cut_runs"], calls)
    integral_closure.cache_clear()
    assert integral_closure(a).gens
    assert [name for name, _ in calls] == ["cut_runs", "lattice_points_in_box", "cut_runs"]
    (_, (_, _, floors, tests)), _, (_, (_, _, zeros, _)) = calls
    assert floors == tuple(map(min, *a.pairings)) and tests == () and zeros == (0, 0)


@pytest.mark.parametrize("name, ring", WALKED, ids=[name for name, _ in WALKED])
def test_the_online_walk_is_the_listed_walk_scanned(name, ring, monkeypatch):
    """On three or more sigma rays region_minimal_generators keeps the minimal candidates as
    the walk offers them, with no list. Closures, and multiplier regions where u0 exists, give
    oracles.antichain_scan over the same candidates listed with the same stop, from the bounds,
    floors and tests the region handed rings.region_generators; no candidate divides one
    offered before it, the divisor-first order the one pass rests on; and some candidates are
    not minimal."""
    walks = []

    def recorded(*args):
        walks.append(args)
        return region_generators(*args)

    monkeypatch.setattr("toricmult.ideals.region_generators", recorded)
    rng = random.Random(name + "-online")
    bound = next(b for b in itertools.count(3) if len(semigroup_points(ring, b)) > 4) + 2
    dropped = 0
    for a in [random_ideal(rng, ring, 4, bound) for _ in range(4)]:
        for shift in (None, ring.canonical_pair()) if ring.q_gorenstein else (None,):
            walks.clear()
            gens = region_minimal_generators(a, shift)
            (walk,) = walks
            candidates = listed_candidates(*walk)
            assert gens == oracles.antichain_scan(candidates), (a.gens, shift)
            ts = [t for _, t in candidates]
            assert not any(all(map(le, t, s)) for i, s in enumerate(ts) for t in ts[i + 1 :]), (a.gens, shift)
            dropped += len(candidates) - len(gens)
    assert dropped


def test_closures_and_multiplier_ideals_on_three_rays_call_no_minimalize(monkeypatch):
    """With the ideals built and the memos emptied, the closure and J of the paper's ideal
    and of a square-cone ideal, and the closure of an ideal on STEPPING_DOWN, which has no
    u0, walk their regions with no minimalize."""
    rings = dict(RINGS)
    paper = monomial_ideal(rings["counterexample-3d"], [(2, 4, 0), (4, 2, 0), (0, 0, 3)])
    square = monomial_ideal(rings["square-cone-3d"], [(4, 0, 4), (0, 4, 4), (-4, 0, 4), (0, -4, 4)])
    stepping = monomial_ideal(STEPPING_DOWN, [(-2, -3, 4), (0, -1, 4)])
    for layer in (newton_polyhedron, integral_closure, multiplier_ideal):
        layer.cache_clear()
    calls = []
    monkeypatch.setattr("toricmult.ideals.minimalize", lambda *args: calls.append(args))
    walked = [integral_closure(a).gens + multiplier_ideal(a).gens for a in (paper, square)]
    walked.append(integral_closure(stepping).gens)
    assert calls == [] and list(map(len, walked)) == [17, 82, 5]


@pytest.mark.parametrize("name, ring", Q_GORENSTEIN, ids=[name for name, _ in Q_GORENSTEIN])
def test_refutation_reports_match_the_per_point_scan(name, ring):
    """Targets are product generators plus small monomials, so many split."""
    a, b, c = _ideals(name, ring, 3)
    rng = random.Random(name + "-targets")
    points = semigroup_points(ring, 4 if ring.dim == 2 else 3)
    split = 0
    for x, y in ((a, b), (b, a), (a, c)):
        for v in [vadd(g, p) for g in product(x, y).gens[:2] for p in rng.sample(points, min(4, len(points)))]:
            report = exhaustive_refute(v, x, y)
            assert report == oracles.exhaustive_refute(v, x, y), v
            split += bool(report.decompositions)
    assert split >= 2
