"""End-to-end command-line coverage, run in-process via main(argv)."""

import hashlib
import json
from pathlib import Path

import pytest

from toricmult.cli import main

PROBLEM = {
    "ring": {"dual_cone_rays": [[2, 1, 0], [1, 2, 0], [0, 0, 1]]},
    "ideals": {
        "a": [[2, 4, 0], [10, 6, 2]],
        "b": [[12, 7, 0], [10, 6, 2]],
        "ab": [[12, 10, 2], [14, 11, 0], [20, 12, 4], [22, 13, 2]],
    },
}

PROBLEM_2D = {
    "ring": {"dual_cone_rays": [[2, 1], [1, 2]]},
    "ideals": {"i": [[2, 4]], "j": [[12, 7]]},
}

RECIPE = {
    "base_ring": {"dual_cone_rays": [[2, 1], [1, 2]]},
    "i_prime": [[2, 4]],
    "j_prime": [[12, 7]],
    "r": [8, 6],
    "z_exponent": [10, 6, 2],
}

SEARCH_CONFIG = {
    "dim": 2,
    "ray_bound": 1,
    "gen_pairing_bound": 3,
    "z_pairing_bound": 2,
    "z_height_bound": 1,
    "max_candidates": 0,
    "seed": 5,
    "explicit_recipes": [RECIPE],
}


# Every command that reads named ideals, with the number of names it takes.
NAMES_TAKEN = [("newton", 1), ("closure", 1), ("multiplier", 1), ("subadd", 2), ("refute", 2)]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for name, doc in [
        ("problem", PROBLEM),
        ("problem2d", PROBLEM_2D),
        ("config", SEARCH_CONFIG),
    ]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(doc))
        out[name] = str(p)
    return out


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNewton:
    def test_text(self, capsys, paths):
        code, out, _ = run(capsys, "newton", "--input", paths["problem"], "--ideals", "a")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ring: dual cone rays (0, 0, 1), (1, 2, 0), (2, 1, 0)"
        assert lines[1] == "ideal a = <x^2y^4, x^10y^6z^2>"
        assert lines[2] == "Newton polyhedron: 5 facets, 2 vertices"
        assert lines[3] == "  <(-1, 2, 0), w> >= 2"
        assert lines[-2] == "vertices: (2, 4, 0), (10, 6, 2)"
        assert lines[-1].startswith("elapsed: ")

    def test_json(self, capsys, paths):
        code, out, _ = run(
            capsys, "newton", "--input", paths["problem"], "--ideals", "a", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "ring", "ideal", "generators", "facets", "vertices"]
        assert doc["facets"] == [
            {"normal": [-1, 2, 0], "offset": 2},
            {"normal": [-1, 2, 2], "offset": 6},
            {"normal": [-1, 4, 0], "offset": 14},
            {"normal": [0, 0, 1], "offset": 0},
            {"normal": [2, -1, 0], "offset": 0},
        ]
        assert "elapsed" not in out

    def test_four_dimensional_antichain_is_frozen(self, capsys):
        # the 600 points of the sphere |w - (22, 22, 22, 22)|^2 = 462 inside
        # the box [0, 22]^4: an antichain whose points are all vertices. The
        # double description runs warm from the orthant, so no cone on the
        # way is dual to a polytope with hundreds of vertices; the digest was
        # taken from the points-first cold start that this replaced
        problem = Path(__file__).parent / "newton_4d_antichain.json"
        code, out, _ = run(capsys, "newton", "--input", str(problem), "--ideals", "a", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (len(doc["generators"]), len(doc["facets"]), len(doc["vertices"])) == (600, 907, 600)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ede37978d720b01e881cbdc0a66105b1b58021195115a6621ca13441d791ee5d"
        )

    def test_plane_convex_antichain_is_frozen(self, capsys):
        # x^i y^((600 - i)^2), i = 0..600: every point is a vertex of the lower
        # convex chain, read off the staircase with no elimination; the digest
        # was taken from the double description that this replaced
        problem = Path(__file__).parent / "plane_convex_antichain.json"
        code, out, _ = run(capsys, "newton", "--input", str(problem), "--ideals", "a", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (len(doc["generators"]), len(doc["facets"]), len(doc["vertices"])) == (601, 602, 601)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a681aa9374c28c80bb70f9d2f69fabe7ab3c5e529a4229b5da46c3401dd0269f"
        )


class TestClosureAndMultiplier:
    def test_closure_reports_the_gap(self, capsys, paths):
        code, out, _ = run(
            capsys, "closure", "--input", paths["problem"], "--ideals", "a", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["closure_generators"] == [
            [2, 4, 0], [5, 5, 1], [6, 5, 1], [9, 6, 2], [10, 6, 2]
        ]
        assert doc["already_closed"] is False

    def test_multiplier_text(self, capsys, paths):
        code, out, _ = run(capsys, "multiplier", "--input", paths["problem"], "--ideals", "b")
        assert code == 0
        assert "canonical point u0 = (1, 1, 1)" in out
        assert "multiplier ideal = <x^10y^6z, x^11y^7, x^12y^7>" in out

    def test_multiplier_json(self, capsys, paths):
        code, out, _ = run(
            capsys, "multiplier", "--input", paths["problem"], "--ideals", "a", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical_point"] == ["1", "1", "1"]
        assert doc["multiplier_generators"] == [
            [2, 4, 0], [3, 4, 0], [4, 4, 0], [7, 5, 1], [8, 5, 1]
        ]


    def test_large_determinant_multiplier_is_frozen(self, capsys, tmp_path):
        # sigma rays (0,1), (200,-1): det 200, so the sigma box around x^200 y
        # holds about 200 times more points than the lattice does
        problem = tmp_path / "skewed.json"
        problem.write_text(json.dumps({
            "ring": {"dual_cone_rays": [[1, 0], [1, 200]]},
            "ideals": {"a": [[200, 1]]},
        }))
        code, out, _ = run(
            capsys, "multiplier", "--input", str(problem), "--ideals", "a", "--format", "json"
        )
        assert code == 0
        assert out == (Path(__file__).parent / "skewed_multiplier.json").read_text()

    def test_large_determinant_multiplier_walks(self, capsys):
        # the principal ideal above is its own multiplier ideal and needs no walk; adding
        # x^2 y^3 on the same ring makes J a region walk over the det-200 lattice
        problem = Path(__file__).parent / "skewed_pair_multiplier.json"
        code, out, _ = run(capsys, "multiplier", "--input", str(problem), "--ideals", "b", "--format", "json")
        assert code == 0
        assert json.loads(out)["multiplier_generators"] == [[2, 2], [2, 3], [101, 1]]

    def test_large_exponents_multiplier(self, capsys):
        problem = Path(__file__).parent / "plane_large_exponents.json"
        code, out, _ = run(capsys, "multiplier", "--input", str(problem), "--ideals", "a", "--format", "json")
        assert code == 0
        assert json.loads(out)["multiplier_generators"] == [[i, 599 - i] for i in range(600)]

    def test_far_from_origin_multiplier(self, capsys):
        # the paper's ideal moved k = 600 steps out; the region walk starts at
        # the facet thresholds on the sigma rays, not at the origin
        problem = Path(__file__).parent / "far_from_origin_multiplier.json"
        code, out, _ = run(capsys, "multiplier", "--input", str(problem), "--ideals", "a", "--format", "json")
        assert code == 0
        assert json.loads(out)["multiplier_generators"] == [
            [3600, 3600, 1802],
            [3601, 3601, 1801],
            [3601, 3602, 1800],
            [3602, 3601, 1800],
            [3602, 3602, 1800],
        ]

    def test_square_cone_multiplier(self, capsys):
        # non-simplicial, so its runs are clipped; 2 e^2 + 2 e + 1 generators at e = 20
        problem = Path(__file__).parent / "square_cone_multiplier.json"
        code, out, _ = run(capsys, "multiplier", "--input", str(problem), "--ideals", "a", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["multiplier_generators"]) == 841


class TestSubadd:
    def test_failure_exits_one_with_witnesses(self, capsys, paths):
        code, out, _ = run(capsys, "subadd", "--input", paths["problem"], "--ideals", "a", "b")
        assert code == 1
        assert "subadditivity holds: no" in out
        assert "witness x^13y^10 = (13, 10, 0)" in out
        assert "witness x^17y^11z = (17, 11, 1)" in out

    def test_failure_json(self, capsys, paths):
        code, out, _ = run(
            capsys, "subadd", "--input", paths["problem"], "--ideals", "a", "b",
            "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["witnesses"] == [[13, 10, 0], [17, 11, 1]]
        assert all(cert["contained"] for cert in doc["witness_certificates"])

    def test_success_exits_zero(self, capsys, paths):
        code, out, _ = run(capsys, "subadd", "--input", paths["problem2d"], "--ideals", "i", "j")
        assert code == 0
        assert "subadditivity holds: yes" in out


class TestRefute:
    def test_refutation_holds(self, capsys, paths):
        code, out, _ = run(
            capsys, "refute", "--input", paths["problem"], "--ideals", "a", "b",
            "--target", "18,12,2",
        )
        assert code == 0
        assert "target (18, 12, 2), sigma-pairing bounds (7, 3, 25)" in out
        assert "scanned 280 lattice points" in out
        assert "decompositions found: 0 (refutation holds)" in out

    def test_monomial_sugar_for_the_target(self, capsys, paths):
        plain = run(
            capsys, "refute", "--input", paths["problem"], "--ideals", "a", "b",
            "--target", "18,12,2", "--format", "json",
        )
        sugar = run(
            capsys, "refute", "--input", paths["problem"], "--ideals", "a", "b",
            "--target", "x^18y^12z^2", "--format", "json",
        )
        assert plain == sugar

    def test_a_splittable_target_exits_one(self, capsys, paths):
        code, out, _ = run(
            capsys, "refute", "--input", paths["problem"], "--ideals", "a", "b",
            "--target", "14,11,2", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["decompositions"]
        for d in doc["decompositions"]:
            assert [x + y for x, y in zip(d["alpha"], d["beta"])] == [14, 11, 2]

    def test_a_negative_first_coordinate_is_a_target(self, capsys):
        # x^-1 z^3 on the square cone: a comma-form value starting with '-' is the
        # target, not an option, and reads as the --target=-1,0,3 form does
        problem = str(Path(__file__).parent / "square_cone_violation.json")
        argv = ["refute", "--input", problem, "--ideals", "a", "b", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--target", "-1,0,3")
        assert (code, out) == run(capsys, *argv, "--target=-1,0,3")[:2]
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == [-1, 0, 3]
        assert doc["bounds"] == [5, 5, 3, 3]
        assert doc["scanned"] == 20
        assert doc["decompositions"] == []

    def test_large_target_on_the_square_cone_is_frozen(self, capsys):
        # a non-simplicial ring, so every Hermite run of the sigma box is
        # clipped by the fourth sigma ray; the digest was taken from the
        # per-point filtered walk that the clipping replaced
        problem = Path(__file__).parent / "square_cone_refute.json"
        code, out, _ = run(
            capsys, "refute", "--input", str(problem), "--ideals", "a", "b",
            "--target", "0,0,80", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["bounds"] == [81, 81, 81, 81]
        assert doc["scanned"] == 91_922
        assert len(doc["decompositions"]) == 82_160
        assert doc["decompositions"][0] == {"alpha": [-38, 1, 40], "beta": [38, -1, 40]}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "91ea43fd4328281ccc6fc4db7c07482033d1dded4dc8c57aa7ec57026fcaffb4"
        )


class TestVerifyPaper:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) >= 10
        assert all(c["ok"] for c in doc["checks"])

    def test_text_shows_per_check_lines(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        checks = [line for line in out.splitlines() if line.startswith("[ok  ]")]
        total = len(checks)
        assert f"{total}/{total} checks passed" in out

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        first = run(capsys, "verify-paper", "--format", "json")
        second = run(capsys, "verify-paper", "--format", "json")
        assert first == second

    def test_a_tampered_fixture_fails(self, capsys, tmp_path):
        fixture = tmp_path / "facets.json"
        fixture.write_text(json.dumps({"a": [{"normal": [0, 0, 1], "offset": 5}]}))
        code, out, _ = run(
            capsys, "verify-paper", "--expect-facets", str(fixture), "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert any(not c["ok"] for c in doc["checks"])

    def test_a_malformed_fixture_is_a_usage_error(self, capsys, tmp_path):
        fixture = tmp_path / "facets.json"
        fixture.write_text(json.dumps({"a": [{"normal": [0, 0, 1]}]}))
        code, _, err = run(capsys, "verify-paper", "--expect-facets", str(fixture))
        assert code == 2
        assert "facet fixture" in err


class TestSearch:
    def test_explicit_recipe_hit(self, capsys, paths):
        code, out, _ = run(capsys, "search", "--input", paths["config"])
        assert code == 0
        assert "rZ = (18, 12, 2)" in out
        assert "escaping generators: (13, 10, 0), (17, 11, 1)" in out
        assert "search complete: 1 counterexample found" in out

    def test_thread_count_never_changes_the_bytes(self, capsys, paths):
        runs = [
            run(capsys, "search", "--input", paths["config"], "--cap", "25",
                "--threads", str(t), "--format", "json")
            for t in (1, 2)
        ]
        assert runs[0] == runs[1]
        doc = json.loads(runs[0][1])
        assert doc["count"] == 1
        assert doc["config"]["max_candidates"] == 25

    def test_flag_overrides_land_in_the_report(self, capsys, paths):
        code, out, _ = run(
            capsys, "search", "--input", paths["config"], "--seed", "77", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 77


class TestErrors:
    def test_unknown_ideal_name(self, capsys, paths):
        code, out, err = run(capsys, "subadd", "--input", paths["problem"], "--ideals", "a", "zz")
        assert code == 2 and out == ""
        assert err.strip() == "error: no ideal named 'zz' (defined: a, ab, b)"

    @pytest.mark.parametrize("command, count", NAMES_TAKEN)
    @pytest.mark.parametrize("offset", (-1, 1), ids=("too-few", "too-many"))
    def test_a_wrong_number_of_ideal_names(self, capsys, paths, command, count, offset):
        names = ["a"] * (count + offset)
        extra = ["--target", "18,12,2"] if command == "refute" else []
        code, out, err = run(capsys, command, "--input", paths["problem"], "--ideals", *names, *extra)
        assert (code, out) == (2, "")
        if offset < 0:
            plural = "s" if count > 1 else ""
            assert err == f"error: argument --ideals: expected {count} argument{plural}\n"
        else:
            assert err == "error: unrecognized arguments: a\n"

    def test_the_name_count_is_checked_before_the_file_is_read(self, capsys):
        code, _, err = run(capsys, "newton", "--input", "/no/such/file.json", "--ideals", "a", "b")
        assert code == 2
        assert err == "error: unrecognized arguments: b\n"

    def test_unknown_problem_keys(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**PROBLEM, "junk": 1}))
        code, _, err = run(capsys, "closure", "--input", str(bad), "--ideals", "a")
        assert code == 2
        assert "error: unknown problem keys: junk" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "newton", "--input", "/no/such/file.json", "--ideals", "a")
        assert code == 2
        assert "cannot read" in err

    def test_zero_dual_ray_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "zero_ray.json"
        bad.write_text(json.dumps({
            "ring": {"dual_cone_rays": [[0, 0], [1, 1]]},
            "ideals": {"a": [[1, 1]]},
        }))
        code, out, err = run(capsys, "closure", "--input", str(bad), "--ideals", "a")
        assert code == 2 and out == ""
        assert err == "error: ring.dual_cone_rays[0] is the zero vector\n"

    def test_argparse_usage_errors(self, capsys, paths):
        code, _, _ = run(capsys, "newton", "--ideals", "a")  # missing --input
        assert code == 2
        code, _, _ = run(capsys, "no-such-command")
        assert code == 2
