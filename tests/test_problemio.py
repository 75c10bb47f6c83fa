"""Parsing of problem files, recipes, and configs; JSON report payloads."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from toricmult.errors import ConfigInvalid
from toricmult.geometry import membership
from toricmult.ideals import monomial_ideal, newton_polyhedron
from toricmult.multiplier import multiplier_membership
from toricmult.problemio import (
    format_point,
    load_problem,
    load_search_config,
    membership_json,
    parse_monomial,
    parse_point,
    parse_point_arg,
    parse_problem,
    parse_recipe,
    parse_search_config,
    point_json,
    rat_point_json,
    render_monomial,
    render_rational,
    render_report,
    ring_json,
    search_config_json,
)
from toricmult.rings import ring_from_dual_rays
from toricmult.subadditivity import SearchConfig

PROBLEM_DOC = {
    "ring": {"dual_cone_rays": [[2, 1, 0], [1, 2, 0], [0, 0, 1]]},
    "ideals": {"a": [[2, 4, 0], [10, 6, 2]], "b": ["x^12y^7", [10, 6, 2]]},
}


class TestRationals:
    def test_rendering_never_uses_decimals(self):
        assert render_rational(Fraction(5, 16)) == "5/16"
        assert render_rational(Fraction(-2, 3)) == "-2/3"
        assert render_rational(Fraction(6, 2)) == "3"
        rng = random.Random(31)
        for _ in range(100):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert Fraction(render_rational(q)) == q


class TestMonomials:
    @pytest.mark.parametrize(
        "text,dim,expected",
        [
            ("1", 3, (0, 0, 0)),
            ("x^2z", 3, (2, 0, 1)),
            ("x^12y^7", 3, (12, 7, 0)),
            ("x*y", 2, (1, 1)),
            ("y", 2, (0, 1)),
        ],
    )
    def test_parsing(self, text, dim, expected):
        assert parse_monomial(text, dim) == expected

    @pytest.mark.parametrize(
        "text,dim", [("xx", 2), ("x^2x", 2), ("w", 2), ("z", 2), ("x", 4), ("", 2), (" ", 2), ("*", 2)]
    )
    def test_rejections(self, text, dim):
        with pytest.raises(ConfigInvalid):
            parse_monomial(text, dim)

    def test_rendering(self):
        assert render_monomial((2, 0, 1)) == "x^2z"
        assert render_monomial((1, 1, 1)) == "xyz"
        assert render_monomial((0, 0)) == "1"
        with pytest.raises(ConfigInvalid, match="dimension <= 3"):
            render_monomial((1, 0, 0, 1))

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(60):
            dim = rng.randint(1, 3)
            w = tuple(rng.randint(0, 9) for _ in range(dim))
            assert parse_monomial(render_monomial(w), dim) == w


class TestPoints:
    def test_vector_and_string_forms_are_interchangeable(self):
        assert parse_point([12, 7, 0], 3) == (12, 7, 0)
        assert parse_point("x^12y^7", 3) == (12, 7, 0)

    @pytest.mark.parametrize("bad", [[1, 2], [1, True, 0], [1, "2", 3], 7, None])
    def test_malformed_vectors_are_rejected(self, bad):
        with pytest.raises(ConfigInvalid):
            parse_point(bad, 3)

    def test_command_line_points(self):
        assert parse_point_arg("18,12,2", 3) == (18, 12, 2)
        assert parse_point_arg("x^18y^12z^2", 3) == (18, 12, 2)
        with pytest.raises(ConfigInvalid):
            parse_point_arg("18,12", 3)
        with pytest.raises(ConfigInvalid):
            parse_point_arg("18;12;2", 3)

    def test_formatting_stays_exact(self):
        assert format_point((Fraction(2, 3), 1)) == "(2/3, 1)"


class TestProblemFiles:
    def test_a_full_document(self):
        problem = parse_problem(PROBLEM_DOC)
        assert problem.ring == ring_from_dual_rays(((2, 1, 0), (1, 2, 0), (0, 0, 1)))
        assert problem.ideal("a").gens == ((2, 4, 0), (10, 6, 2))
        assert problem.ideal("b").gens == ((10, 6, 2), (12, 7, 0))

    def test_missing_ideals_report_what_exists(self):
        problem = parse_problem(PROBLEM_DOC)
        with pytest.raises(ConfigInvalid, match=r"no ideal named 'zz' \(defined: a, b\)"):
            problem.ideal("zz")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"ring": PROBLEM_DOC["ring"], "junk": 1}, "unknown problem keys: junk"),
            ({"ideals": {}}, "needs a 'ring' entry"),
            ({"ring": {"dual_rays": [[1, 0]]}}, "unknown ring keys: dual_rays"),
            ({"ring": {"dual_cone_rays": []}}, "nonempty list"),
            ({"ring": {"dual_cone_rays": [[1, 0], [1, 2, 0]]}}, "dual cone ray must be a list of 2 integers"),
            ({"ring": PROBLEM_DOC["ring"], "ideals": {"a": 3}}, "list of generators"),
            ({"ring": {"dual_cone_rays": [[1, 1], [0, 0]]}}, r"dual_cone_rays\[1\] is the zero vector"),
        ],
    )
    def test_malformed_documents(self, doc, message):
        with pytest.raises(ConfigInvalid, match=message):
            parse_problem(doc)

    def test_loading_from_disk(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM_DOC))
        assert [name for name, _ in load_problem(str(path)).ideals] == ["a", "b"]
        with pytest.raises(ConfigInvalid, match="cannot read"):
            load_problem(str(tmp_path / "absent.json"))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_problem(str(broken))


RECIPE_DOC = {
    "base_ring": {"dual_cone_rays": [[2, 1], [1, 2]]},
    "i_prime": [[2, 4]],
    "j_prime": [[12, 7]],
    "r": [8, 6],
    "z_exponent": [10, 6, 2],
}


class TestRecipesAndConfigs:
    def test_recipe_round_trip(self):
        recipe = parse_recipe(RECIPE_DOC)
        base = ring_from_dual_rays(((2, 1), (1, 2)))
        assert recipe.base_ring == base
        assert recipe.i_prime == monomial_ideal(base, ((2, 4),))
        assert recipe.j_prime == monomial_ideal(base, ((12, 7),))
        assert recipe.r == (8, 6)
        assert recipe.z_exponent == (10, 6, 2)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("r"), "needs a 'r' entry"),
            (lambda d: d.update(extra=1), "unknown recipe keys: extra"),
            (lambda d: d.update(i_prime=[]), "nonempty generator list"),
            (lambda d: d.update(z_exponent=[10, 6]), "list of 3 integers"),
        ],
    )
    def test_malformed_recipes(self, mutate, message):
        doc = {k: (dict(v) if isinstance(v, dict) else list(v)) for k, v in RECIPE_DOC.items()}
        mutate(doc)
        with pytest.raises(ConfigInvalid, match=message):
            parse_recipe(doc)

    def test_config_defaults_and_overrides(self):
        assert parse_search_config({}) == SearchConfig()
        config = parse_search_config(
            {"dim": 2, "seed": 11, "max_candidates": None, "explicit_recipes": [RECIPE_DOC]}
        )
        assert config.dim == 2
        assert config.seed == 11
        assert config.max_candidates is None
        assert config.explicit_recipes == (parse_recipe(RECIPE_DOC),)

    @pytest.mark.parametrize(
        "source",
        [
            {},
            {"seed": 11, "max_candidates": 3, "explicit_recipes": [RECIPE_DOC]},
            "small_hits_search.json",
            "singular_bases_search.json",
            "paper_bounds_search.json",
        ],
    )
    def test_a_search_report_config_parses_back(self, source):
        """The config block of a search report, as rendered, is a config file for the same
        search: the default config, one with an explicit recipe, and the test fixtures."""
        if isinstance(source, dict):
            config = parse_search_config(source)
        else:
            config = load_search_config(str(Path(__file__).parent / source))
        block = json.loads(render_report(search_config_json(config)))
        assert parse_search_config(block) == config

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"rays": 1}, "unknown search config keys: rays"),
            ({"dim": True}, "must be an integer"),
            ({"dim": "3"}, "must be an integer"),
            ({"max_candidates": "all"}, "integer or null"),
            ({"explicit_recipes": RECIPE_DOC}, "must be a list"),
        ],
    )
    def test_malformed_configs(self, doc, message):
        with pytest.raises(ConfigInvalid, match=message):
            parse_search_config(doc)


class TestReportPayloads:
    def test_points_and_rings(self):
        assert point_json((2, 4, 0)) == [2, 4, 0]
        assert rat_point_json((Fraction(2, 3), 1)) == ["2/3", "1"]
        ring = ring_from_dual_rays(((2, 1), (1, 2)))
        assert ring_json(ring) == {"dual_cone_rays": [[1, 2], [2, 1]]}

    def test_membership_statuses(self):
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        poly = newton_polyhedron(monomial_ideal(orthant, ((2, 0), (0, 2))))
        payload = membership_json(membership(poly, (0, 0)))
        assert payload["contained"] is False
        assert payload["mode"] == "closed"
        by_normal = {tuple(f["normal"]): f for f in payload["facets"]}
        assert by_normal[(1, 1)]["status"] == "violated"
        assert by_normal[(1, 1)]["value"] == "0"
        assert by_normal[(1, 0)]["status"] == "tight"

    def test_fractional_shifts_render_as_exact_strings(self):
        # on this ring the canonical point is (2/3, 1), so interior pairings
        # against the x >= 1 facet pick up a denominator of 3
        ring = ring_from_dual_rays(((1, 0), (1, 3)))
        a = monomial_ideal(ring, ((1, 0), (1, 3)))
        payload = membership_json(multiplier_membership(a, (1, 1)))
        assert payload["mode"] == "interior"
        by_normal = {tuple(f["normal"]): f for f in payload["facets"]}
        assert by_normal[(1, 0)]["value"] == "5/3"

    def test_reports_round_trip_byte_for_byte(self):
        orthant = ring_from_dual_rays(((1, 0), (0, 1)))
        poly = newton_polyhedron(monomial_ideal(orthant, ((2, 0), (0, 2))))
        payload = membership_json(membership(poly, (3, 3)))
        text = render_report(payload)
        assert text.endswith("\n")
        assert json.loads(text) == payload
        assert render_report(json.loads(text)) == text
