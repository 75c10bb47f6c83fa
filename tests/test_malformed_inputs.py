"""Malformed inputs: every bad file or flag value is a one-line usage error.

Each case runs the CLI in-process on one bad problem file, search config,
facet fixture, --target string or --threads value. Exit code 1 means a
mathematical negative, so a refused input must exit 2, print nothing on
stdout and exactly one line on stderr, and never a traceback.
"""

import json

import pytest

from test_cli import PROBLEM, RECIPE, SEARCH_CONFIG
from toricmult.cli import main

NOT_UTF8 = b"\xff\xfe\x00"
DEEPLY_NESTED = b"[" * 100_000


def _problem(rays, **ideals):
    return {"ring": {"dual_cone_rays": rays}, "ideals": ideals or {"a": [[1, 1]]}}


NEWTON = ["newton", "--input", "{file}", "--ideals", "a"]
REFUTE = ["refute", "--input", "{file}", "--ideals", "a", "b", "--target"]
SEARCH = ["search", "--input", "{file}"]
VERIFY = ["verify-paper", "--expect-facets", "{file}"]

# (case id, file contents: bytes or a JSON document, argv with {file})
CASES = [
    # problem files
    ("problem-not-utf8", NOT_UTF8, NEWTON),
    ("problem-deeply-nested", DEEPLY_NESTED, NEWTON),
    ("problem-not-json", b"{ring", NEWTON),
    ("problem-not-an-object", [1, 2], NEWTON),
    ("problem-without-ring", {"ideals": {}}, NEWTON),
    ("problem-unknown-key", {**PROBLEM, "junk": 1}, NEWTON),
    ("ring-no-rays", _problem([]), NEWTON),
    ("ring-mixed-dimensions", _problem([[1, 0], [0, 1, 0]]), NEWTON),
    ("ring-dependent-rays", _problem([[1, 0], [2, 0]]), NEWTON),
    ("ring-contains-a-line", _problem([[1, 0], [-1, 0], [0, 1]]), NEWTON),
    ("ring-zero-ray", _problem([[0, 0], [1, 1]]), NEWTON),
    ("ring-true-entry", _problem([[True, 0], [0, 1]]), NEWTON),
    ("ring-fractional-entry", _problem([[0.5, 0], [0, 1]]), NEWTON),
    ("ideal-true-entry", _problem([[1, 0], [0, 1]], a=[[True, 1]]), NEWTON),
    ("ideal-empty", _problem([[1, 0], [0, 1]], a=[]), NEWTON),
    ("ideal-not-a-list", _problem([[1, 0], [0, 1]], a="x"), NEWTON),
    ("ideal-outside-the-cone", _problem([[2, 1], [1, 2]], a=[[1, 0]]), NEWTON),
    ("monomial-dangling-caret", _problem([[1, 0], [0, 1]], a=["x^"]), NEWTON),
    ("monomial-repeated-variable", _problem([[1, 0], [0, 1]], a=["xyx"]), NEWTON),
    ("monomial-empty", _problem([[1, 0], [0, 1]], a=[""]), NEWTON),
    ("monomial-blank", _problem([[1, 0], [0, 1]], a=[" "]), NEWTON),
    ("monomial-bare-star", _problem([[1, 0], [0, 1]], a=["*"]), NEWTON),
    ("monomial-in-four-variables",
     _problem([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], a=["xyz"]), NEWTON),
    ("unknown-ideal-name", PROBLEM, ["newton", "--input", "{file}", "--ideals", "zz"]),
    # --target strings
    ("target-dangling-caret", PROBLEM, REFUTE + ["x^"]),
    ("target-empty-coordinate", PROBLEM, REFUTE + ["1,,1"]),
    ("target-wrong-length", PROBLEM, REFUTE + ["1,1"]),
    ("target-not-a-point", PROBLEM, REFUTE + ["one"]),
    ("target-outside-the-cone", PROBLEM, REFUTE + ["0,0,-1"]),
    # search configs
    ("config-not-utf8", NOT_UTF8, SEARCH),
    ("config-deeply-nested", DEEPLY_NESTED, SEARCH),
    ("config-not-an-object", [SEARCH_CONFIG], SEARCH),
    ("config-unknown-key", {**SEARCH_CONFIG, "threads": 2}, SEARCH),
    ("config-true-bound", {**SEARCH_CONFIG, "ray_bound": True}, SEARCH),
    ("config-string-cap", {**SEARCH_CONFIG, "max_candidates": "5"}, SEARCH),
    ("config-negative-cap", {**SEARCH_CONFIG, "max_candidates": -1}, SEARCH),
    ("config-negative-bound", {**SEARCH_CONFIG, "z_height_bound": -1}, SEARCH),
    ("config-dimension-three", {**SEARCH_CONFIG, "dim": 3}, SEARCH),
    ("config-recipes-not-a-list", {**SEARCH_CONFIG, "explicit_recipes": RECIPE}, SEARCH),
    ("recipe-missing-r", {**SEARCH_CONFIG, "explicit_recipes": [
        {k: v for k, v in RECIPE.items() if k != "r"}]}, SEARCH),
    ("recipe-empty-ideal", {**SEARCH_CONFIG, "explicit_recipes": [{**RECIPE, "i_prime": []}]}, SEARCH),
    ("recipe-empty-monomial", {**SEARCH_CONFIG, "explicit_recipes": [{**RECIPE, "r": ""}]}, SEARCH),
    ("recipe-r-outside-the-closure", {**SEARCH_CONFIG, "explicit_recipes": [{**RECIPE, "r": [1, 1]}]}, SEARCH),
    ("recipe-z-without-new-coordinate",
     {**SEARCH_CONFIG, "explicit_recipes": [{**RECIPE, "z_exponent": [10, 6, 0]}]}, SEARCH),
    ("threads-zero", SEARCH_CONFIG, SEARCH + ["--threads", "0"]),
    ("threads-negative", SEARCH_CONFIG, SEARCH + ["--threads", "-3"]),
    # facet fixtures
    ("fixture-not-utf8", NOT_UTF8, VERIFY),
    ("fixture-deeply-nested", DEEPLY_NESTED, VERIFY),
    ("fixture-unknown-key", {"c": []}, VERIFY),
    ("fixture-not-a-list", {"a": {"normal": [0, 0, 1], "offset": 0}}, VERIFY),
    ("fixture-missing-offset", {"a": [{"normal": [0, 0, 1]}]}, VERIFY),
    ("fixture-true-normal-entry", {"a": [{"normal": [0, 0, True], "offset": 0}]}, VERIFY),
    ("fixture-true-offset", {"a": [{"normal": [0, 0, 1], "offset": False}]}, VERIFY),
    ("fixture-short-normal", {"a": [{"normal": [1, 2], "offset": 0}]}, VERIFY),
    ("fixture-empty-normal", {"a": [{"normal": [], "offset": 0}]}, VERIFY),
]


@pytest.mark.parametrize("contents, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_is_a_one_line_usage_error(contents, argv, tmp_path, capsys):
    path = tmp_path / "input.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(json.dumps(contents))
    try:
        code = main([a.format(file=path) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err
