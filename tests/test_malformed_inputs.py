"""Malformed inputs: every bad file, flag or flag value is a one-line usage error.

Each case runs the CLI in-process on one bad problem file, search config,
facet fixture, --target string, --threads value or argument list. Exit code 1 means a
mathematical negative, so a refused input must exit 2, print nothing on
stdout and exactly one line on stderr, and never a traceback.
"""

import json
import random

import pytest

from test_cli import PROBLEM, PROBLEM_2D, RECIPE, SEARCH_CONFIG
from toricmult.builtin_example import EXPECTED_A_FACETS, EXPECTED_B_FACETS
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
    ("ideal-null-entry", _problem([[1, 0], [0, 1]], a=[[1, None]]), NEWTON),
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
    ("target-letter-in-a-coordinate", PROBLEM, REFUTE + ["1,x2,3"]),
    ("target-fractional-coordinate", PROBLEM, REFUTE + ["1,2.5,3"]),
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
    # runs longer than sys.maxsize points
    ("search-run-past-maxsize", {"gen_pairing_bound": 10**20, "max_candidates": 1}, SEARCH),
    ("refute-run-past-maxsize", _problem([[1, 0], [1, 3]], a=[[1, 0], [1, 1]]),
     ["refute", "--input", "{file}", "--ideals", "a", "a", "--target", "99999999999999999999999,1"]),
    ("threads-zero", SEARCH_CONFIG, SEARCH + ["--threads", "0"]),
    ("threads-negative", SEARCH_CONFIG, SEARCH + ["--threads", "-3"]),
    # argument errors argparse reports
    ("usage-cap-not-an-int", SEARCH_CONFIG, SEARCH + ["--cap", "abc"]),
    ("usage-refute-without-target", PROBLEM, REFUTE[:-1]),
    ("usage-unknown-command", PROBLEM, ["frobnicate", "--input", "{file}"]),
    ("usage-unknown-format", SEARCH_CONFIG, SEARCH + ["--format", "xml"]),
    ("usage-unknown-flag", SEARCH_CONFIG, SEARCH + ["--verbose"]),
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
    ("fixture-entry-not-an-object", {"a": [5]}, VERIFY),
    ("fixture-entry-unknown-key", {"a": [{"normal": [0, 0, 1], "offset": 0, "tight": True}]}, VERIFY),
    ("fixture-monomial-normal", {"a": [{"normal": "z", "offset": 0}]}, VERIFY),
]


# The error line of some cases: a refused value is shown as JSON writes it, as in the file.
MESSAGES = {
    "fixture-true-normal-entry": "error: facet fixture 'a' entry normal must be a list of 3 integers, got [0, 0, true]\n",
    "ideal-null-entry": "error: generator of 'a' must be a list of 2 integers, got [1, null]\n",
}


def _run(contents, argv, tmp_path, capsys):
    """(exit code, stdout, stderr) of the CLI on argv, with {file} holding contents."""
    path = tmp_path / "input.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(json.dumps(contents))
    try:
        code = main([a.format(file=path) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("contents, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_is_a_one_line_usage_error(contents, argv, tmp_path, capsys):
    code, out, err = _run(contents, argv, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


@pytest.mark.parametrize("case", sorted(MESSAGES))
def test_a_refused_value_is_shown_as_json(case, tmp_path, capsys):
    (contents, argv), = [c[1:] for c in CASES if c[0] == case]
    assert _run(contents, argv, tmp_path, capsys) == (2, "", MESSAGES[case])


# ---------------------------------------------------------------------------
# Seeded mutations of the valid documents
# ---------------------------------------------------------------------------

FIXTURE = {
    key: [{"normal": list(n), "offset": c} for n, c in facets]
    for key, facets in (("a", EXPECTED_A_FACETS), ("b", EXPECTED_B_FACETS))
}

# (valid document, argv with {file}, allowed exit codes). A 2D ring always
# satisfies subadditivity, so only refute and verify-paper may exit 1.
TARGETS = [
    (PROBLEM_2D, ["newton", "--input", "{file}", "--ideals", "i"], {0, 2}),
    (PROBLEM_2D, ["closure", "--input", "{file}", "--ideals", "j"], {0, 2}),
    (PROBLEM_2D, ["multiplier", "--input", "{file}", "--ideals", "i"], {0, 2}),
    (PROBLEM_2D, ["subadd", "--input", "{file}", "--ideals", "i", "j"], {0, 2}),
    # small bounds, so that a deleted candidate cap still enumerates quickly
    ({**SEARCH_CONFIG, "gen_pairing_bound": 2, "z_pairing_bound": 2}, SEARCH, {0, 2}),
    (PROBLEM, REFUTE + ["18,12,2"], {0, 1, 2}),
    (FIXTURE, VERIFY, {0, 1, 2}),
]
MUTATIONS_PER_TARGET = 60


def _slots(doc, path=()):
    """Every (path) to a value inside doc, the root's children included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _mutate(rng, doc):
    """A copy of doc with one value deleted or replaced by a small, likely wrong one."""
    doc = json.loads(json.dumps(doc))
    *parent_path, key = rng.choice(list(_slots(doc)))
    parent = doc
    for k in parent_path:
        parent = parent[k]
    replacements = [
        True, False, 0.5, "x", "", [], rng.randint(-1, 2),
        [rng.randint(-1, 2) for _ in range(rng.randint(1, 4))],
    ]
    choice = rng.randrange(len(replacements) + 1)
    if choice == len(replacements):
        del parent[key]
    else:
        parent[key] = replacements[choice]
    return doc


@pytest.mark.parametrize("seed", range(6))
def test_mutated_documents_exit_cleanly(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "input.json"
    for valid, argv, allowed in TARGETS:
        for _ in range(MUTATIONS_PER_TARGET):
            doc = valid
            for _ in range(rng.randint(1, 3)):
                doc = _mutate(rng, doc) if list(_slots(doc)) else doc
            path.write_text(json.dumps(doc))
            label = f"{argv[0]} on {json.dumps(doc)}"
            try:
                code = main([a.format(file=path) for a in argv] + ["--format", "json"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{label}: {exc!r} escaped")
            _, err = capsys.readouterr()
            assert code in allowed, label
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (label, err)
