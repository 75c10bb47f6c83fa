"""Byte-for-byte golden corpus of the CLI's JSON output.

tests/golden_cli.json maps a case name to the exit code and the exact stdout
of one `--format json` invocation. Refactors must reproduce every entry.
Regenerate it, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, POOL
from test_cli import PROBLEM, PROBLEM_2D, SEARCH_CONFIG
from toricmult.cli import main

GOLDEN = Path(__file__).parent / "golden_cli.json"


def _ring_doc(dual_rays):
    """Ideals a = <2 r0, r1 + rl> and b = <r0 + r1, 2 rl> from the dual rays r."""
    r0, r1, rl = dual_rays[0], dual_rays[1], dual_rays[-1]
    return {
        "ring": {"dual_cone_rays": [list(r) for r in dual_rays]},
        "ideals": {
            "a": [[2 * c for c in r0], [x + y for x, y in zip(r1, rl)]],
            "b": [[x + y for x, y in zip(r0, r1)], [2 * c for c in rl]],
        },
    }


def _refute_target(dual_rays) -> str:
    r0, rl = dual_rays[0], dual_rays[-1]
    return ",".join(str(2 * x + 2 * y) for x, y in zip(r0, rl))


POOL_DOCS = {name: _ring_doc(dual) for name, dual, _, _ in POOL}

DOCS = {
    "problem": PROBLEM,
    "problem2d": PROBLEM_2D,
    "config": SEARCH_CONFIG,
    **POOL_DOCS,
    "not-q-gorenstein": _ring_doc(NOT_Q_GORENSTEIN_DUAL_RAYS),
}

# (case name, argv with {doc} placeholders for the input files)
CASES = [
    *(
        (f"{cmd} {doc} {name}", [cmd, "--input", f"{{{doc}}}", "--ideals", name])
        for cmd in ("newton", "closure", "multiplier")
        for doc, names in (("problem", ("a", "b", "ab")), ("problem2d", ("i", "j")))
        for name in names
    ),
    ("subadd problem a b", ["subadd", "--input", "{problem}", "--ideals", "a", "b"]),
    ("subadd problem2d i j", ["subadd", "--input", "{problem2d}", "--ideals", "i", "j"]),
    ("refute problem a b 18,12,2",
     ["refute", "--input", "{problem}", "--ideals", "a", "b", "--target", "18,12,2"]),
    ("refute problem a b 14,11,2",
     ["refute", "--input", "{problem}", "--ideals", "a", "b", "--target", "14,11,2"]),
    ("refute problem2d i j 14,11",
     ["refute", "--input", "{problem2d}", "--ideals", "i", "j", "--target", "14,11"]),
    ("verify-paper", ["verify-paper"]),
    ("search config", ["search", "--input", "{config}"]),
    *(
        (f"{cmd} {doc} {name}", [cmd, "--input", f"{{{doc}}}", "--ideals", name])
        for doc in POOL_DOCS
        for cmd in ("newton", "closure", "multiplier")
        for name in ("a", "b")
    ),
    *(
        (f"subadd {doc} a b", ["subadd", "--input", f"{{{doc}}}", "--ideals", "a", "b"])
        for doc in POOL_DOCS
    ),
    # target 2 r0 + 2 rl: the sum of a's first and b's last generator
    *(
        (f"refute {doc} a b", ["refute", "--input", f"{{{doc}}}", "--ideals", "a", "b",
                               "--target", _refute_target(dual)])
        for doc, (_, dual, _, _) in zip(POOL_DOCS, POOL)
    ),
    # no canonical point: refused with exit 2 and nothing on stdout
    ("multiplier not-q-gorenstein a",
     ["multiplier", "--input", "{not-q-gorenstein}", "--ideals", "a"]),
]


def run_case(argv: list[str], root: Path) -> dict:
    files = {}
    for name, doc in DOCS.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    args = [a.format(**files) for a in argv] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_corpus_covers_every_case(golden):
    assert list(golden) == [name for name, _ in CASES]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_json_output_matches_the_golden_bytes(name, argv, golden, tmp_path):
    assert run_case(argv, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: run_case(argv, Path(tmp)) for name, argv in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
