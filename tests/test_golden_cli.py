"""Byte-for-byte golden corpus of the CLI's output.

tests/golden_cli.json maps a case name to the exit code and the exact stdout
of one invocation: `--format json` for CASES, and for TEXT_CASES the text
report without its `elapsed:` line (the only part that varies between runs).
Refactors must reproduce every entry. Regenerate it, only when an output is
meant to change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from instances import NOT_Q_GORENSTEIN_DUAL_RAYS, POOL, random_2d_ring, random_ideal
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


def _random_docs(seed: int, count: int) -> dict:
    """count seeded draws of a random 2D ring with two random ideals a and b."""
    rng = random.Random(seed)
    docs = {}
    for i in range(count):
        ring = random_2d_ring(rng)
        a, b = random_ideal(rng, ring), random_ideal(rng, ring)
        docs[f"random-2d-{i}"] = {
            "ring": {"dual_cone_rays": [list(r) for r in ring.dual_rays]},
            "ideals": {"a": [list(g) for g in a.gens], "b": [list(g) for g in b.gens]},
        }
    return docs


RANDOM_DOCS = _random_docs(seed=5, count=8)

DOCS = {
    "problem": PROBLEM,
    "problem2d": PROBLEM_2D,
    "config": SEARCH_CONFIG,
    **POOL_DOCS,
    **RANDOM_DOCS,
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
    *(
        (f"{cmd} {doc} a{suffix}", [cmd, "--input", f"{{{doc}}}", "--ideals", "a", *more])
        for doc in RANDOM_DOCS
        for cmd, suffix, more in (("closure", "", []), ("multiplier", "", []), ("subadd", " b", ["b"]))
    ),
]

# Text reports: every command on the paper's problem and on index-three-2d,
# whose canonical point (2/3, 1) is fractional.
TEXT_CASES = [
    *(
        (f"text {cmd} {doc} {name}", [cmd, "--input", f"{{{doc}}}", "--ideals", name])
        for doc, names in (("problem", ("a", "b", "ab")), ("index-three-2d", ("a", "b")))
        for cmd in ("newton", "closure", "multiplier")
        for name in names
    ),
    ("text subadd problem a b", ["subadd", "--input", "{problem}", "--ideals", "a", "b"]),
    ("text subadd index-three-2d a b",
     ["subadd", "--input", "{index-three-2d}", "--ideals", "a", "b"]),
    ("text refute problem a b 18,12,2",
     ["refute", "--input", "{problem}", "--ideals", "a", "b", "--target", "18,12,2"]),
    ("text refute problem a b 14,11,2",
     ["refute", "--input", "{problem}", "--ideals", "a", "b", "--target", "14,11,2"]),
    ("text refute index-three-2d a b",
     ["refute", "--input", "{index-three-2d}", "--ideals", "a", "b",
      "--target", _refute_target(POOL_DOCS["index-three-2d"]["ring"]["dual_cone_rays"])]),
    ("text verify-paper", ["verify-paper"]),
    ("text search config", ["search", "--input", "{config}"]),
]


def run_case(argv: list[str], root: Path, fmt: str = "json") -> dict:
    files = {}
    for name, doc in DOCS.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    args = [a.format(**files) for a in argv] + ["--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    lines = out.getvalue().splitlines(keepends=True)
    return {"code": code, "stdout": "".join(line for line in lines if not line.startswith("elapsed: "))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_corpus_covers_every_case(golden):
    assert list(golden) == [name for name, _ in CASES + TEXT_CASES]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_json_output_matches_the_golden_bytes(name, argv, golden, tmp_path):
    assert run_case(argv, tmp_path) == golden[name]


@pytest.mark.parametrize("name,argv", TEXT_CASES, ids=[name for name, _ in TEXT_CASES])
def test_text_output_matches_the_golden_bytes(name, argv, golden, tmp_path):
    assert run_case(argv, tmp_path, "text") == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: run_case(argv, Path(tmp)) for name, argv in CASES}
        corpus.update((name, run_case(argv, Path(tmp), "text")) for name, argv in TEXT_CASES)
    GOLDEN.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
