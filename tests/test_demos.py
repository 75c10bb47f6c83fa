"""The demos print exactly the bytes pinned under tests/demo_outputs/.

Each demo runs in a fresh interpreter with src/ on its path, and its stdout
is compared with the file of the same name. Regenerate a pinned file only
when a demo's output is meant to change:

    PYTHONPATH=src python demos/NAME.py > tests/demo_outputs/NAME.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("demo_outputs")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_pinned_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
