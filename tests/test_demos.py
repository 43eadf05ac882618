"""Run every demo and README's Python block: each must exit 0 without a traceback."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the library quick start, which calls the public API as a reader would copy it
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL
)


def test_every_demo_is_collected():
    assert len(DEMOS) == 5
    assert len(README_BLOCKS) == 1


@pytest.mark.parametrize(
    "argv",
    [[str(demo)] for demo in DEMOS] + [["-c", block] for block in README_BLOCKS],
    ids=[demo.stem for demo in DEMOS] + ["README"] * len(README_BLOCKS),
)
def test_demo_runs(argv: list[str]):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout
