"""Replay one frozen benchmark report per subcommand, byte for byte.

perfbench/goldens.json holds the --no-timestamp reports that the benchmark
checks.  Replaying one invocation of each subcommand here makes a change to
any summation order or report layout fail the test suite, not only the
benchmark.  The file is read, never written.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mdl.cli import parse_config, run

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json").read_text()
)
ONE_PER_SUBCOMMAND: dict[str, str] = {}  # the first invocation of each subcommand
for _key in GOLDENS:
    ONE_PER_SUBCOMMAND.setdefault(_key.split()[0], _key)


@pytest.mark.parametrize("subcommand", sorted(ONE_PER_SUBCOMMAND))
def test_report_matches_golden(subcommand: str):
    key = ONE_PER_SUBCOMMAND[subcommand]
    assert run(parse_config(key.split() + ["--no-timestamp"])) == GOLDENS[key]
