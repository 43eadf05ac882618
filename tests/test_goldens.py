"""Replay every frozen benchmark report, byte for byte.

perfbench/goldens.json holds the --no-timestamp reports that the benchmark
checks.  Replaying each of them here makes a change to any summation order
or report layout fail the test suite, not only the benchmark.  The file is
read, never written.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mdl.cli import parse_config, run

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json").read_text()
)

FIRST = {}  # the first invocation of each subcommand, named by the subcommand alone
for _key in GOLDENS:
    FIRST.setdefault(_key.split()[0], _key)
IDS = {key: subcommand for subcommand, key in FIRST.items()}


@pytest.mark.parametrize("key", list(GOLDENS), ids=[IDS.get(key, key) for key in GOLDENS])
def test_report_matches_golden(key: str):
    assert run(parse_config(key.split() + ["--no-timestamp"])) == GOLDENS[key]
