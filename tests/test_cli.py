"""Command-line surface: reports, exit codes, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import mdl.cli
from mdl import __version__
from mdl.cli import main
from mdl.errors import SelfCheckError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_vmvt_json_report(capsys):
    code, out, _ = run_cli(capsys, "vmvt", "--r", "2", "--k", "1", "--P", "2", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "mdl"
    assert doc["version"] == __version__
    assert doc["subcommand"] == "vmvt"
    assert doc["parameters"] == {"r": 2, "k": 1, "P": 2}
    assert doc["results"] == {"count": 6}
    assert "timestamp" not in doc


def test_expsum_empty_sum_report(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "--q", "3", "--gamma", "2", "--a", "1", "--g", "2",
        "--X", "1", "--no-timestamp",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["real"] == 0.0 and results["imag"] == 0.0
    assert results["term_count"] == 0


def test_digit_stats_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys, "digit-stats", "--q", "3", "--X", "1000", "--r", "25", "--s", "1",
        "--no-timestamp",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# mdl v1 digit-stats q=3 X=1000 r=25 s=1"
    assert lines[1] == "block,count,deviation"
    assert len(lines) == 5  # header + columns + one row per digit value
    blocks = [int(row.split(",")[0]) for row in lines[2:]]
    assert blocks == [0, 1, 2]
    counts = [int(row.split(",")[1]) for row in lines[2:]]
    assert sum(counts) == 168  # pi(1000)


def test_reports_are_byte_identical_across_threads(capsys):
    base = None
    for threads in ("1", "2", "8"):
        code, out, _ = run_cli(
            capsys, "mersenne-sum", "--q", "3", "--gamma", "40", "--a", "1",
            "--X", "20000", "--threads", threads, "--no-timestamp",
        )
        assert code == 0
        if base is None:
            base = out
        assert out == base


def test_timestamp_present_by_default_and_suppressible(capsys):
    _, out, _ = run_cli(capsys, "order-structure", "--q", "11", "--g", "3")
    assert "timestamp" in json.loads(out)
    _, out, _ = run_cli(capsys, "order-structure", "--q", "11", "--g", "3", "--no-timestamp")
    assert "timestamp" not in json.loads(out)


def test_order_structure_csv(capsys):
    code, out, _ = run_cli(
        capsys, "order-structure", "--q", "11", "--g", "3", "--format", "csv",
        "--no-timestamp",
    )
    assert code == 0
    assert out == (
        "# mdl v1 order-structure q=11 g=3\n"
        "order_mod_q,lift_valuation,cofactor\n"
        "5,2,2\n"
    )


def test_discrepancy_report_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "discrepancy", "--q", "7", "--gamma", "1", "--X", "10000",
        "--H", "10", "--no-timestamp",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["certified"] is True
    assert results["discrepancy"] <= results["erdos_turan_bound"]


def test_verify_lemmas_report(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--q", "3", "--g", "2", "--no-timestamp")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_ok"] is True
    assert results["congruence_cases"] > 0
    assert results["valuation_cases"] > 0


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "order-structure", "--q", "4", "--g", "3")
    assert code == 2
    assert "precondition" in err


def test_resource_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "vmvt", "--r", "9", "--k", "1", "--P", "10")
    assert code == 3
    assert "guard" in err


def test_non_integer_parameter_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["digit-stats", "--q", "3", "--X", "3.5", "--r", "1", "--s", "1"])
    assert exc.value.code == 2


def test_output_flag_writes_file(tmp_path: Path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "vmvt", "--r", "1", "--k", "1", "--P", "3", "--no-timestamp",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["results"]["count"] == 3


def test_self_check_exit_code(capsys, monkeypatch):
    def forged(config):
        raise SelfCheckError("closed form disagrees with the direct scan")

    monkeypatch.setitem(mdl.cli._HANDLERS, "order-structure", forged)
    code, out, err = run_cli(capsys, "order-structure", "--q", "11", "--g", "3")
    assert code == 4 and out == ""
    assert "self-check" in err and "Traceback" not in err


def test_unwritable_output_exit_code(tmp_path: Path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(
        capsys, "vmvt", "--r", "1", "--k", "1", "--P", "3", "--output", str(target),
    )
    assert code == 5 and out == ""
    assert "cannot write report" in err and "Traceback" not in err
    assert not target.exists()


def test_discrepancy_computes_residues_once(capsys, monkeypatch):
    calls = []
    original = mdl.cli.mersenne_residues

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mdl.cli, "mersenne_residues", counted)
    monkeypatch.setattr(mdl.digits, "mersenne_residues", counted)
    code, out, _ = run_cli(
        capsys, "discrepancy", "--q", "3", "--gamma", "2", "--X", "60", "--no-timestamp",
    )
    assert code == 0 and json.loads(out)["results"]["certified"] is True
    assert len(calls) == 1


def test_repeated_runs_are_byte_identical(capsys):
    args = (
        "digit-stats", "--q", "3", "--X", "4000", "--r", "10", "--s", "2",
        "--no-timestamp",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
