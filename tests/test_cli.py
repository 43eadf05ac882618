"""Command-line surface: reports, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdl.cli
import mdl.expsum
from mdl import __version__
from mdl.cli import main
from mdl.digits import PointSet, erdos_turan_bound
from mdl.errors import PreconditionError, ResourceGuardError, SelfCheckError


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


def test_digit_stats_deviation_column(capsys):
    # q^s = 343 window values: one row each, deviation = count / pi_X - 1 / q^s
    args = ("digit-stats", "--q", "7", "--X", "5000", "--r", "5", "--s", "3", "--no-timestamp")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[2:]]
    assert [int(block) for block, _, _ in rows] == list(range(7**3))
    pi_X = sum(int(count) for _, count, _ in rows)
    assert pi_X == 669  # pi(5000)
    for _, count, deviation in rows:
        assert deviation == repr(int(count) / pi_X - 1.0 / 7**3)
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    results = json.loads(out)["results"]
    assert results["pi_X"] == pi_X
    assert results["max_abs_deviation"] == max(abs(float(d)) for _, _, d in rows)
    assert [results["counts"][str(v)] for v in range(7**3)] == [int(c) for _, c, _ in rows]


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("csv", "1cb90d4094ac80be475105df64b674e15df2abaeeb0a310607d19d9718e214e1"),
        ("json", "d52a64d7746b5df9179bf5b177582ee20a56ebfe8ab143df2ccb3c8d54a58f24"),
    ],
)
def test_digit_stats_report_bytes_are_frozen(capsys, fmt, sha256):
    # each format builds only its own body; both were hashed when both were built
    code, out, _ = run_cli(
        capsys, "digit-stats", "--q", "7", "--X", "5000", "--r", "5", "--s", "3",
        "--format", fmt, "--no-timestamp",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_NUMPY_PROBE = """
import contextlib, io, json, sys
import mdl.cli
loaded = {"import mdl.cli": "numpy" in sys.modules}
for argv in (
    ["vmvt", "--r", "2", "--k", "1", "--P", "3"],
    ["order-structure", "--q", "11", "--g", "3"],
    ["verify-lemmas", "--q", "7", "--g", "3"],
    ["digit-stats", "--q", "3", "--X", "100", "--r", "2", "--s", "1"],
    ["expsum", "--q", "3", "--gamma", "5", "--a", "1", "--g", "2", "--X", "100"],
    ["mersenne-sum", "--q", "3", "--gamma", "5", "--a", "1", "--X", "100"],
    ["discrepancy", "--q", "3", "--gamma", "2", "--X", "100", "--H", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mdl.cli.main(argv) == 0
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def _run_probe(probe: str) -> subprocess.CompletedProcess[str]:
    # a fresh interpreter, so sys.modules shows what the probe itself loaded
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_numpy_is_loaded_only_by_the_commands_that_use_it():
    done = _run_probe(_NUMPY_PROBE)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import mdl.cli": False,
        "vmvt": False,
        "order-structure": False,
        "verify-lemmas": False,
        "digit-stats": False,  # the sieve needs no numpy
        "expsum": False,
        "mersenne-sum": False,
        "discrepancy": True,  # the Erdos-Turan bound: the probe can see numpy arrive
    }


_THREAD_PROBE = """
import contextlib, io, json, os
import mdl.cli
{setup}
with contextlib.redirect_stdout(io.StringIO()):
    code = mdl.cli.main(["discrepancy", "--q", "3", "--gamma", "2", "--X", "100", "--H", "2"])
linux = os.path.isdir("/proc/self/task")
print(json.dumps({{
    "code": code,
    "threads": len(os.listdir("/proc/self/task")) if linux else None,
    "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    "openblas": linux and "openblas" in open("/proc/self/maps").read().lower(),
    "env": os.environ.get("OPENBLAS_NUM_THREADS"),
}}))
"""


def test_numpy_loads_with_openblas_on_this_thread_and_leaves_the_environment():
    # mdl makes no BLAS call; OpenBLAS's worker would spin beside the main thread
    done = _run_probe(_THREAD_PROBE.format(setup='os.environ.pop("OPENBLAS_NUM_THREADS", None)'))
    seen = json.loads(done.stdout)
    assert seen["code"] == 0 and seen["env"] is None, done.stderr
    assert seen["threads"] in (1, None)


def test_a_callers_openblas_thread_count_is_honoured():
    done = _run_probe(_THREAD_PROBE.format(setup='os.environ["OPENBLAS_NUM_THREADS"] = "2"'))
    seen = json.loads(done.stdout)
    assert seen["code"] == 0 and seen["env"] == "2", done.stderr
    if seen["threads"] is not None and seen["cpus"] >= 2 and seen["openblas"]:
        assert seen["threads"] == 2


_GUARD_PROBE = """
import json, sys
import mdl.cli
codes = [mdl.cli.main(argv.split()) for argv in (
    "discrepancy --q 3 --gamma 1 --X 2 --H 100000000",
    "discrepancy --q 3 --gamma 40 --X 100000 --H 5000",
    "discrepancy --q 3 --gamma 20 --X 1000000000 --H 1",
    "discrepancy --q 3 --gamma 20000 --X 70000000 --H 1",
    "discrepancy --q 3 --gamma 20000 --X 100000 --H 1294",
    "discrepancy --q 3 --gamma 1 --X 100000 --H 194553",
)]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_erdos_turan_guard_rejects_before_numpy_loads():
    # so does the residue guard, which stops the walk to X = 10^9 before the sieve;
    # mod 3^20000 both guards charge each residue by its size
    done = _run_probe(_GUARD_PROBE)
    assert json.loads(done.stdout) == {"codes": [3] * 6, "numpy": False}, done.stderr
    assert done.stderr.count("enumeration guard") == 4
    assert done.stderr.count("residue guard") == 2


_H_PROBE = """
import json, sys
from mdl.digits import PointSet, erdos_turan_bound
from mdl.errors import PreconditionError
try:
    erdos_turan_bound(PointSet(3, 2, [0, 1]), 0)
except PreconditionError as exc:
    print(json.dumps({"error": str(exc), "numpy": "numpy" in sys.modules}))
"""


def test_erdos_turan_bound_rejects_h_below_one_before_numpy_loads():
    # the discrepancy subcommand checks H first, so only a library call gets here
    with pytest.raises(PreconditionError, match="H must be >= 1, got 0"):
        erdos_turan_bound(PointSet(3, 2, [0, 1]), 0)
    done = _run_probe(_H_PROBE)
    assert json.loads(done.stdout) == {"error": "H must be >= 1, got 0", "numpy": False}, (
        done.stderr
    )


_COLD_START_PROBE = """
import contextlib, io, json, sys
import mdl.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mdl.cli.main(["vmvt", "--r", "2", "--k", "1", "--P", "3", "--no-timestamp"])
heavy = ("dataclasses", "inspect", "datetime", "numpy")
print(json.dumps({"code": code, "loaded": [name for name in heavy if name in sys.modules]}))
"""


def test_cold_start_loads_no_dataclasses_inspect_datetime_or_numpy():
    # records are tuples, flags come from each handler's code object, and
    # datetime is imported only to stamp a report
    done = _run_probe(_COLD_START_PROBE)
    assert json.loads(done.stdout) == {"code": 0, "loaded": []}, done.stderr


def test_timestamp_present_by_default_and_suppressible(capsys):
    _, out, _ = run_cli(capsys, "order-structure", "--q", "11", "--g", "3")
    assert "timestamp" in json.loads(out)
    _, out, _ = run_cli(capsys, "order-structure", "--q", "11", "--g", "3", "--no-timestamp")
    assert "timestamp" not in json.loads(out)


def test_csv_timestamp_is_one_extra_header_line(capsys):
    args = ("digit-stats", "--q", "3", "--X", "1000", "--r", "25", "--s", "1")
    code, stamped, _ = run_cli(capsys, *args)
    assert code == 0
    _, plain, _ = run_cli(capsys, *args, "--no-timestamp")
    lines = stamped.splitlines(keepends=True)
    assert lines[1].startswith("# generated ") and lines[1].endswith("\n")
    when = datetime.fromisoformat(lines[1][len("# generated "):-1])  # UTC ISO-8601
    assert when.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=5)
    assert "".join(lines[:1] + lines[2:]) == plain


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


def test_discrepancy_h_defaults_to_100(capsys):
    code, out, _ = run_cli(
        capsys, "discrepancy", "--q", "3", "--gamma", "2", "--X", "60", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["parameters"] == {"q": 3, "gamma": 2, "X": 60, "H": 100}


def test_verify_lemmas_report(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--q", "3", "--g", "2", "--no-timestamp")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_ok"] is True
    assert results["congruence_cases"] > 0
    assert results["valuation_cases"] > 0


def _once(forged, original):
    """A stand-in that calls forged on its first call and original after it."""
    calls = iter([forged])
    return lambda *args: next(calls, original)(*args)


def test_verify_lemmas_reports_a_disagreement_in_band(capsys, monkeypatch):
    # a sweep: one failed case of each check turns its flag false, with exit 0, not 4
    args = ("verify-lemmas", "--q", "3", "--g", "2", "--no-timestamp")
    _, out, _ = run_cli(capsys, *args)
    clean = json.loads(out)["results"]

    def forged(*args):
        raise SelfCheckError("the two routes disagree")

    for name in ("congruence_criterion", "valuation_difference"):
        monkeypatch.setattr(mdl.cli, name, _once(forged, getattr(mdl.cli, name)))
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results == {
        "congruence_cases": clean["congruence_cases"],
        "congruence_ok": False,
        "valuation_cases": clean["valuation_cases"],
        "valuation_ok": False,
        "all_ok": False,
    }


def test_verify_lemmas_takes_one_congruence_table_per_window(capsys, monkeypatch):
    # 2 mod 13 lifts at valuation 1: 15 windows 1 <= s <= r <= 5, 31 x 31 pairs each
    calls, table = [], mdl.cli.congruence_criterion

    def counted(*args):
        calls.append(args[1:3])
        return table(*args)

    monkeypatch.setattr(mdl.cli, "congruence_criterion", counted)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--q", "13", "--g", "2", "--no-timestamp")
    assert code == 0
    assert calls == [(r, s) for r in range(1, 6) for s in range(1, r + 1)]
    assert json.loads(out)["results"]["congruence_cases"] == 15 * 31 * 31


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "order-structure", "--q", "4", "--g", "3")
    assert code == 2
    assert "precondition" in err


def test_resource_guard_exit_code(capsys):
    # about 1.7 * 10^8 dictionary updates; (9, 1, 10) needs 7,380 and is admitted
    code, out, err = run_cli(capsys, "vmvt", "--r", "6", "--k", "2", "--P", "30")
    assert code == 3 and out == ""
    assert "guard" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "r, k, P, count",
    [
        ("4", "3", "30", 17_856_234),
        ("4", "2", "40", 272_909_400),
        ("2", "200000", "3", 15),
        ("100000000", "1", "1", 1),  # [1, 1]^(2r) holds one tuple, with no round run
    ],
)
def test_vmvt_boxes_beyond_enumeration_run_fast(capsys, r, k, P, count):
    # k = 200000 is clamped to r = 2; the report still echoes the given k
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "vmvt", "--r", r, "--k", k, "--P", P, "--no-timestamp")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"] == {"r": int(r), "k": int(k), "P": int(P)}
    assert doc["results"] == {"count": count}


def test_digit_window_bins_are_guarded(capsys):
    # 3^40 counters would be asked for; the guard fires before any is allocated
    code, _, err = run_cli(
        capsys, "digit-stats", "--q", "3", "--X", "100", "--r", "40", "--s", "40",
    )
    assert code == 3
    assert "bin guard" in err


def test_erdos_turan_terms_are_guarded(capsys):
    # 25 distinct residues times H = 10^7 phase terms exceed the guard, and so
    # does H = 10^8 over one residue, since each h is charged 512 terms more;
    # 194,932 = 10^8 // (1 + 512) + 1 is the smallest H that charge rejects
    # over one residue, which a charge of 64 admitted (some 7 s of phases).
    # Mod 3^40 >= 2^53 a residue is charged 8 terms: that rejects H = 192,308
    # over one residue, and H = 5,000 over 9,592 residues (some 16 s of
    # phases), both of which a charge of one admitted. Mod 3 the 9,592
    # residues to 10^5 take 2 values, counted from the equal neighbours of the
    # sorted points: H = 194,553 is the smallest H rejected over those two
    for gamma, X, H in [
        ("30", "100", "10000000"), ("1", "2", "100000000"), ("1", "2", "194932"),
        ("40", "2", "192308"), ("40", "100000", "5000"), ("1", "100000", "194553"),
    ]:
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "discrepancy", "--q", "3", "--gamma", gamma, "--X", X, "--H", H,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "enumeration guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["digit-stats", "--q", "3", "--X", "100", "--r", "10000000", "--s", "1"],
        ["expsum", "--q", "3", "--gamma", "10000000", "--a", "1", "--g", "2", "--X", "100"],
        ["mersenne-sum", "--q", "3", "--gamma", "10000000", "--a", "1", "--X", "100"],
        ["discrepancy", "--q", "3", "--gamma", "10000000", "--X", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_modulus_size_is_guarded(capsys, argv: list[str]):
    # 3^(10^7) has about 1.6 * 10^7 bits; the guard stops it before it is formed
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "modulus guard" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["mersenne-sum", "--q", "3", "--gamma", "5", "--a", "1", "--X", str(10**20)],
            id="mersenne-sum-X=10^20",
        ),
        pytest.param(
            ["mersenne-sum", "--q", "3", "--gamma", "5", "--a", "1", "--X", str(10**13)],
            id="mersenne-sum-X=10^13",
        ),
        pytest.param(
            ["digit-stats", "--q", "3", "--X", str(10**13), "--r", "5", "--s", "1"],
            id="digit-stats-X=10^13",
        ),
        pytest.param(
            ["discrepancy", "--q", "3", "--gamma", "5", "--X", str(10**13)],
            id="discrepancy-X=10^13",
        ),
        pytest.param(
            ["order-structure", "--q", str(2**61 - 1), "--g", "2"],
            id="order-structure-q=2^61-1",
        ),
        pytest.param(
            ["expsum", "--q", str(2**61 - 1), "--gamma", "1", "--a", "1", "--g", "2",
             "--X", "100"],
            id="expsum-q=2^61-1",
        ),
        pytest.param(["order-structure", "--q", "30011", "--g", "2"], id="order-structure-q=30011"),
        pytest.param(["order-structure", "--q", "100003", "--g", "2"], id="order-structure-q=100003"),
        pytest.param(["verify-lemmas", "--q", "30011", "--g", "2"], id="verify-lemmas-q=30011"),
    ],
)
def test_sieve_base_and_power_are_guarded(capsys, argv: list[str]):
    # X beyond the sieve guard, q beyond the base guard, g^order beyond the power guard
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "guard" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["digit-stats", "--q", "3", "--X", str(10**9), "--r", "41000", "--s", "1"],
        ["expsum", "--q", "3", "--gamma", "41000", "--a", "1", "--g", "2", "--X", str(10**9)],
        ["mersenne-sum", "--q", "3", "--gamma", "41000", "--a", "1", "--X", str(10**9)],
    ],
    ids=lambda argv: argv[0],
)
def test_walk_work_is_guarded_before_the_sieve(capsys, argv: list[str]):
    # about 6.1 * 10^7 primes, each charged 64 for a modulus of some 65,000 bits:
    # some 40 minutes of steps and phases, admitted by the sieve and modulus guards
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "enumeration guard" in err and "Traceback" not in err


@pytest.mark.parametrize("q", ["10007", "20011"])
def test_largest_printed_cofactors_stay_admitted(capsys, q: str):
    # cofactors of 1,503 and 2,004 decimal digits, below the power guard
    code, out, _ = run_cli(capsys, "order-structure", "--q", q, "--g", "2", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"]["cofactor"] > 10**1500


@pytest.mark.parametrize("subcommand", sorted(mdl.cli._HANDLERS))
def test_threads_flag_is_gone(subcommand: str):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--threads", "2"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ("mersenne-sum", "--q", "3", "--gamma", "5", "--a", "1", "--X", "100"),
        ("expsum", "--q", "3", "--gamma", "5", "--a", "1", "--g", "2", "--X", "100"),
    ],
    ids=lambda argv: argv[0],
)
def test_phase_sum_self_check_exits_4(capsys, monkeypatch, argv):
    # a cosine of 2 puts the real part of each sum at twice its weight total
    broken = SimpleNamespace(**{**vars(math), "cos": lambda angle: 2.0})
    monkeypatch.setattr(mdl.expsum, "math", broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("mdl: internal self-check failed: sum magnitude ")
    assert "exceeds normalizer" in err


def test_self_check_exit_code(capsys, monkeypatch):
    def forged(q, g):
        raise SelfCheckError("closed form disagrees with the direct scan")

    monkeypatch.setitem(mdl.cli._HANDLERS, "order-structure", forged)
    code, out, err = run_cli(capsys, "order-structure", "--q", "11", "--g", "3")
    assert code == 4 and out == ""
    assert "self-check" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "error, code, label",
    [
        (PreconditionError, 2, "precondition violated"),
        (ResourceGuardError, 3, "resource guard"),
        (SelfCheckError, 4, "internal self-check failed"),
    ],
)
def test_each_error_class_gives_its_label_and_exit_code(capsys, monkeypatch, error, code, label):
    def raising(q, g):
        raise error("the message")

    monkeypatch.setitem(mdl.cli._HANDLERS, "order-structure", raising)
    got, out, err = run_cli(capsys, "order-structure", "--q", "11", "--g", "3")
    assert (got, out, err) == (code, "", f"mdl: {label}: the message\n")


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


def test_discrepancy_rejects_h_below_one_before_the_residue_walk(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(mdl.cli, "mersenne_residues", lambda *args: calls.append(args))
    code, out, err = run_cli(
        capsys, "discrepancy", "--q", "3", "--gamma", "2", "--X", "10000000", "--H", "0",
    )
    assert calls == []
    assert code == 2 and out == ""
    assert "H must be >= 1, got 0" in err
    assert "Traceback" not in err


def test_discrepancy_checks_the_bound_guard_before_the_exact_discrepancy(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the exact D* loop ran before the enumeration guard")

    monkeypatch.setattr(mdl.cli, "discrepancy", fail)
    code, out, err = run_cli(
        capsys, "discrepancy", "--q", "3", "--gamma", "2", "--X", "100", "--H", "1000000",
    )
    assert code == 3 and out == ""
    assert "enumeration guard" in err


def test_repeated_runs_are_byte_identical(capsys):
    args = (
        "digit-stats", "--q", "3", "--X", "4000", "--r", "10", "--s", "2",
        "--no-timestamp",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def _ints(low: int, high: int, *beyond_guard: int) -> st.SearchStrategy[int]:
    values = st.integers(low, high)
    return st.one_of(values, st.sampled_from(beyond_guard)) if beyond_guard else values


# Flag values per subcommand.  The ranges keep every example well under a
# second.  The extra values of q, X, gamma, r, s, P and H put q, X, the
# modulus q^gamma or q^(r+1), q^s, g^order, the vmvt dictionary updates or
# H times the distinct residues far beyond a resource guard, so those runs
# must stop before any work starts; k = 10^6 is clamped to r.
_Q, _G, _A = _ints(-2, 13, 30011, 2**61 - 1), _ints(-3, 12), _ints(-3, 12)
_X, _GAMMA = _ints(-2, 3000, 10**20), _ints(-2, 12, 10**7)
_FUZZ_FLAGS = {
    "digit-stats": {"q": _Q, "X": _X, "r": _ints(-2, 8, 10**7), "s": _ints(-2, 4, 20, 40)},
    "expsum": {"q": _Q, "gamma": _GAMMA, "a": _A, "g": _G, "X": _X},
    "mersenne-sum": {"q": _Q, "gamma": _GAMMA, "a": _A, "X": _X},
    "order-structure": {"q": _Q, "g": _G},
    "vmvt": {"r": _ints(-2, 3), "k": _ints(-2, 4, 10**6), "P": _ints(-2, 7, 10**5)},
    "discrepancy": {"q": _Q, "gamma": _GAMMA, "X": _X, "H": _ints(-2, 60, 10**9)},
    "verify-lemmas": {"q": _Q, "g": _G},
}


@st.composite
def _argv(draw) -> list[str]:
    subcommand = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [subcommand, "--no-timestamp"]
    for flag, values in _FUZZ_FLAGS[subcommand].items():
        if draw(st.integers(0, 9)):  # now and then a required flag is missing
            argv += [f"--{flag}", str(draw(values))]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--threads", str(draw(st.integers(-1, 4)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags with 2
            code = exc.code
    assert code in {0, 2, 3, 4, 5}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
