"""Command-line surface: reproducible CSV/JSON reports over the library.

Each subcommand is a handler in _HANDLERS whose signature gives its
integer flags, their defaults and their echo order in the report; its
docstring is the --help text.  Echoing the parameters makes every report
self-describing.  The output path never appears in report bytes:
identical parameters give byte-identical reports, once the optional
timestamp is suppressed with --no-timestamp.

Exit codes: 0 success, the exit_code of each mdl.errors class (2, 3, 4),
2 also for malformed flags, 5 the report could not be written (an OSError
from --output or standard output).  gc.freeze runs at exit in the mdl command
and in any process that imports mdl.cli, not in one that imports mdl alone.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .arith import _check_int
from .digits import DigitCountReport, PointSet, discrepancy, erdos_turan_bound, mersenne_residues
from .errors import PreconditionError, ResourceGuardError, SelfCheckError
from .expsum import mangoldt_exp_sum, mersenne_prime_sum
from .order import OrderStructure, congruence_table, valuation_difference
from .vmvt import VmvtInstance

atexit.register(gc.freeze)  # the interpreter's final collections then skip what it holds

# perfbench/tracer.py wraps these names in mdl.cli; ROADMAP item 2 retires them.
# count_blocks takes the record's order (q, r, s, X), not the old (q, X, r, s), and
# congruence_criterion is the table of one (r, s), not the one-pair function.
count_blocks, order_structure, vmvt_count = DigitCountReport, OrderStructure, VmvtInstance
congruence_criterion = congruence_table

CSV_SCHEMA = "mdl v1"

# results (the JSON body, or a function that builds it), CSV columns, CSV
# rows; a report in one format never builds the other format's body
SubcommandOutput = tuple[dict | Callable[[], dict], list[str], Iterable[tuple]]


def _cell(value: object) -> object:
    """A CSV cell: booleans as true/false, anything else unchanged for str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _render_json(
    config: argparse.Namespace, results: dict | Callable[[], dict], stamp: str | None
) -> str:
    doc = {
        "tool": "mdl",
        "version": __version__,
        "subcommand": config.subcommand,
        "parameters": config.parameters,
        "results": results() if callable(results) else results,
    }
    if stamp is not None:
        doc["timestamp"] = stamp
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(
    config: argparse.Namespace,
    columns: list[str],
    rows: Iterable[tuple],
    stamp: str | None,
) -> str:
    params = "".join(f" {k}={v}" for k, v in config.parameters.items())
    lines = [f"# {CSV_SCHEMA} {config.subcommand}{params}"]
    if stamp is not None:
        lines.append(f"# generated {stamp}")
    lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _one_row(results: dict) -> SubcommandOutput:
    return results, list(results), [tuple(map(_cell, results.values()))]


def _fields(record: tuple, names: Iterable[str]) -> SubcommandOutput:
    """One row of the record's named attributes, in the order given."""
    return _one_row({name: getattr(record, name) for name in names})


_SUM_FIELDS = ("real", "imag", "magnitude", "term_count", "normalizer", "rho")


def _run_digit_stats(q: int, X: int, r: int, s: int) -> SubcommandOutput:
    """count primes p <= X by a base-q digit window of 2^p - 1"""
    report = count_blocks(q, r, s, X)

    def results() -> dict:
        return {
            "pi_X": report.pi_X,
            "expected": report.expected,
            "max_abs_deviation": report.max_abs_deviation,
            "counts": dict(enumerate(report.counts)),
        }

    rows = zip(range(len(report.counts)), report.counts, report.deviations)
    return results, ["block", "count", "deviation"], rows


def _run_expsum(q: int, gamma: int, a: int, g: int, X: int) -> SubcommandOutput:
    """log-weighted exponential sum of a*g^n over prime powers n <= X"""
    return _fields(mangoldt_exp_sum(q, gamma, a, g, X), _SUM_FIELDS)


def _run_mersenne_sum(q: int, gamma: int, a: int, X: int) -> SubcommandOutput:
    """exponential sum of a*(2^p - 1) over primes p <= X"""
    return _fields(mersenne_prime_sum(q, gamma, a, X), _SUM_FIELDS)


def _run_order_structure(q: int, g: int) -> SubcommandOutput:
    """multiplicative order of g mod q and its lifting data"""
    return _fields(order_structure(q, g), ("order_mod_q", "lift_valuation", "cofactor"))


def _run_vmvt(r: int, k: int, P: int) -> SubcommandOutput:
    """exact power-sum collision count over [1, P]^(2r)"""
    return _fields(vmvt_count(r, k, P), ("count",))


def _run_discrepancy(q: int, gamma: int, X: int, H: int = 100) -> SubcommandOutput:
    """star discrepancy of (2^p - 1)/q^gamma points, with its certified bound"""
    _check_int("H", H, least=1)  # before the residue walk, whose cost grows with X
    points = PointSet(q, gamma, mersenne_residues(q, gamma, X))
    bound = erdos_turan_bound(points, H)  # its guard before the exact D*
    observed = discrepancy(points)
    return _one_row({
        "discrepancy": observed,
        "erdos_turan_bound": bound,
        "certified": observed <= bound,
    })


# fixed desk-scale boxes for the lemma sweep
_LEMMA_R_MAX = 5
_LEMMA_N_MAX = 30
_LEMMA_M_MAX = 20
_LEMMA_XY_MAX = 20


def _sweep(check: Callable[..., object], cases: Iterable[tuple]) -> tuple[int, bool]:
    """Run check on each case; the number of calls, and False if any raised SelfCheckError."""
    count, ok = 0, True
    for case in cases:
        count += 1
        try:
            check(*case)
        except SelfCheckError:
            ok = False
    return count, ok


def _run_verify_lemmas(q: int, g: int) -> SubcommandOutput:
    """sweep the order-lifting congruence and valuation identities"""
    structure = order_structure(q, g)
    # both checks are read from mdl.cli as it runs, where perfbench/tracer.py wraps them
    exponents = range(_LEMMA_N_MAX + 1)
    tables, congruence_ok = _sweep(congruence_criterion, (
        (structure, r, s, exponents, exponents)
        for r in range(1, _LEMMA_R_MAX + 1)
        for s in range(structure.lift_valuation, r + 1)
    ))
    congruence_cases = tables * len(exponents) ** 2
    valuation_cases, valuation_ok = _sweep(valuation_difference, (
        (structure, m, x, y)
        for m in range(1, _LEMMA_M_MAX + 1)
        for x in range(_LEMMA_XY_MAX + 1)
        for y in range(x)
    ))
    results = {
        "congruence_cases": congruence_cases,
        "congruence_ok": congruence_ok,
        "valuation_cases": valuation_cases,
        "valuation_ok": valuation_ok,
        "all_ok": congruence_ok and valuation_ok,
    }
    rows = [
        ("congruence", congruence_cases, _cell(congruence_ok)),
        ("valuation", valuation_cases, _cell(valuation_ok)),
    ]
    return results, ["check", "cases", "ok"], rows


_HANDLERS: dict[str, Callable[..., SubcommandOutput]] = {
    "digit-stats": _run_digit_stats,
    "expsum": _run_expsum,
    "mersenne-sum": _run_mersenne_sum,
    "order-structure": _run_order_structure,
    "vmvt": _run_vmvt,
    "discrepancy": _run_discrepancy,
    "verify-lemmas": _run_verify_lemmas,
}


def _flags(handler: Callable[..., SubcommandOutput]) -> dict[str, int | None]:
    """The handler's parameters in order, each with its default, or None when required."""
    code, defaults = handler.__code__, handler.__defaults__ or ()
    names = code.co_varnames[:code.co_argcount]
    return dict(zip(names, [None] * (len(names) - len(defaults)) + list(defaults)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdl",
        description="Exact desk-scale statistics of base-q digits of Mersenne numbers.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler in _HANDLERS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        for flag, default in _flags(handler).items():
            sub.add_argument(f"--{flag}", type=int, default=default, required=default is None)
        default_format = "csv" if name == "digit-stats" else "json"
        sub.add_argument("--format", choices=("csv", "json"), default=default_format)
        sub.add_argument("--output", type=Path, default=None)
        sub.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp for byte-reproducible reports",
        )
    return parser


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; parameters holds the handler's flags in signature order."""
    config = build_parser().parse_args(argv)
    flags = _flags(_HANDLERS[config.subcommand])
    config.parameters = {flag: getattr(config, flag) for flag in flags}
    return config


def run(config: argparse.Namespace) -> str:
    """Execute one parsed invocation and return the rendered report text."""
    results, columns, rows = _HANDLERS[config.subcommand](**config.parameters)
    stamp = None
    if not config.no_timestamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if config.format == "json":
        return _render_json(config, results, stamp)
    return _render_csv(config, columns, rows, stamp)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
        report = run(config)
    except (PreconditionError, ResourceGuardError, SelfCheckError) as exc:
        print(f"mdl: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        if config.output is not None:
            config.output.write_text(report)
        else:
            sys.stdout.write(report)
    except OSError as exc:
        print(f"mdl: cannot write report: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
