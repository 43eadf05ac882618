"""The benchmark's workloads and the checks every report must pass.

A workload is a list of `mdl` CLI invocations run one after another (one
round).  The seed picks one of a few cost-equivalent variants; every
variant has a committed golden report, and every report is also checked
against exact invariants that do not come from the program under test.
The module does not import `mdl`, so the end-to-end run keeps the parent
process free of the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# pi(x) and the number of prime powers p^k <= x (k >= 1), from tables of the
# prime-counting function, for every X a workload uses.
PRIME_COUNT = {100_000: 9_592, 1_000_000: 78_498, 2_000_000: 148_933}
PRIME_POWER_COUNT = {1_000_000: 78_734}


@dataclass(frozen=True)
class Workload:
    """Seed variants of one round, plus the layer probes of the traced run.

    A probe is ("primes.sieve", X), ("primes.mangoldt_terms", X) or
    ("digits.residues", q, gamma, X): a direct call into one layer at the
    size the round uses, timed on its own.
    """

    why: str
    variants: tuple[tuple[tuple[str, ...], ...], ...]
    probes: tuple[tuple, ...]

    def invocations(self, seed: int) -> tuple[tuple[str, ...], ...]:
        return self.variants[seed % len(self.variants)]


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# Frequency a and generator g: single-digit Python ints, coprime to 3, so
# every variant costs the same pow() and cos/sin work.
_EXPSUM_AG = ((1, 2), (2, 5), (4, 7), (5, 2), (7, 5), (8, 7), (10, 2), (11, 5))
# (q, g) pairs whose lemma sweep costs 0.04-0.06 s, next to about 1 s of vmvt.
_LEMMA_QG = ((11, 3), (13, 2), (11, 2), (7, 3), (17, 3), (13, 7), (11, 7), (19, 2))

WORKLOADS: dict[str, Workload] = {
    "residues": Workload(
        why="digit windows mod 3^101 to 2e6, then exponential sums mod 3^40 > 2^63 "
        "to 1e6: residue engine, sieve and big-modulus phases; no vmvt, no lemmas",
        variants=tuple(
            (
                _argv("digit-stats --q 3 --X 2000000 --r 100 --s 2"),
                _argv(f"expsum --q 3 --gamma 40 --a {a} --g {g} --X 1000000"),
                _argv(f"mersenne-sum --q 3 --gamma 40 --a {a} --X 1000000"),
            )
            for a, g in _EXPSUM_AG
        ),
        probes=(
            ("primes.sieve", 2_000_000),
            ("primes.mangoldt_terms", 1_000_000),
            ("digits.residues", 3, 101, 2_000_000),
        ),
    ),
    "phases-vmvt": Workload(
        why="Erdos-Turan certificate with H=100 and moduli below 2^53, then vmvt "
        "enumeration and the lemma sweep: phase loop and pure integer work",
        variants=tuple(
            (
                _argv("discrepancy --q 3 --gamma 20 --X 100000 --H 100"),
                _argv("vmvt --r 4 --k 3 --P 24"),
                _argv(f"verify-lemmas --q {q} --g {g}"),
            )
            for q, g in _LEMMA_QG
        ),
        probes=(("primes.sieve", 100_000), ("digits.residues", 3, 20, 100_000)),
    ),
}


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())


def _params(argv: tuple[str, ...]) -> dict[str, int]:
    return {flag[2:]: int(value) for flag, value in zip(argv[1::2], argv[2::2])}


def _check_digit_stats(p: dict[str, int], text: str) -> None:
    lines = text.splitlines()
    header = f"# mdl v1 digit-stats q={p['q']} X={p['X']} r={p['r']} s={p['s']}"
    if lines[:2] != [header, "block,count,deviation"]:
        raise ValueError(f"unexpected CSV header {lines[:2]}")
    rows = [line.split(",") for line in lines[2:]]
    if [int(row[0]) for row in rows] != list(range(p["q"] ** p["s"])):
        raise ValueError("blocks do not cover [0, q^s) in order")
    total = sum(int(row[1]) for row in rows)
    if total != PRIME_COUNT[p["X"]]:
        raise ValueError(f"counts sum to {total}, pi_X is {PRIME_COUNT[p['X']]}")


def _check_json(sub: str, p: dict[str, int], text: str) -> None:
    doc = json.loads(text)
    if doc["subcommand"] != sub or doc["parameters"] != p:
        raise ValueError(f"report echoes {doc['subcommand']} {doc['parameters']}")
    res = doc["results"]
    if sub == "discrepancy":
        if res["certified"] is not True:
            raise ValueError("discrepancy not certified")
        if not 0 < res["discrepancy"] <= res["erdos_turan_bound"]:
            raise ValueError(f"discrepancy {res['discrepancy']} outside (0, bound]")
    elif sub in ("expsum", "mersenne-sum"):
        table = PRIME_POWER_COUNT if sub == "expsum" else PRIME_COUNT
        if res["term_count"] != table[p["X"]]:
            raise ValueError(f"term_count {res['term_count']} != {table[p['X']]}")
        if res["magnitude"] > res["normalizer"]:
            raise ValueError("magnitude exceeds the trivial bound")
    elif sub == "vmvt":
        r, P = p["r"], p["P"]
        if not P**r <= res["count"] <= P ** (2 * r):
            raise ValueError(f"vmvt count {res['count']} outside [P^r, P^(2r)]")
    elif sub == "verify-lemmas":
        if res["all_ok"] is not True:
            raise ValueError("lemma sweep reports all_ok false")
    else:
        raise ValueError(f"no invariants for subcommand {sub}")


def check_report(argv: tuple[str, ...], text: str, goldens: dict[str, str]) -> str | None:
    """Return why the report for argv is wrong, or None when it is right."""
    key = " ".join(argv)
    if key not in goldens:
        return f"{key}: no golden report"
    if text != goldens[key]:
        return f"{key}: report differs from its golden"
    try:
        if argv[0] == "digit-stats":
            _check_digit_stats(_params(argv), text)
        else:
            _check_json(argv[0], _params(argv), text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{key}: {exc}"
    return None
