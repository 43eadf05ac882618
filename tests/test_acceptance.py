"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints one PASS line with its measured runtime; stated budgets
are enforced with assertions, and every tolerance is pinned where it is
used.  Regression constants marked FROZEN were produced by the first
verified run of this suite and must not be edited casually.
"""

from __future__ import annotations

import math
import time
from itertools import product

from mdl.arith import is_prime, padic_valuation
from mdl.digits import (
    DigitCountReport,
    PointSet,
    digit_block,
    discrepancy,
    erdos_turan_bound,
    mersenne_residues,
)
from mdl.expsum import mangoldt_exp_sum, mersenne_prime_sum
from mdl.order import (
    OrderStructure,
    congruence_criterion,
    excess_valuation,
    order_mod_power,
    valuation_difference,
)
from mdl.primes import PrimeRange, primes_up_to
from mdl.vmvt import VmvtInstance
from oracles import (
    orders_by_stride_scan,
    vmvt_by_double_loop,
    window_hits_by_fractional_part,
)

# FROZEN: max_abs_deviation of DigitCountReport(q=3, r=25, s=1, X=10^6)
DEVIATION_CEILING_AT_1E6 = 0.004242146296720928
# FROZEN: (real, imag) of the sums mod 3^40 with a=1 (and g=2) at X=10^5, two
# summation blocks; they pin the Kahan block order bit for bit
MANGOLDT_SUM_AT_1E5 = (-385.3654638382419, -309.5672204429456)
MERSENNE_SUM_AT_1E5 = (-22.208173130454494, -31.419670389363755)

SMALL_PRIMES = [q for q in range(3, 51) if is_prime(q)]
GENERATORS = range(2, 13)


def _box_pairs():
    return [(q, g) for q in SMALL_PRIMES for g in GENERATORS if g % q != 0]


def _report(number: int, detail: str, started: float) -> None:
    print(f"criterion {number:2d} PASS  {detail}  [{time.monotonic() - started:.1f}s]")


def test_criterion_01_order_closed_form_matches_exhaustive_scan():
    started = time.monotonic()
    cases = 0
    for q, g in _box_pairs():
        oracle = orders_by_stride_scan(q, g, 5)
        structure = OrderStructure(q, g)
        for n in range(1, 6):
            assert order_mod_power(structure, n) == oracle[n - 1], (q, g, n)
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"
    _report(1, f"{cases} orders match the exhaustive-multiplication oracle", started)


def test_criterion_02_lift_decomposition_is_exact():
    started = time.monotonic()
    for q, g in _box_pairs():
        structure = OrderStructure(q, g)
        for n in range(1, 6):
            t = order_mod_power(structure, n)
            v = n + excess_valuation(structure, n)
            # exact-integer statement: q^v | g^t - 1 and q^(v+1) does not,
            # which pins the cofactor (g^t - 1)/q^v as an integer unit mod q
            assert pow(g, t, q**v) == 1, (q, g, n)
            assert pow(g, t, q ** (v + 1)) != 1, (q, g, n)
    # small corner of the box spelled out with full integers
    for q, g in [(3, 2), (5, 7), (7, 10), (11, 3), (11, 12)]:
        structure = OrderStructure(q, g)
        for n in (1, 2, 3):
            t = order_mod_power(structure, n)
            diff = g**t - 1
            v = padic_valuation(q, diff)
            cofactor = diff // q**v
            assert v == n + excess_valuation(structure, n)
            assert cofactor * q**v == diff
            assert math.gcd(cofactor, q) == 1
    _report(2, "g^t - 1 factors exactly as unit * q^(n + excess) on the box", started)


def test_criterion_03_congruence_and_valuation_identities():
    started = time.monotonic()
    congruence_cases = 0
    for q, g in _box_pairs():
        structure = OrderStructure(q, g)
        G = structure.lift_valuation
        for r in range(1, 6):
            for s in range(G, r + 1):
                for n1 in range(31):
                    for n2 in range(31):
                        # raises SelfCheckError if the power congruence
                        # ever disagrees with divisibility
                        divides = (n1 - n2) % q ** (r - s) == 0
                        got = congruence_criterion(structure, r, s, n1, n2)
                        assert got is divides, (q, g, r, s, n1, n2)
                        congruence_cases += 1
    valuation_cases = 0
    for q, g in _box_pairs():
        structure = OrderStructure(q, g)
        for m in range(1, 21):
            for x in range(21):
                for y in range(21):
                    if x != y:
                        # raises SelfCheckError if the closed form ever
                        # disagrees with the direct divisibility scan
                        valuation_difference(structure, m, x, y)
                        valuation_cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.1f}s"
    _report(
        3,
        f"{congruence_cases} congruence and {valuation_cases} valuation cases agree",
        started,
    )


def test_criterion_04_fractional_part_equivalence_exhaustive():
    started = time.monotonic()
    primes = list(primes_up_to(PrimeRange(10**4)))
    checked = 0
    for q in (3, 5, 7, 11):
        for s in (1, 2):
            for r in range(s - 1, 31):
                for p in primes:
                    hits = window_hits_by_fractional_part(p, q, r, s)
                    # the interval holds the digit window and no other value
                    assert hits.count(True) == 1, (p, q, r, s)
                    assert hits[digit_block(p, q, r, s)], (p, q, r, s)
                    checked += len(hits)
    elapsed = time.monotonic() - started
    assert checked == 8512054
    assert elapsed < 20.0, f"budget 20s exceeded: {elapsed:.1f}s"
    _report(4, f"{checked} digit-window vs interval checks agree", started)


def test_criterion_05_discrepancy_certified_by_erdos_turan():
    started = time.monotonic()
    configs = [
        (3, gamma, X, H)
        for gamma, X, H in product((5, 20), (10**4, 10**5), (10, 100))
    ] + [(7, 1, 10**4, 10)]
    for q, gamma, X, H in configs:
        points = PointSet(q, gamma, mersenne_residues(q, gamma, X))
        observed = discrepancy(points)
        bound = erdos_turan_bound(points, H)
        assert observed <= bound * (1 + 1e-9), (q, gamma, X, H, observed, bound)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"budget 5min exceeded: {elapsed:.1f}s"
    _report(5, f"{len(configs)} configurations certified", started)


def test_criterion_06_deviation_shrinks_and_stays_below_frozen_ceiling():
    started = time.monotonic()
    deviations = {}
    for X in (10**4, 10**5, 10**6):
        report = DigitCountReport(3, 25, 1, X)
        deviations[X] = report.max_abs_deviation
        if X == 10**6:
            assert report.pi_X == 78498
    assert deviations[10**4] > deviations[10**5] > deviations[10**6]
    assert deviations[10**6] <= DEVIATION_CEILING_AT_1E6 + 1e-15
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"budget 2min exceeded: {elapsed:.1f}s"
    _report(
        6,
        f"max deviation {deviations[10**4]:.5f} > {deviations[10**5]:.5f} "
        f"> {deviations[10**6]:.6f} <= frozen ceiling",
        started,
    )


def test_criterion_07_base7_position0_support_is_frozen():
    started = time.monotonic()
    allowed = {0, 1, 3}
    first_seen: dict[int, int] = {}
    for p in primes_up_to(PrimeRange(10**4)):
        value = digit_block(p, 7, 0, 1)
        assert value in allowed, (p, value)
        first_seen.setdefault(value, p)
    # support only ever grows, so membership for every prime plus full
    # coverage by p = 7 pins the support for every X in [7, 10^4]
    assert set(first_seen) == allowed
    assert max(first_seen.values()) <= 7
    report = DigitCountReport(7, 0, 1, X=10**4)
    assert {v for v, c in enumerate(report.counts) if c} == allowed
    _report(7, "support at position 0 is exactly {0, 1, 3}", started)


def test_criterion_08_power_sum_counts_match_naive_loop():
    started = time.monotonic()
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for P in range(1, 7):
                fast = VmvtInstance(r, k, P).count
                assert fast == vmvt_by_double_loop(r, k, P), (r, k, P)
                assert VmvtInstance(r + 1, k, P).count <= P * P * fast, (r, k, P)
                if P == 1:
                    assert fast == 1
    for P in range(1, 7):
        assert VmvtInstance(1, 1, P).count == P
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.1f}s"
    _report(8, "54 boxes match the naive double loop; monotone everywhere", started)


def test_criterion_09_exp_sum_contracts_and_bit_determinism():
    started = time.monotonic()
    Q = 3**40
    X = 10**5
    base_mangoldt = mangoldt_exp_sum(3, 40, 1, 2, X)
    base_mersenne = mersenne_prime_sum(3, 40, 1, X)
    assert (base_mangoldt.real, base_mangoldt.imag) == MANGOLDT_SUM_AT_1E5
    assert (base_mersenne.real, base_mersenne.imag) == MERSENNE_SUM_AT_1E5
    for result in (base_mangoldt, base_mersenne):
        assert result.magnitude <= result.normalizer * (1 + 1e-9)
    conj_mangoldt = mangoldt_exp_sum(3, 40, Q - 1, 2, X)
    assert abs(base_mangoldt.value - conj_mangoldt.value.conjugate()) <= 1e-9 * max(
        base_mangoldt.magnitude, 1.0
    )
    conj_mersenne = mersenne_prime_sum(3, 40, Q - 1, X)
    assert abs(base_mersenne.value - conj_mersenne.value.conjugate()) <= 1e-9 * max(
        base_mersenne.magnitude, 1.0
    )
    periodic = mersenne_prime_sum(3, 40, 1 + Q, X)
    assert (periodic.real, periodic.imag) == (base_mersenne.real, base_mersenne.imag)
    periodic_m = mangoldt_exp_sum(3, 40, 1 + Q, 2, X)
    assert (periodic_m.real, periodic_m.imag) == (base_mangoldt.real, base_mangoldt.imag)
    _report(9, "triangle, conjugation, periodicity, frozen bits at two blocks", started)


def test_criterion_10_throughput_window_count_at_ten_million():
    started = time.monotonic()
    report = DigitCountReport(3, 100, 2, X=10**7)
    elapsed = time.monotonic() - started
    assert report.pi_X == 664579
    assert sum(report.counts) == report.pi_X
    assert elapsed < 600.0, f"budget 10min exceeded: {elapsed:.1f}s"
    _report(10, f"q=3 X=1e7 r=100 s=2 completed in {elapsed:.1f}s", started)
